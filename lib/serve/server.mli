(** The [specrepro serve] daemon: benchmark-as-a-service over a
    Unix-domain socket.

    One accept thread hands each connection to a reader thread;
    [submit] requests are enqueued on the bounded fair {!Queue}
    (per-client round-robin) and a scheduler thread hands them, one at
    a time as any of [parallel] slots frees up, to {!Sp_util.Pool}
    worker domains.  Each job is answered as soon as it finishes: its
    record is appended to the {!Results_store} (when configured) and its
    [specrepro/v2] [run] envelope — built by the same
    {!Specrepro.Api} code path the CLI uses, hence byte-compatible
    with [specrepro run --json] — is sent back on the submitting
    connection.

    Robustness contract:
    - a malformed frame is answered with a typed [bad-frame] error
      reply; payload-level faults (checksum, JSON) keep the
      connection, framing-level faults drop {e that connection only};
    - a full queue is answered immediately with a [backpressure]
      error, never buffered unboundedly;
    - a job past its deadline is answered with a [timeout] error;
    - a client that disconnects mid-job costs nothing but its reply;
    - SIGTERM/SIGINT (or a [shutdown] request) drains: queued and
      running jobs finish and are answered, new submissions are
      refused with [shutting-down], then the daemon exits 0.

    Instrumented with [serve.*] metrics (queue depth, jobs in flight,
    completions, rejects, timeouts, bad frames, per-client throughput,
    job and queue-wait seconds) and [serve.job] trace spans. *)

type config = {
  socket_path : string;
  results_path : string option;  (** append-only results store *)
  queue_capacity : int;  (** bound on queued (not yet running) jobs *)
  parallel : int;  (** max jobs in flight across the domain pool *)
  job_timeout : float;  (** seconds from submit to reply; 0 = none *)
  base_options : Specrepro.Pipeline.options;
      (** defaults for request fields left unset; also carries
          host-local knobs requests cannot set (cache directories) *)
  quiet : bool;
}

type t

val start : config -> t
(** Bind the socket (replacing a stale file at that path) and start
    the accept and scheduler threads.  SIGPIPE is ignored
    process-wide (replies to vanished clients must error, not kill
    the daemon).  @raise Unix.Unix_error if the socket can't be
    bound. *)

val initiate_shutdown : t -> unit
(** Begin the graceful drain (idempotent, async-signal-safe apart
    from the queue wakeup). *)

val wait : t -> unit
(** Block until the daemon has fully drained and every thread has
    been joined.  Only returns after {!initiate_shutdown} (from a
    signal, a [shutdown] request, or {!stop}). *)

val stop : t -> unit
(** {!initiate_shutdown} followed by {!wait} — the test harness's
    clean teardown. *)

val run : config -> unit
(** {!start}, install SIGTERM/SIGINT handlers that initiate the
    drain, and {!wait} — the CLI entry point. *)
