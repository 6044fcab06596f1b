(** The [specrepro/v2] public JSON surface.

    Every machine-readable output the system produces — [--json] on any
    CLI subcommand {e and} every reply the [specrepro serve] daemon
    sends over its socket — is one envelope:

    {v {"schema":"specrepro/v2","command":C,"options":O,"result":R} v}

    [command] discriminates the payload, [options] echoes the
    result-determining invocation knobs (canonically rendered, so two
    surfaces given the same configuration emit byte-identical options
    objects), and [result] carries the command's payload.  The CLI and
    the daemon build their envelopes through this one module, which is
    what makes a daemon [submit] reply byte-compatible with
    [specrepro run --json] output for the same job.

    v1 compatibility: [specrepro/v1] objects were flat
    ([schema]/[command] plus payload fields at the top level, options
    unrecorded).  v2 moves every payload field under [result], adds the
    canonical [options] object, and changes nothing inside the payload
    renderings themselves ([run_stats_json], [table_json], metric
    samples are identical to v1).  Consumers can detect the version
    from the [schema] field. *)

val schema : string
(** ["specrepro/v2"]. *)

val schema_v1 : string
(** ["specrepro/v1"] — the retired flat schema, kept for consumers
    that need to recognise old captures. *)

val envelope :
  command:string -> options:Sp_obs.Json.t -> result:Sp_obs.Json.t ->
  Sp_obs.Json.t
(** The four-field v2 envelope, fields in canonical order. *)

val no_options : Sp_obs.Json.t
(** [{}] — for commands with no result-determining knobs (list,
    replay, report, pinballs). *)

val options_json :
  ?benchmark:string ->
  ?extra:(string * Sp_obs.Json.t) list ->
  Pipeline.options ->
  Sp_obs.Json.t
(** Canonical rendering of the result-determining pipeline knobs:
    [benchmark] (when given), [scale], [jobs], [sampler],
    [slice_insns], [warmup_insns], then any command-specific [extra]
    fields.  Presentation and host-local resource knobs (progress,
    trace output, the cache directory) are deliberately excluded — they
    cannot change a result, so they are not part of the public API. *)

val options_of_json :
  ?base:Pipeline.options ->
  Sp_obs.Json.t ->
  (string option * Pipeline.options, string) result
(** Decode an [options] object received over the wire back into
    [(benchmark, options)], starting from [base] (default:
    {!Pipeline.default_options}) and applying {!Pipeline.normalize}.
    Strict: an unknown field or a wrongly-typed value is an [Error]
    naming the field, never silently ignored.  Round-trips with
    {!options_json}: decoding a rendered object and re-rendering it
    reproduces the same bytes. *)

(** {1 Payload renderers}

    Shared by the CLI subcommands and the daemon so the two surfaces
    can never drift. *)

val mix_json : Sp_pin.Mix.t -> Sp_obs.Json.t
val run_stats_json : Runstats.run_stats -> Sp_obs.Json.t

val bench_result_fields :
  Pipeline.bench_result -> (string * Sp_obs.Json.t) list
(** The per-benchmark result payload ([benchmark], point counts, the
    four aggregated runs, native CPI, wall seconds, run report), as an
    ordered field list so callers can append to it. *)

val table_json : Sp_util.Table.t -> Sp_obs.Json.t
val metrics_json : unit -> Sp_obs.Json.t
(** Snapshot of the {!Sp_obs.Metrics} registry, taken at call time. *)

val run_result : Pipeline.bench_result -> Sp_obs.Json.t
(** {!bench_result_fields} plus a trailing [metrics] snapshot — the
    [result] payload of the [run] command.  [metrics] is kept last so
    consumers (and the CI normaliser) can strip the one
    scheduling-dependent field with a tail match. *)

val run_envelope : Pipeline.bench_result -> Sp_obs.Json.t
(** The complete [run] envelope for a finished benchmark — exactly
    what [specrepro run --json] prints and what the daemon replies to
    a [submit]. *)

(** {1 Errors}

    Error replies use [command = "error"]; [result.code] is a stable
    machine-readable discriminator aligned with the CLI exit-code
    convention (every code here maps to exit 1 for clients — gate
    failures are not errors, they are [bench-regress] results). *)

val error_result : code:string -> message:string -> Sp_obs.Json.t
val error_envelope : code:string -> message:string -> Sp_obs.Json.t

val emit :
  command:string -> options:Sp_obs.Json.t -> result:Sp_obs.Json.t -> unit
(** Print an envelope to stdout (one line, trailing newline) — the
    [--json] output path. *)
