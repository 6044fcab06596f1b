(** A persistent domain pool for embarrassingly parallel batches.

    The pipeline's hot loops (suite fan-out, k-means assignment) are
    all independent-job batches; this module
    runs them across OCaml 5 domains while keeping results in input
    order, so [jobs = 1] and [jobs = N] are observationally identical.

    Worker domains are spawned lazily and never exit; batches reach
    them through one shared task queue.  A batch's caller works on it
    too, so a batch asks for [jobs - 1] workers, capped at
    [Domain.recommended_domain_count () - 1]; {!async} asks for [jobs],
    capped at [Domain.recommended_domain_count ()].  A batch issued
    from inside a worker shares the same fixed worker set, so composed
    fan-outs (suite over benchmarks, k-means within a benchmark) never
    oversubscribe the machine and never spawn domains per call.

    Observability: every batch records [pool.batches] and
    [pool.tasks], every spawn [pool.domains_spawned], and each domain
    that ran items of a batch one [pool.domain_busy_seconds]
    observation in {!Sp_obs.Metrics}.  All pool metrics are registered
    unstable — their values legitimately vary with [jobs]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1 — one core is
    left for the coordinating domain. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f arr] is [Array.map f arr] computed on up to
    [jobs] domains, the calling one included (and no more domains than
    [Domain.recommended_domain_count ()]).  Results are returned in
    input order.  Runs as plain sequential [Array.map] when [jobs <= 1]
    or the array has at most one element.  If [f] raises, the first
    exception is re-raised on the calling domain once every item
    already started has finished; the remaining items are abandoned.
    [jobs] defaults to {!default_jobs}. *)

val parallel_for : ?jobs:int -> ?chunks:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for ~jobs ~chunks ~n body] splits [0, n) into [chunks]
    contiguous ranges and runs [body lo hi] for each, in parallel on up
    to [jobs] domains.  Chunk boundaries depend only on [n] and
    [chunks] (never on [jobs]), so per-chunk accumulations reduce
    identically for every job count.  [chunks] defaults to [4 * jobs]. *)

val chunk_bounds : chunks:int -> n:int -> (int * int) array
(** The [(lo, hi)] ranges {!parallel_for} would use; exposed for
    callers that reduce per-chunk partial results themselves. *)

val async : jobs:int -> (unit -> unit) -> unit
(** [async ~jobs task] queues [task] to run on a pool worker, never on
    the calling domain, and returns at once.  The pool first grows to
    at least [jobs] workers (at least one; capped as above), so up to
    [jobs] async tasks can run at the same time.  A task that raises
    is logged through {!Sp_obs.Log} and its worker keeps serving. *)
