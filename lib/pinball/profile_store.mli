(** Content-addressed cache of profile-stage results.

    The log+profile stage of the pipeline replays the whole execution
    under the combined profiler plus the cache and timing tools.  Its
    outputs — BBV slices, per-kind instruction counts (from which the
    ldst mix derives), whole-run hierarchy statistics and whole-run
    core statistics — are pure functions of the same key that addresses
    a cached whole pinball, plus the warmup setting surfaced in run
    reports.  This store memoises them so a re-run with the same
    parameters skips the instrumented whole-program replay entirely.

    Lookups and stores go through {!Entry_cache}, the same layer as
    {!Artifact_cache}: corrupt, truncated or version-mismatched entries
    are quarantined and recomputed, never trusted and never fatal.  A
    [.prof] file is a {!Sp_util.Frame} sectioned file (magic
    [SPREPRO-PROFILE], version 1) with four CRC-32-checksummed sections
    — META, BBVS, MIXK, STAT — so random corruption is detected before
    any payload is decoded. *)

type data = {
  benchmark : string;
  total_insns : int;
  slices : Sp_pin.Bbv_tool.slice array;
  kind_counts : int array;  (** per [Isa.kind_code], whole run *)
  cache_stats : Sp_cache.Hierarchy.stats;
  core_stats : Sp_cpu.Interval_core.stats;
}

val key :
  benchmark:string ->
  slice_insns:int ->
  slices_scale:float ->
  warmup_insns:int ->
  string
(** md5 of [generation|bench|slice_insns|scale|warmup]: everything that
    determines the profiled execution and the run configuration it is
    reported under. *)

val path : dir:string -> key:string -> string
(** [<dir>/<key>.prof]. *)

type 'a lookup = 'a Entry_cache.lookup =
  | Hit of 'a
  | Miss
  | Quarantined of { path : string; reason : string }

val find : dir:string -> key:string -> data lookup
(** Look up an entry; corrupt entries are renamed aside
    ([.quarantined]) and reported, so the caller recomputes.
    Maintains the [profcache.{hits,misses,quarantines}] metrics.
    Consults the in-memory decoded-artifact cache ({!Mem_cache})
    first; a disk hit is promoted into memory. *)

val clear_mem : unit -> unit
(** Drop every in-memory decoded profile entry (the disk store is
    untouched) — simulates a fresh process in tests. *)

val store : dir:string -> key:string -> data -> string
(** Atomically write an entry (per-process/domain temp file + rename),
    creating [dir] as needed; returns the path.  Maintains
    [profcache.stores]. *)

val quarantine : string -> string
(** Rename an untrusted entry aside (appending [.quarantined]) and
    count it in [profcache.quarantines]; returns the new path.  Used
    internally by {!find} and by callers that reject an entry for
    reasons the decoder cannot see (e.g. a stale instruction total). *)

val encode : data -> string
(** The exact bytes {!store} writes; deterministic for a given entry. *)

val of_bytes : ?path:string -> string -> (data, string) result
(** Decode from bytes in memory ([path] only labels errors).  Never
    raises: every malformed input is an [Error]. *)

val load : string -> (data, string) result
(** {!of_bytes} over a file's contents. *)

val verify : string -> (unit, string) result
(** {!load}, discarding the entry. *)
