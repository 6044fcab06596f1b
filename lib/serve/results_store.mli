(** Append-only, checksummed results history.

    Every job the daemon completes is appended as one
    {!Sp_util.Frame} self-framed record, magic [SRRC], version 1, with a
    JSON payload ({!record_of_result}), so the file is a log that only
    ever grows and any prefix of it is a valid store.

    Crash-recovery semantics: a record is appended with a single
    [write] to an [O_APPEND] descriptor, so the only artifact a crash
    can leave is a {e torn tail} — a prefix of one final frame.
    {!read_file} classifies the tail: [Torn] (recoverable; the valid
    prefix is intact and {!append} will truncate the torn bytes away
    before writing), or [Corrupt] (a complete frame whose checksum or
    framing is wrong — bit rot, not a crash; {!append} refuses rather
    than silently discard the unreachable records after it, and
    [specrepro query] reports the damage).  Readers never raise on
    arbitrary bytes and never trust an unchecksummed payload. *)

type tail =
  | Clean
  | Torn of { offset : int; bytes : int }
      (** a prefix of a valid frame at EOF (crash artifact) *)
  | Corrupt of { offset : int; reason : string }
      (** framing or checksum violation that truncation must not
          repair *)

val tail_message : tail -> string option
(** Human-readable description, [None] for [Clean]. *)

val read_file : string -> (Sp_obs.Json.t list * tail, string) result
(** All valid records in append order, plus the tail classification.
    [Error] only for an unreadable file (missing, permissions).  A tail
    that is not [Clean] also makes this process's next {!append} to the
    path scan the whole file. *)

val append : path:string -> Sp_obs.Json.t -> (unit, string) result
(** Append one record, creating the file (and directories) as needed.
    Recovers a [Torn] tail by truncating to the last valid record
    first (counted in [results.torn_recovered]); refuses a [Corrupt]
    store.  Maintains [results.appends].  Appends within one process
    are serialised, so concurrent appends from several domains cannot
    mistake each other's half-written record for a torn tail; sharing
    one store between processes is not supported.

    The cost does not grow with the history: the process remembers each
    store as its last append left it (device, inode, size, modification
    and change times).  A file found exactly so is not read; one that
    only grew has just the new bytes checked; any other is checked
    whole.  [results.scanned_bytes] counts the bytes checked.  A
    same-size rewrite inside one file-timestamp tick of the last append
    can therefore go unseen by [append] on a file system with coarse
    timestamps; {!read_file} still reports it. *)

val record_of_result :
  client:string ->
  time:float ->
  Specrepro.Pipeline.bench_result ->
  Sp_obs.Json.t
(** The stored record: benchmark, submitting client, wall-clock time,
    canonical options, point counts, a [metrics] object (wall seconds,
    whole/warm CPI and L3 miss rates, warm-vs-whole CPI and L3
    fidelity errors in percent), the sampler's diagnostics and the
    per-stage timing breakdown. *)

(** {1 Query accessors} *)

val benchmark_of : Sp_obs.Json.t -> string option

val metric : Sp_obs.Json.t -> string -> float option
(** Look up a named value in the record's [metrics] object. *)

val metric_names : Sp_obs.Json.t -> string list
(** The metric names a record carries, in stored order. *)

val benchmarks : Sp_obs.Json.t list -> string list
(** Distinct benchmark names, in order of first appearance. *)

val history : Sp_obs.Json.t list -> benchmark:string -> Sp_obs.Json.t list
(** The records for one benchmark, oldest first. *)
