(** The content-addressed entry layer under both disk caches, whole
    pinballs ({!Artifact_cache}) and profile entries ({!Profile_store}).

    An entry lives at a path that embeds its content key.  {!find} tries
    the decoded-artifact pool ({!Mem_cache}) first, then loads and fully
    validates the file, and quarantines (renames aside) an entry that
    fails.  {!store} writes atomically ({!Sp_util.Frame.write_atomic}),
    then adds to the pool.  Nothing here raises on a bad entry.  The
    four counters are named by the owner; hit/miss splits depend on
    what earlier processes left on disk, so they are stable across job
    counts. *)

type 'a lookup =
  | Hit of 'a
  | Miss
  | Quarantined of { path : string; reason : string }
      (** the entry failed validation; it has been renamed to
          [path ^ ".quarantined"] and must be recomputed *)

type 'a t

val create :
  hits:string ->
  misses:string ->
  quarantined:string ->
  stored:string ->
  load:(string -> ('a, string) result) ->
  encode:('a -> string) ->
  'a t
(** [load] reads and validates a file; its [Error] is the quarantine
    reason. *)

val find : 'a t -> string -> 'a lookup
(** A memory hit skips the read, checksums and decode (and so cannot
    see later on-disk corruption); a disk hit is promoted to memory. *)

val store : 'a t -> string -> 'a -> unit

val quarantine : 'a t -> string -> string
(** Rename an entry aside and count it; returns the new path.  For
    callers that reject an entry for a reason [load] cannot see. *)

val clear_mem : 'a t -> unit
(** Drop this cache's in-memory entries; the disk is untouched. *)
