(** In-memory LRU over decoded artifacts.

    Sits in front of the on-disk content-addressed caches
    ({!Artifact_cache}, {!Profile_store}): a hit skips the disk read,
    checksum sweep and decode entirely.  Differently-typed member
    caches share one byte budget through a {!pool}; eviction is strict
    least-recently-used across the whole pool.

    Every operation is domain-safe (one pool mutex).  Values come back
    uncopied, so consumers must treat them as immutable;
    [Snapshot.restore] copies a cached pinball's image and only reads
    the value, so concurrent restores of one pinball are safe.

    Counters: [pbcache.mem_hits] (stable across job counts) and
    [pbcache.mem_evictions] (unstable: eviction order under a
    concurrent pool depends on scheduling). *)

type pool

val create_pool : unit -> pool
(** A fresh pool with budget 0 (every member disabled). *)

val global : pool
(** The process-wide pool used by the artifact and profile caches; its
    budget is set from [--mem-cache-mb] / [SPECREPRO_MEM_CACHE_MB] at
    pipeline entry. *)

val set_budget_mb : pool -> int -> unit
(** Set the shared byte budget in MiB.  0 (or negative) disables every
    member cache: finds miss, adds drop.  Shrinking does not evict
    until the next {!add}. *)

type 'a t

val create : pool -> 'a t
(** A new member cache drawing on [pool]'s budget. *)

val find : 'a t -> string -> 'a option
(** Lookup by key; a hit bumps recency and [pbcache.mem_hits]. *)

val add : 'a t -> string -> bytes:int -> 'a -> unit
(** Insert (or replace) an entry charged [bytes] against the pool
    budget, evicting pool-wide LRU entries to make room.  Dropped
    silently when the pool is disabled or the entry alone exceeds the
    budget. *)

val clear : 'a t -> unit
(** Drop every entry of this member (not the whole pool). *)
