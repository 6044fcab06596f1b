(** Four-level cache hierarchy, matching the structure the [allcache]
    pintool simulates: split L1I/L1D backed by unified L2 and L3.

    Lookups are strictly hierarchical and non-inclusive: a level is
    accessed (and counted) only if the level above missed. *)

type t

type level_stats = { accesses : int; misses : int; miss_rate : float }

type stats = {
  l1i : level_stats;
  l1d : level_stats;
  l2 : level_stats;
  l3 : level_stats;
}

val create :
  ?policy:Cache.policy -> ?next_line_prefetch:bool -> Config.hierarchy -> t
(** [policy] applies to every level (default LRU).
    [next_line_prefetch] adds a simple next-line prefetcher: a miss in
    L2 also installs the following line into L2 and L3 (default off;
    used by the prefetch ablation). *)

val fetch : t -> int -> unit
(** Instruction-fetch access (L1I -> L2 -> L3). *)

val read : t -> int -> unit
(** Data read (L1D -> L2 -> L3). *)

val write : t -> int -> unit
(** Data write; write-allocate, so it walks the same path as a read. *)

val fetch_repeats : t -> int -> unit
(** [fetch_repeats t n] counts [n] instruction fetches that are
    guaranteed L1I hits (repeats of the line the last {!fetch}
    touched) without walking: a repeat hit changes no replacement
    state and never reaches L2/L3, so stats stay bit-identical to [n]
    {!fetch} calls.  No-op while warming, exactly as [n] warmed
    guaranteed hits would be. *)

val data_repeats : t -> int -> unit
(** Same-line filter for data references: [n] guaranteed L1D hits,
    counters only.  Sound for repeat reads of the line the last data
    access touched, and for repeat writes to it once it is known to be
    dirty; any other write must go through {!write}, since it can set
    the dirty bit. *)

(** The level that served an access — what a timing model needs. *)
type hit_level = L1 | L2 | L3 | Memory

val latency_class : hit_level -> int
(** Stable code 0..3 (L1=0 .. Memory=3). *)

val read_where : t -> int -> hit_level
(** Like {!read}, additionally reporting the serving level. *)

val write_where : t -> int -> hit_level
val fetch_where : t -> int -> hit_level

val set_warming : t -> bool -> unit
(** While warming, accesses update cache state but not statistics —
    the "cache warming before each phase" mitigation of Section IV-D. *)

val warming : t -> bool

val stats : t -> stats

val observe_stats : stats -> unit
(** Fold a finished hierarchy's statistics into the global
    [cache.{l1i,l1d,l2,l3}.{accesses,misses}] metrics
    ({!Sp_obs.Metrics}).  Callers invoke this once per completed
    simulation, so the access loops themselves carry no
    instrumentation. *)

val prefetches : t -> int
(** Next-line prefetches issued (0 unless enabled). *)

val writebacks : t -> int * int * int
(** Dirty evictions from (L1D, L2, L3). *)

val reset_stats : t -> unit

val reset_state : t -> unit
(** Invalidate every level, zero the statistics and the prefetch count,
    and leave warming off: the hierarchy is then indistinguishable from
    a freshly created one. *)

val pp_stats : Format.formatter -> stats -> unit
