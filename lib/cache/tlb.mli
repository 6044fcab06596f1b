(** TLB simulation.

    The paper's [allcache] pintool is "a functional simulator of
    instruction+data TLB+cache hierarchies"; this module supplies the
    TLB half.  A TLB is modelled as a set-associative cache of page
    translations with LRU replacement (reusing {!Cache} at page
    granularity), with an optional unified second level.

    TLB capacities are *not* capacity-scaled like the data caches: a
    page already covers many cache lines, so the reach ratios survive
    the instruction-count scaling unchanged. *)

type config = {
  name : string;
  entries : int;
  assoc : int;
  page_bytes : int;
}

val itlb_default : config
(** 64-entry, 4-way, 4 kB pages. *)

val dtlb_default : config

val stlb_default : config
(** Unified second-level TLB: 512-entry, 8-way. *)

type t

val create : ?level2:config -> config -> t
(** [create ?level2 cfg] builds a TLB; misses in the first level probe
    [level2] when present. *)

type stats = {
  accesses : int;
  misses : int;      (** first-level misses *)
  walks : int;       (** misses in every level: page-table walks *)
  miss_rate : float;
  walk_rate : float;
}

val access : t -> int -> unit
(** Translate the page containing a byte address. *)

val access_bulk : t -> int -> unit
(** [access_bulk t n] counts [n] guaranteed first-level hits without
    walking — only sound for repeats of the page this TLB just
    translated (statistics bit-identical to [n] {!access} calls). *)

val warm : t -> int -> unit
(** Translate without counting statistics. *)

val stats : t -> stats
val reset_stats : t -> unit

val reset_state : t -> unit
(** Invalidate every level and zero the statistics, warming walks
    included: the TLB is then indistinguishable from a fresh one. *)
