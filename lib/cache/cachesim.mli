(** The cache-simulation unit: the set kernel, the hierarchy walk, the
    TLBs, the fused [allcache] segment consumer and the interval core's
    data-segment walk, in one compilation unit so that the
    per-reference path makes no cross-module call.

    {!Cache}, {!Hierarchy} and {!Tlb} are views of this unit and are
    what other code should use; [Sp_pin.Allcache_tool] and
    [Sp_cpu.Interval_core] call the segment entry points once per
    segment.  The records are concrete so that the views and those two
    adapters read counters without a call; only the functions below
    change replacement state. *)

type policy = Lru | Fifo | Random

(** {1 The set kernel} *)

type cache = {
  cfg : Config.level;
  pol : policy;
  line_shift : int;
  set_mask : int;
  set_shift : int;
  assoc : int;
  tags : int array;
      (** sets * assoc ways, recency/insertion-ordered, slot 0 = MRU *)
  seed : int;  (** seeds [rng] at creation and on every reset *)
  mutable rng : Sp_util.Rng.t;
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
}

val cache_create : ?policy:policy -> ?seed:int -> Config.level -> cache
(** See {!Cache.create}. *)

val access_rw : cache -> write:bool -> int -> bool
val access : cache -> int -> bool
val warm : cache -> int -> bool
val miss_rate : cache -> float
val cache_reset_stats : cache -> unit
val cache_reset_state : cache -> unit
val resident_lines : cache -> int

(** {1 The hierarchy}

    A walk's level class is 0 for L1, 1 for L2, 2 for L3 and 3 for
    memory. *)

type hierarchy = {
  l1i : cache;
  l1d : cache;
  l2 : cache;
  l3 : cache;
  line_bytes : int;  (** L2's line size: the prefetcher's stride *)
  prefetch : bool;
  mutable prefetches : int;
  mutable warming : bool;
}

val hierarchy_create :
  ?policy:policy -> ?next_line_prefetch:bool -> Config.hierarchy -> hierarchy

val fetch : hierarchy -> int -> unit
val read : hierarchy -> int -> unit
val write : hierarchy -> int -> unit
val fetch_class : hierarchy -> int -> int
val read_class : hierarchy -> int -> int
val write_class : hierarchy -> int -> int
val hierarchy_reset_stats : hierarchy -> unit
val hierarchy_reset_state : hierarchy -> unit

(** {1 TLBs} *)

type tlb = {
  tlb1 : cache;
  tlb2 : cache option;
  mutable walks : int;
  mutable warming_walks : int;
}

val tlb_create : ?level2:Config.level -> Config.level -> tlb
val tlb_access : tlb -> int -> unit
val tlb_warm : tlb -> int -> unit
val tlb_reset_stats : tlb -> unit
val tlb_reset_state : tlb -> unit

(** {1 The fused [allcache] consumer} *)

type allcache = {
  hier : hierarchy;
  itlb : tlb;
  dtlb : tlb;
  code_base : int;
  instr_shift : int;
  i_line_shift : int;
  i_page_shift : int;
  d_line_shift : int;
  d_page_shift : int;
  mutable last_i_line : int;
  mutable last_i_page : int;
  mutable last_d_line : int;
  mutable last_d_page : int;
  mutable last_d_dirty : bool;
}

val allcache_create :
  hier:hierarchy ->
  itlb:tlb ->
  dtlb:tlb ->
  code_base:int ->
  instr_bytes:int ->
  allcache
(** The consumer over a hierarchy and two TLBs, for code at [code_base]
    of [instr_bytes]-byte instructions (a power of two).  Warming is the
    hierarchy's flag. *)

val allcache_consumer :
  allcache -> int -> int -> int array -> int array -> int -> unit
(** [allcache_consumer a] is an [on_block_mems] callback
    ([pc0 n offs addrs nrefs]): the segment's i-fetch grid and data
    references, in retirement order, bit-identical to one TLB access
    and one hierarchy walk per fetch and per data reference. *)

val allcache_forget : allcache -> unit
(** Drop the repeat-filter memos, which are only valid while the lines
    they name stay resident: call with every state reset. *)

(** {1 The interval core's data side} *)

type core_mem = {
  mem : hierarchy;
  c_line_shift : int;
  mutable c_last_line : int;
  mutable c_last_dirty : bool;
}

val core_mem_create : hierarchy -> core_mem
(** The data-reference walker over a core's private hierarchy, which
    must see no data reference but this walker's. *)

val core_segment : core_mem -> int array -> int -> int array -> int
(** [core_segment c addrs nrefs levels] walks the first [nrefs] packed
    references of [addrs] in order, with the same-line repeat filter.
    While measuring it writes each reference's level class into
    [levels.(r)] ([levels] must hold [nrefs] entries) and returns how
    many were not served by L1; while warming it writes nothing and
    returns 0. *)

val core_mem_forget : core_mem -> unit
(** Drop the repeat-filter memo (see {!allcache_forget}). *)
