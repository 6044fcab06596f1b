open Sp_vm

(** The [allcache] pintool: a functional simulator of the
    instruction+data cache hierarchy (Table I by default), fed by the
    instrumented instruction and data reference streams. *)

type t

val create :
  ?config:Sp_cache.Config.hierarchy ->
  ?policy:Sp_cache.Cache.policy ->
  ?prefetch:bool ->
  Program.t ->
  t
(** The program is needed to turn PCs into instruction-fetch addresses.
    [policy] selects the replacement policy for every level (default
    LRU); [prefetch] enables the hierarchy's next-line prefetcher. *)

val prefetches : t -> int

val hooks : t -> Hooks.t
(** The fused hook set: a single {!Hooks.on_block_mems} consumer,
    {!Sp_cache.Cachesim.allcache_consumer}, that replays each delivered
    segment's i-fetch grid and data references in one call, with exact
    same-line/same-page repeat filters.  Statistics are bit-identical to
    one TLB access and one hierarchy walk per fetch and data reference
    (enforced by the differential suite). *)

val hierarchy : t -> Sp_cache.Hierarchy.t

val stats : t -> Sp_cache.Hierarchy.stats

val itlb_stats : t -> Sp_cache.Tlb.stats
(** Instruction-TLB statistics (the [allcache] pintool simulates
    instruction+data TLBs alongside the caches). *)

val dtlb_stats : t -> Sp_cache.Tlb.stats

val set_warming : t -> bool -> unit
(** Forwarded to the hierarchy: accesses update state but not stats. *)

val reset_stats : t -> unit

val reset_state : t -> unit
(** Clears cache/TLB contents, the statistics and the fused hooks'
    repeat-filter memos (which are only valid while the lines they name
    stay resident), and leaves warming off: the tool is then
    indistinguishable from a freshly created one. *)
