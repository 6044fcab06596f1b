(** A multi-core cache hierarchy: private L1D/L2 per core, one shared
    L3 — the structure SPECrate throughput runs exercise when several
    copies of a benchmark compete for the last level.

    Each core's addresses are offset into a disjoint region of the
    physical space (distinct copies of a rate run own distinct pages),
    so identical programs conflict in the shared L3 through *capacity*,
    not through accidental line sharing. *)

type t

val create : cores:int -> Config.hierarchy -> t
(** Private L1D and L2 per core (the hierarchy's L1I is unused here:
    rate interference studies are about data), shared L3. *)

val read : t -> core:int -> int -> unit
val write : t -> core:int -> int -> unit

val hooks : t -> core:int -> Sp_vm.Hooks.t
(** One core's data references, read and written in retirement order
    from {!Sp_vm.Hooks.on_block_mems} segments. *)

type core_stats = {
  l1d : Hierarchy.level_stats;
  l2 : Hierarchy.level_stats;
  l3_accesses : int;  (** this core's share of shared-L3 traffic *)
  l3_misses : int;
}

val core_stats : t -> int -> core_stats

val shared_l3 : t -> Hierarchy.level_stats
(** Aggregate statistics of the shared L3. *)

val reset_stats : t -> unit
val reset_state : t -> unit
