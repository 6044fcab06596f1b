(** Reuse-distance profiling and statistical cache modelling.

    The paper's related work (Nikoleris et al., CoolSim/StatCache)
    replaces explicit cache warming with a statistical model built from
    the workload's memory-reuse information.  This module provides the
    substrate: an exact Olken-style stack-distance profiler (Fenwick
    tree over access time) producing a reuse-distance histogram, plus
    the classic LRU miss-rate estimator P(distance >= capacity).

    Distances are measured in distinct cache *lines* between consecutive
    touches of the same line. *)

type t

val create : ?line_bytes:int -> ?max_accesses:int -> unit -> t
(** [line_bytes] defaults to 64.  [max_accesses] bounds the profile (the
    Fenwick tree is O(accesses) memory): accesses beyond the cap are
    ignored, making the profile a prefix sample (default: 4 M). *)

val capped : t -> bool
(** True if the access cap cut the stream short. *)

val access : t -> int -> unit
(** Record a memory access (byte address). *)

val hooks_of : t -> Sp_vm.Hooks.t
(** Hooks recording both reads and writes into the profiler, from
    {!Sp_vm.Hooks.on_block_mems} segments. *)

val total : t -> int
(** Accesses recorded. *)

val cold : t -> int
(** First-touch accesses (infinite reuse distance). *)

val histogram : t -> (int * int) array
(** [(bucket_upper_bound, count)] pairs in ascending order: bucket [b]
    counts accesses with reuse distance in [(prev, b]]; power-of-two
    bounds.  Cold accesses are not included. *)

val miss_rate_estimate : t -> cache_lines:int -> float
(** Estimated steady-state miss rate of a fully-associative LRU cache
    with [cache_lines] lines: (accesses with distance >= capacity +
    cold) / total.  0 when nothing was recorded. *)

val cdf_at : t -> int -> float
(** Fraction of non-cold accesses with reuse distance <= the given
    number of lines (bucket-resolution). *)
