(** A single set-associative cache with pluggable replacement.

    This is a *functional* cache model in the [allcache]-pintool sense:
    it tracks which lines are resident, their dirty bits, and counts
    hits, misses and write-backs, but carries no data and models no
    timing.  Timing is the business of {!Sp_cpu}. *)

(** Replacement policy.  [Lru] is the default (and what the paper's
    tools model); [Fifo] and [Random] support replacement-policy
    ablations. *)
type policy = Cachesim.policy = Lru | Fifo | Random

type t = Cachesim.cache
(** A view of the set kernel of {!Cachesim}. *)

val create : ?policy:policy -> ?seed:int -> Config.level -> t
(** [seed] only matters for [Random] replacement (deterministic).
    @raise Invalid_argument (naming the level) if the geometry is
    degenerate: [line_bytes] or the derived set count not a positive
    power of two, [assoc < 1], or a size that is not
    [sets * assoc * line_bytes] — the shift/mask indexing would
    silently mis-shape otherwise — or if a way spans fewer than 16
    bytes ([sets * line_bytes < 16]), which the tag encoding cannot
    hold. *)

val config : t -> Config.level
val policy : t -> policy

val access : t -> int -> bool
(** [access c addr] touches the line containing byte [addr] as a read;
    returns [true] on hit.  Allocates on miss. *)

val access_rw : t -> write:bool -> int -> bool
(** Like {!access}; a write marks the line dirty, and evicting a dirty
    line counts a write-back. *)

val warm : t -> int -> bool
(** Like {!access} but does not count statistics — used for the paper's
    cache-warming mitigation. *)

val accesses : t -> int
val misses : t -> int
val hits : t -> int

val writebacks : t -> int
(** Dirty evictions observed (including during warming, since they are
    state, not statistics). *)

val miss_rate : t -> float
(** Misses per access, in [\[0,1\]]; 0 if never accessed. *)

val reset_stats : t -> unit
(** Zero the counters; resident lines are kept. *)

val reset_state : t -> unit
(** Invalidate every line, zero the counters and re-seed the [Random]
    replacement stream: the cache is then indistinguishable from a
    freshly created one. *)

val resident_lines : t -> int
(** Number of currently valid lines. *)
