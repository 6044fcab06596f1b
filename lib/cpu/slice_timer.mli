open Sp_vm

(** Per-slice CPI recording on top of an {!Interval_core}.

    The timer snapshots the core's cycle counter at every slice
    boundary, yielding a CPI time-series aligned with the BBV slicing.
    Used by the systematic-sampling comparison and available for
    time-varying-behaviour studies. *)

type t

val create : slice_len:int -> Interval_core.t -> t

val hooks : t -> Hooks.t
(** Drives the core too: the set is the core's
    {!Interval_core.hooks_per_instr} followed by the timer, so attach
    it {e instead of} the core's own hooks.  A boundary must read
    [cycles] between two retirements, which only the per-instruction
    core keeps current; the block-level {!Interval_core.hooks} would
    shift every boundary by one instruction. *)

val finish : t -> unit
(** Close the trailing partial slice (if at least half a slice long). *)

val slice_cpis : t -> float array
(** CPI of each completed slice, in execution order. *)

val num_slices : t -> int
