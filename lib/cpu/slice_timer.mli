open Sp_vm

(** Per-slice CPI of an {!Interval_core}: a CPI time series aligned
    with the BBV slicing, for the systematic-sampling comparison and
    time-varying-behaviour studies. *)

val cpis :
  ?tools:Hooks.t list ->
  ?fuel:int ->
  slice_len:int ->
  Interval_core.t ->
  Program.t ->
  float array
(** Run [prog] from its entry on a fresh machine, with the core's
    block-level {!Interval_core.hooks} and [tools] attached, until it
    halts or [fuel] instructions (default: no bound) have retired.  The
    run proceeds in [slice_len]-instruction legs, and the core's cycles
    are read between legs, so every slice is charged exactly its own
    instructions.  Returns the CPI of each slice in execution order; a
    trailing partial slice counts if it is at least half a slice long.
    @raise Invalid_argument if [slice_len <= 0]. *)
