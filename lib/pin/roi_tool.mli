open Sp_vm

(** Region-of-interest detection: records the dynamic instruction count
    at which execution first reaches a given pc.

    Real PinPoints runs often bracket the workload proper with SSC
    marks so initialisation is excluded from profiling; our benchmarks
    expose the equivalent boundary statically
    ({!Sp_workloads.Benchspec.built.roi_start_pc}), and this pintool
    turns it into a dynamic instruction offset during the profiling
    pass. *)

type t

val create : target_pc:int -> t

val hooks : t -> Hooks.t
(** A block-level set: a single {!Hooks.on_block_span} counter.  Each
    span names the pcs it retired, so the offset inside a block is
    exact however the run is batched. *)

val reached_at : t -> int option
(** Instruction count at first arrival (the count *before* the target
    instruction retires), or [None] if never reached. *)
