open Sp_vm

(** The streaming single-pass profiler: one replay produces the BBV
    slices of {!Bbv_tool}, the memory-operand mix of {!Ldstmix} and the
    per-kind instruction mix of {!Inscount} — bit-identical to running
    the three dedicated tools in three separate replays.

    Everything derives from the positional {!Hooks.on_block_span}
    aggregate: a span names [n] consecutive retired instructions
    starting at a static pc, so block attribution and per-kind
    classification both read the static program.  With no segment
    consumer, the run collects no data references.

    The pipeline selects this tool automatically when a stage wants
    more than one profile from the same replay; single-profile callers
    keep the dedicated tools.  Additional profilers that can consume
    spans (e.g. a future memory-access-vector collector) compose the
    same way: seq their hooks into the same run rather than adding a
    replay. *)

type t

val create : slice_len:int -> Program.t -> t
(** @raise Invalid_argument if [slice_len <= 0]. *)

val hooks : t -> Hooks.t
(** Block-level hooks ([Hooks.on_block_span] only). *)

val finish : t -> unit
(** Close the trailing partial BBV slice, if any.  Call after the run. *)

val slices : t -> Bbv_tool.slice array
(** BBV slices, bit-identical to a dedicated {!Bbv_tool} replay. *)

val num_slices : t -> int

val total : t -> int
(** Retired instructions seen, as {!Inscount.total}. *)

val by_kind : t -> Sp_isa.Isa.kind -> int
(** Per-kind dynamic count, as {!Inscount.by_kind}. *)

val kind_count : t -> int -> int
(** Same, indexed by [Isa.kind_code]. *)

val kind_counts : t -> int array
(** A copy of the whole per-kind count vector (indexed by
    [Isa.kind_code]) — the raw material persisted by the pipeline's
    profile-result cache. *)

val ldst_count : t -> Sp_isa.Isa.mem_class -> int
(** Memory-class dynamic count, as {!Ldstmix.count}. *)

val ldst_mix : t -> Mix.t
(** Memory-operand distribution, bit-identical to a dedicated
    {!Ldstmix} replay ({!Ldstmix.mix}). *)

val ldst_mix_of_kind_counts : int array -> Mix.t
(** {!ldst_mix} recomputed from a persisted per-kind count vector
    ({!kind_counts}) — the same static classification fold, so the
    result is bit-identical to the mix of the tool that produced the
    counts. *)
