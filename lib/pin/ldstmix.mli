open Sp_vm

(** The [ldstmix] pintool: classifies every retired instruction by its
    memory-operand pattern (NO_MEM / MEM_R / MEM_W / MEM_RW) and reports
    the distribution.  This is the instruction-mix instrument behind
    Figures 3 and 7 of the paper. *)

type t

val class_code_of_kind : int -> int
(** [Isa.mem_class_code] of an instruction's memory-operand class,
    indexed by [Isa.kind_code] — the static classification behind this
    tool, exposed so combined consumers ({!Profile_tool}) reproduce its
    counts bit-for-bit from per-kind totals. *)

val create : Program.t -> t
(** The program supplies each pc's static kind, from which retired
    spans are classified. *)

val hooks : t -> Hooks.t
(** A single {!Hooks.on_block_span} counter: with no segment consumer
    beside it, a run collects no data references. *)

val count : t -> Sp_isa.Isa.mem_class -> int
val total : t -> int

val mix : t -> Mix.t
(** Current distribution as fractions. *)

val reset : t -> unit
