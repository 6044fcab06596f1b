open Sp_vm

(** The [inscount] pintool: dynamic instruction counting, overall and
    per micro-operation kind, counted per retired span the way the Pin
    kit's [inscount1] counts per basic block. *)

type t

val create : Program.t -> t
(** The program supplies each pc's static kind, from which retired
    spans are counted. *)

val hooks : t -> Hooks.t
(** A block-level set: a single {!Hooks.on_block_span} counter. *)

val total : t -> int
val by_kind : t -> Sp_isa.Isa.kind -> int
val reset : t -> unit
