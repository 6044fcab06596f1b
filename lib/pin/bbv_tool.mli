open Sp_vm

(** Basic Block Vector collector (the SimPoint frontend).

    Splits the dynamic instruction stream into fixed-length slices and
    records, per slice, how many instructions retired inside each static
    basic block.  Vectors are kept sparse: a slice typically touches a
    handful of the program's blocks.

    Attribution is per retired instruction (equivalent to the classic
    entry-count x block-length weighting, but exact at slice boundaries,
    which slice mid-block). *)

type slice = {
  index : int;
  start_icount : int;  (** dynamic instruction count at slice start *)
  length : int;        (** retired instructions in the slice *)
  bbv : (int * int) array;
      (** (block id, instructions retired in block), sorted by block id *)
}

type t

val create : slice_len:int -> Program.t -> t
(** @raise Invalid_argument if [slice_len <= 0]. *)

val hooks : t -> Hooks.t
(** Block-level hooks ([Hooks.on_block_span] only, credited to the
    span's block), so a BBV-only run dispatches once per block entry.
    Slices are bit-identical whether retirements arrive per instruction
    or per block: block credit that crosses a slice boundary is split
    at the exact instruction. *)

val add : t -> int -> int -> unit
(** [add t bb n] credits [n] retirements of block [bb] directly — the
    callback behind {!hooks}, exposed so combined consumers
    ({!Profile_tool}) can feed the collector from their own hook
    without a second hook record in the chain.  Identical splitting
    behaviour at slice boundaries. *)

val finish : t -> unit
(** Close the trailing partial slice, if any.  Call after the run. *)

val slices : t -> slice array
(** All closed slices, in execution order. *)

val num_slices : t -> int
val slice_len : t -> int
