open Sp_isa

(** Executable program: instruction array plus the static basic-block
    structure the SimPoint methodology observes.

    Basic blocks are computed exactly as a binary-instrumentation engine
    would: a leader is the entry point, any static control-transfer
    target, or the instruction following a control transfer; a block runs
    from a leader to the next leader (exclusive) or a control
    instruction (inclusive). *)

type terminator = Fallthrough | Cond_branch | Jump | Call | Ret | Halt
(** How a block transfers control: the class of its final instruction,
    or [Fallthrough] when the block ends only because the next pc is a
    leader. *)

type block = {
  id : int;
  start_pc : int;
  len : int;  (** straight-line length in instructions *)
  term : terminator;
  kind_counts : int array;
      (** instructions of each [Isa.kind] in the block, indexed by kind
          code — block-level tools credit a whole block from this table
          instead of re-scanning its body *)
  fetch_base : int;
      (** byte address of the leader's instruction fetch
          ([code_base + start_pc * Isa.bytes_per_instr]) *)
  fetch_bytes : int;
      (** byte extent of the straight-line fetch stream
          ([len * Isa.bytes_per_instr]); with [fetch_base] this bounds
          the block's i-fetch line/page footprint for any power-of-two
          cache geometry by shifting the span endpoints *)
}

type t = private {
  name : string;
  instrs : Isa.instr array;
  kinds : int array;        (** [Isa.kind_code] per pc, for hot-loop dispatch *)
  bb_of_pc : int array;     (** enclosing block id per pc *)
  is_leader : bool array;   (** true at each block's first pc *)
  blocks : block array;
  block_end : int array;    (** exclusive end pc per block id, for the
                                interpreter's fuel tails and the span
                                tools *)
  max_block_len : int;      (** longest straight-line block body, in
                                instructions — sizes the interpreter's
                                segment buffers *)
  entry : int;
  code_base : int;          (** byte address of pc 0, for i-fetch addresses *)
}

val of_instrs : ?name:string -> ?entry:int -> ?code_base:int -> Isa.instr array -> t
(** Builds the program and its block table.
    @raise Invalid_argument if a static target is out of range or the
    instruction array is empty. *)

val num_blocks : t -> int

val fetch_addr : t -> int -> int
(** Instruction-fetch byte address of a pc. *)

val block_at : t -> int -> block
(** Block containing a pc. *)

val terminator_name : terminator -> string

val pp_listing : Format.formatter -> t -> unit
(** Disassembly listing with block boundaries, for debugging. *)

(** {1 Serialisation (pinball format v2)} *)

val write : Buffer.t -> t -> unit
(** Deterministic encoding of the constructor inputs (name,
    instructions, entry, code base); the block structure is derived, so
    it is not stored. *)

val read : Sp_util.Binio.reader -> t
(** Decode a program written by {!write}.  Opcodes, register numbers
    and static branch targets are all validated (the latter via
    {!of_instrs}).
    @raise Sp_util.Binio.Corrupt on malformed input. *)
