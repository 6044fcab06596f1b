open Sp_vm

(** Execution-trace export/import.

    Writes the instrumented event stream in a simple line-oriented text
    format, so regions (or whole runs) can be fed to external trace
    consumers — the role Pin trace-logger tools play in practice — and
    read back for analysis.

    Format, one event per line:
    {v
    I <pc> <kind-code>     retired instruction
    R <address>            memory read (decimal byte address)
    W <address>            memory write
    B <pc> <0|1>           conditional branch (taken flag)
    L <block-id>           basic-block entry
    X <block-id> <n>       n instructions of the block retired
    v}
    The writer emits one [X bb 1] line and one [I] line per retired
    instruction, then that instruction's [R]/[W] lines; [L] precedes a
    block's first instruction and [B] follows its terminator. *)

type event =
  | Instr of int * int
  | Read of int
  | Write of int
  | Branch of int * bool
  | Block of int
  | Block_exec of int * int

module Writer : sig
  type t

  val create : ?limit:int -> out_channel -> t
  (** Stop recording after [limit] events (unlimited by default); the
      channel is not closed by this module. *)

  val hooks : t -> Program.t -> Hooks.t
  (** Write the events of a run of the given program.  A block-level
      set: the lines are rebuilt from [on_block], the
      [on_block_mems] segments and [on_branch], with kinds and blocks
      read from the program. *)

  val events_written : t -> int

  val truncated : t -> bool
  (** True if the limit cut the stream short. *)
end

module Reader : sig
  val fold : in_channel -> init:'a -> f:('a -> event -> 'a) -> 'a
  (** Fold over all events.
      @raise Failure on a malformed line. *)

  val read_all : in_channel -> event list
end
