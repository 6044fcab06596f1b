open Sp_vm

(** A bounded execution tracer (the [logger]-as-debugging-aid use of
    Pin): keeps the most recent events in a ring buffer.  Used by tests
    and for post-mortem inspection of kernels; heavyweight full-trace
    logging is the business of {!Sp_pinball.Logger}. *)

type event =
  | Instr of { pc : int; kind : Sp_isa.Isa.kind }
  | Read of int
  | Write of int
  | Branch of { pc : int; taken : bool }
  | Block of int
  | Block_exec of { bb : int; len : int }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the number of most-recent events retained
    (default 4096). *)

val hooks : t -> Program.t -> Hooks.t
(** Record the events of a run of the given program; [Block_exec]
    names the block of each retired span. *)

val events : t -> event list
(** Oldest first. *)

val total_events : t -> int
(** Count of all events observed, including evicted ones. *)

val clear : t -> unit
