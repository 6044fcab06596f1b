(** The interpreter: executes a {!Program.t} against a machine state,
    firing {!Hooks.t} callbacks for instrumentation.

    Execution is resumable: [run] with a [fuel] bound leaves the machine
    at the next unexecuted instruction, so callers (slicers, regional
    replayers) can execute exact instruction intervals. *)

type machine = {
  regs : int array;       (** 16 integer registers; r15 is zero by convention *)
  fregs : float array;    (** 16 FP registers *)
  mutable pc : int;
  callstack : int array;
  mutable sp : int;       (** next free call-stack slot *)
  mem : Memory.t;
  mutable icount : int;   (** instructions retired since creation *)
}

type status =
  | Halted       (** executed a [Halt] *)
  | Out_of_fuel  (** fuel exhausted; machine is resumable *)

val create : ?mem:Memory.t -> entry:int -> unit -> machine
(** Fresh machine with zeroed registers, positioned at [entry]. *)

val default_syscall : int -> int
(** Deterministic syscall used when none is supplied: channel [n] returns
    a fixed hash of [n] — the "recorded input" of a default environment. *)

val run :
  ?hooks:Hooks.t ->
  ?syscall:(int -> int) ->
  ?fuel:int ->
  Program.t ->
  machine ->
  status
(** Execute until [Halt] or until [fuel] instructions have retired.

    Every hook set runs on the same engine: basic blocks compiled once
    per program into chained straight-line closures.  Hook events are
    block-level (see {!Hooks.t}) and independent of the fuel split: a
    run in fuel legs of one instruction delivers one single-instruction
    span and segment per leg, which is how a caller observes the
    machine between two retirements.

    The run's [vm.instructions], [vm.tlb_refills] and
    [vm.blocks_stepped] deltas are added whether it returns or raises
    (a [Stack_error], or an exception from [syscall]).

    Semantics notes: integer division/remainder by zero yields 0 (the
    machine never traps); shift counts are masked to 6 bits; call-stack
    depth is bounded (overflow raises [Stack_error]). *)

exception Stack_error of string

val stack_depth : int
(** Call-stack slots of every machine {!create} makes; a [Call] past
    this depth raises [Stack_error]. *)
