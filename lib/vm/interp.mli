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

type engine =
  | Auto
      (** fastest tier the hook set admits: the compiled-block tier for
          nil and plain block-level sets, the block stepper when an
          [on_block_mems] consumer is live, the per-instruction engine
          when per-instruction hooks are. *)
  | Reference
      (** pin to the per-instruction loops — the engines the
          differential suites compare everything else against. *)
  | Block_step  (** pin to (at most) the block stepper. *)

val run :
  ?engine:engine ->
  ?hooks:Hooks.t ->
  ?syscall:(int -> int) ->
  ?fuel:int ->
  Program.t ->
  machine ->
  status
(** Execute until [Halt] or until [fuel] instructions have retired.

    [engine] (default [Auto]) caps which engine tier may run.  Pins
    exist for differential testing and benchmarking; they never change
    observable behaviour — every tier retires the same instruction
    stream, fires equivalent hook events and leaves bit-identical
    machine state for any fuel split — only how fast it happens.  A pin
    is a ceiling, not a demand: a hook set with per-instruction hooks
    keeps the per-instruction engine under any pin.

    Semantics notes: integer division/remainder by zero yields 0 (the
    machine never traps); shift counts are masked to 6 bits; call-stack
    depth is bounded (overflow raises [Stack_error]). *)

exception Stack_error of string

val stack_depth : int
(** Call-stack slots of every machine {!create} makes; a [Call] past
    this depth raises [Stack_error]. *)
