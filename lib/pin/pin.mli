open Sp_vm

(** The instrumentation engine: runs a program with a set of pintools
    attached, mirroring how Pin launches a binary under tools.

    A pintool is any value exposing a {!Sp_vm.Hooks.t}; this module
    composes them and drives the interpreter.  The individual tools
    shipped with this library mirror the ones the paper uses from the
    Pin kit: {!Inscount}, {!Ldstmix}, {!Allcache_tool} and
    {!Bbv_tool}.  Like the kit's [inscount1], which counts per basic
    block rather than per instruction, every tool here reads block-level
    aggregates: retired spans, or data-reference segments.  Every run
    takes the same compiled engine; a segment consumer only makes it
    collect each block's data references. *)

type run = {
  status : Interp.status;
  retired : int;  (** instructions retired during this run *)
}

val run :
  ?tools:Hooks.t list ->
  ?syscall:(int -> int) ->
  ?fuel:int ->
  Program.t ->
  Interp.machine ->
  run
(** Execute [prog] on [machine] with all tools attached. *)

val run_fresh :
  ?tools:Hooks.t list ->
  ?syscall:(int -> int) ->
  ?fuel:int ->
  Program.t ->
  run
(** {!run} on a brand-new machine starting at the program entry. *)
