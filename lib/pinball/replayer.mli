open Sp_vm

(** The replayer pintool: runs a pinball, optionally with tools
    attached, repeating the captured execution exactly. *)

exception Divergence of string
(** Raised when the replayed execution consumes non-deterministic inputs
    differently from the recorded ones — replay is supposed to be
    deterministic, so this signals a corrupted pinball or a bug. *)

type result = {
  status : Interp.status;
  retired : int;           (** instructions retired during the replay *)
  machine : Interp.machine; (** final machine state *)
}

val replay : ?tools:Hooks.t list -> Pinball.t -> result
(** Restore the snapshot and execute the pinball's interval with the
    recorded inputs injected. *)

val recorded_syscall : Pinball.t -> int -> int
(** A stateful handler that plays back the pinball's recorded inputs in
    order; raises {!Divergence} when the recording is exhausted.  Exposed
    for callers that drive the interpreter directly (e.g. the logger's
    fast-forward pass). *)
