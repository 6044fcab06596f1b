(** Architectural-state snapshots: the raw material of Pinballs.

    A snapshot captures everything the interpreter needs to resume an
    execution at an exact dynamic instruction count — registers, PC, call
    stack and the full (sparse) memory image.  Restoring yields a fresh
    machine that replays identically, independent of the machine the
    snapshot was taken from.

    Capture and restore each copy the memory image ({!Memory.copy}), so
    a snapshot shares nothing with any machine.  Restoring only reads
    the snapshot, so one snapshot can be restored concurrently from
    many domains. *)

type t

val capture : Interp.machine -> t
(** Counted by the [vm.snapshots] metric.  Costs a copy of the
    machine's memory image. *)

val restore : t -> Interp.machine
(** A fresh machine with its own copy of the snapshot's state, so a
    snapshot can be restored many times, including concurrently. *)

val icount : t -> int
(** Dynamic instruction count at capture time. *)

val pc : t -> int

val mem_bytes : t -> int
(** Size of the captured memory image. *)

(** {1 Serialisation (pinball format v2)} *)

val write : Buffer.t -> t -> unit
(** Deterministic encoding of the full architectural state. *)

val read : code_len:int -> Sp_util.Binio.reader -> t
(** Decode a snapshot written by {!write} for a program of [code_len]
    instructions, validating register-file sizes, the memory image, the
    call stack's depth ({!Interp.stack_depth}) and stack pointer, and
    that the pc and every live return address lie in [[0, code_len)].
    @raise Sp_util.Binio.Corrupt on malformed input. *)
