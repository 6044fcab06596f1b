open Sp_vm

(** The PinPlay logger: creates Whole Pinballs by running a program
    while recording every non-deterministic input, and carves Regional
    Pinballs out of a Whole Pinball at simulation-point boundaries. *)

type whole = {
  pinball : Pinball.t;
  total_insns : int;    (** dynamic instruction count of the execution *)
}

val log_whole :
  ?syscall:(int -> int) -> ?extra_tools:Hooks.t list -> benchmark:string ->
  Program.t -> whole
(** Execute the program to completion from a fresh machine, recording
    inputs.  [extra_tools] lets callers profile (e.g. collect BBVs)
    during the same pass — logging is the slowest step of the paper's
    pipeline, so piggybacking avoids a second whole-program run. *)

type cursor
(** A {!walk}'s live machine, stopped inside one point's window. *)

val walk :
  warmup_insns:int ->
  whole ->
  Sp_simpoint.Simpoints.point array ->
  (int -> cursor -> unit) ->
  unit
(** The one scanning loop every region consumer runs on: a single
    forward replay of the whole pinball that visits the points in start
    order.  [f i c] is called for [points.(i)] with the machine stopped,
    after a hook-free fast-forward, at the point's warm-window start:
    {!warm_prefixes} before the point.  Within the visit [f] drives the
    machine forward with {!warm}, {!region} and {!measure}, in that
    order, each optional; whatever it leaves unrun is fast-forwarded
    before the next visit.  Nothing runs past the last visit, so a walk
    retires the furthest position its visits reach.
    @raise Invalid_argument before any visit if [warmup_insns] is
    negative, a point reaches beyond the execution, or points overlap. *)

val warm_prefixes :
  warmup_insns:int -> Sp_simpoint.Simpoints.point array -> int array
(** Each point's warm window, in the order given: [warmup_insns]
    clamped to the gap since the previous point's end in start order
    (and so to program start).
    @raise Invalid_argument if [warmup_insns] is negative or points
    overlap. *)

val warm : cursor -> Hooks.t -> unit
(** Run the rest of the warm window, up to the point's start, with the
    given hooks attached: the paper's Warmup Regional Run warms its
    caches over exactly these instructions. *)

val region : cursor -> Pinball.t
(** Snapshot the machine at the point's start (fast-forwarding any
    unrun warm window) as a self-contained Regional Pinball of the
    point's length. *)

val measure : cursor -> Hooks.t -> int
(** Run the point's region on the live machine with the given hooks
    attached and return the instructions it retired: the in-place
    equivalent of replaying {!region}'s pinball. *)

val capture_regions :
  whole -> Sp_simpoint.Simpoints.point array -> Pinball.t array
(** One Regional Pinball per point, in the order given: a {!walk} that
    snapshots each point's start. *)

type warm_region = {
  warm_prefix : int;
      (** warmup instructions at the front of [warm_pinball]: the
          walk's clamped window *)
  warm_pinball : Pinball.t;
      (** self-contained [(warmup, region)] pinball of length
          [warm_prefix + point.length], snapshotted [warm_prefix]
          instructions before the point; its recorded inputs cover the
          whole window, including inputs consumed inside the prefix *)
}

val capture_warm_regions :
  warmup_insns:int ->
  whole ->
  Sp_simpoint.Simpoints.point array ->
  warm_region array
(** Like {!capture_regions}, but each region is extended backwards over
    its clamped warm window: a {!walk} that snapshots each window start
    instead of each point's start.  Returns regions in the order given.
    @raise Invalid_argument as {!walk} does. *)
