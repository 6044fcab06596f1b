(** Instrumentation hooks: the VM-side half of the Pin-style API.

    The interpreter invokes these callbacks while executing; the
    {!Sp_pin} framework builds hook records out of pintools.  Every
    callback is block-level: the engines fire it per basic-block entry,
    not per retired instruction, and a tool recovers each retired
    instruction from the aggregates.  Callbacks are plain (non-labelled)
    closures so the dispatch cost stays at one indirect call each. *)

type t = {
  on_block : int -> unit;
      (** block id, at entry (through the leader) to each dynamic basic
          block *)
  on_block_span : int -> int -> unit;
      (** [pc0, n]: [n] consecutive instructions starting at pc [pc0]
          retired, all in block [prog.bb_of_pc.(pc0)].  An aggregate:
          spans partition the retirement stream exactly, but how it is
          batched depends on the run — at most one span per block entry,
          truncated at a fuel boundary and started mid-block on resume,
          so a run in fuel legs of one instruction sees [n = 1] spans.
          Tools must be insensitive to the batching: counters by block
          (BBV collection), or classifiers that read each retired
          instruction's pc, kind or memory class from the static
          program.  Every engine tier and every fuel split then produce
          bit-identical results. *)
  on_block_mems : int -> int -> int array -> int array -> int -> unit;
      (** [pc0, n, offs, addrs, nrefs]: an aggregate of [n] consecutive
          retired instructions starting at [pc0], carrying all of their
          data references at once.  [offs.(r)] (for [r < nrefs]) is the
          instruction index of reference [r] relative to [pc0], in
          retirement order; [addrs.(r)] encodes its byte address [a] and
          direction as [(a lsl 1) lor w] with [w = 1] for a write
          ([a = addrs.(r) asr 1] recovers the address).  Segments
          partition the retirement stream exactly — the block stepper
          delivers at most one segment per block entry, splitting around
          [Sys] instructions so a raising syscall handler still observes
          every earlier reference, and always before the block's
          [on_branch].  The arrays are reused between calls: callbacks
          must consume them before returning and only read the first
          [nrefs] entries. *)
  on_branch : int -> bool -> unit;
      (** [pc, taken] for every conditional branch *)
}

val nil : t
(** No-op hooks; the interpreter runs at full speed. *)

val is_nil : t -> bool
(** [is_nil h] is true when every callback of [h] is a no-op.  All
    constructors in this module preserve the no-op sentinels, so the
    interpreter can test this once per run and skip hook dispatch in
    its inner loop entirely. *)

val has_block_mems : t -> bool
(** True when the [on_block_mems] aggregate is live; such a set runs on
    the block stepper, which collects each block's references. *)

val seq_all : t list -> t
(** Run every hook set, in list order.  The chain is flattened: each
    callback field dispatches through one flat closure over the live
    (non-no-op) callbacks rather than a tree of nested pair closures. *)
