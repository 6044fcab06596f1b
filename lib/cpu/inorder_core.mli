open Sp_vm

(** A simple in-order, blocking-cache timing model.

    The counterpart to {!Interval_core}: a scalar pipeline that issues
    one instruction per cycle, stalls for the full latency of whichever
    cache level serves each memory access, and pays the mispredict
    penalty on every wrong branch.  It exists to demonstrate (and test)
    that simulation-point selection is *model-independent*: the same
    regions that predict out-of-order CPI also predict in-order CPI,
    because SimPoint samples code signatures, not timing. *)

type t

val create : ?config:Core_config.t -> Program.t -> t

val hooks : t -> Hooks.t
(** The block-level hook set: the leader fetch on [on_block], each
    instruction's cycle and then its own data references on
    [on_block_mems] segments, the predictor on [on_branch]. *)

val cpi : t -> float
val cycles : t -> float
val instructions : t -> int

val set_warming : t -> bool -> unit
val reset_stats : t -> unit
val reset_state : t -> unit
