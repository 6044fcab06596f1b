open Sp_vm

type t = {
  target_pc : int;
  mutable count : int;
  mutable reached : int option;
}

let create ~target_pc = { target_pc; count = 0; reached = None }

(* A span names [n] consecutive pcs from [pc0], so the target retired in
   it exactly when it lies in [pc0, pc0 + n), after [target_pc - pc0]
   of the span's instructions. *)
let span t pc0 n =
  (match t.reached with
  | None when t.target_pc >= pc0 && t.target_pc < pc0 + n ->
      t.reached <- Some (t.count + (t.target_pc - pc0))
  | _ -> ());
  t.count <- t.count + n

let hooks t = { Hooks.nil with on_block_span = (fun pc0 n -> span t pc0 n) }

let reached_at t = t.reached
