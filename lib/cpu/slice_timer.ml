open Sp_vm

type t = {
  slice_len : int;
  core : Interval_core.t;
  mutable count : int;
  mutable last_cycles : float;
  mutable cpis : float list;  (* reversed *)
  mutable n : int;
}

let create ~slice_len core =
  if slice_len <= 0 then invalid_arg "Slice_timer.create";
  { slice_len; core; count = 0; last_cycles = 0.0; cpis = []; n = 0 }

let close t len =
  let c = Interval_core.cycles t.core in
  t.cpis <- ((c -. t.last_cycles) /. float_of_int len) :: t.cpis;
  t.n <- t.n + 1;
  t.last_cycles <- c;
  t.count <- 0

(* The core's per-instruction set runs first, so a slice boundary reads
   [cycles] with the closing instruction already charged.  The
   block-level set would charge it only after the instruction's
   [on_instr] — one instruction late. *)
let hooks t =
  Hooks.seq
    (Interval_core.hooks_per_instr t.core)
    {
      Hooks.nil with
      on_instr =
        (fun _pc _kind ->
          t.count <- t.count + 1;
          if t.count >= t.slice_len then close t t.slice_len);
    }

let finish t = if t.count >= t.slice_len / 2 then close t t.count

let slice_cpis t = Array.of_list (List.rev t.cpis)

let num_slices t = t.n
