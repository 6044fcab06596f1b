open Sp_isa
open Sp_vm

(* A span counter, like [Ldstmix]: each retired instruction's kind is
   read from the static program, so the tool never needs a callback
   per retirement. *)

type t = {
  counts : int array; (* indexed by kind code *)
  kinds : int array; (* the program's kind code per pc *)
  mutable total : int;
}

let create (prog : Program.t) =
  { counts = Array.make Isa.num_kinds 0; kinds = prog.kinds; total = 0 }

let span t pc0 n =
  let counts = t.counts in
  for pc = pc0 to pc0 + n - 1 do
    let k = Array.unsafe_get t.kinds pc in
    Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
  done;
  t.total <- t.total + n

let hooks t = { Hooks.nil with on_block_span = (fun pc0 n -> span t pc0 n) }

let total t = t.total
let by_kind t k = t.counts.(Isa.kind_code k)

let reset t =
  t.total <- 0;
  Array.fill t.counts 0 (Array.length t.counts) 0
