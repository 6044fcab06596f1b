open Sp_isa
open Sp_vm

(* A span counter: classification needs only each retired
   instruction's static kind, so the tool consumes the positional
   [on_block_span] aggregate and needs no data references — a replay
   under it alone stays on the compiled tier. *)

type t = {
  counts : int array; (* indexed by mem_class code *)
  kinds : int array; (* the program's kind code per pc *)
}

(* Per-kind memory class, precomputed so the hot loop is three array
   operations per instruction. *)
let class_of_kind =
  Array.init Isa.num_kinds (fun code ->
      match Isa.kind_of_code code with
      | K_load -> Isa.mem_class_code Mem_r
      | K_store -> Isa.mem_class_code Mem_w
      | K_movs -> Isa.mem_class_code Mem_rw
      | K_alu | K_mul | K_div | K_falu | K_fmul | K_fdiv | K_branch | K_jump
      | K_sys | K_halt ->
          Isa.mem_class_code No_mem)

let class_code_of_kind code = class_of_kind.(code)

let create (prog : Program.t) = { counts = Array.make 4 0; kinds = prog.kinds }

let span t pc0 n =
  let counts = t.counts in
  for pc = pc0 to pc0 + n - 1 do
    let c = Array.unsafe_get class_of_kind (Array.unsafe_get t.kinds pc) in
    Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
  done

let hooks t = { Hooks.nil with on_block_span = (fun pc0 n -> span t pc0 n) }

let count t cls = t.counts.(Isa.mem_class_code cls)

let total t = Array.fold_left ( + ) 0 t.counts

let mix t =
  Mix.of_counts ~no_mem:t.counts.(0) ~mem_r:t.counts.(1) ~mem_w:t.counts.(2)
    ~mem_rw:t.counts.(3)

let reset t = Array.fill t.counts 0 4 0
