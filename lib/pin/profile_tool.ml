open Sp_isa
open Sp_vm

(* The streaming single-pass profiler: BBV + ldst-mix + instruction-mix
   from one replay.  Everything derives from the positional
   [on_block_span] aggregate — each span names [n] consecutive retired
   instructions starting at a static pc, so block attribution (BBV) and
   per-kind classification (imix, and from it the memory-class mix)
   both come from the static program.  The set has no segment
   consumer, so the run stays on the compiled tier unless another tool
   brings one. *)

type t = {
  bbv : Bbv_tool.t;
  bb_of_pc : int array;
  is_leader : bool array;
  block_end : int array;
  blocks : Program.block array;
  kinds : int array;
  kind_counts : int array; (* per Isa.kind code, whole run *)
  mutable total : int;
}

let create ~slice_len (prog : Program.t) =
  {
    bbv = Bbv_tool.create ~slice_len prog;
    bb_of_pc = prog.bb_of_pc;
    is_leader = prog.is_leader;
    block_end = prog.block_end;
    blocks = prog.blocks;
    kinds = prog.kinds;
    kind_counts = Array.make Isa.num_kinds 0;
    total = 0;
  }

let span t pc0 n =
  let bb = Array.unsafe_get t.bb_of_pc pc0 in
  Bbv_tool.add t.bbv bb n;
  t.total <- t.total + n;
  let kc = t.kind_counts in
  if
    n >= Isa.num_kinds
    && Array.unsafe_get t.is_leader pc0
    && pc0 + n = Array.unsafe_get t.block_end bb
  then begin
    (* whole block, long enough that the precomputed per-block kind
       table beats scanning the body *)
    let bkc = (Array.unsafe_get t.blocks bb).Program.kind_counts in
    for k = 0 to Isa.num_kinds - 1 do
      Array.unsafe_set kc k (Array.unsafe_get kc k + Array.unsafe_get bkc k)
    done
  end
  else
    for pc = pc0 to pc0 + n - 1 do
      let k = Array.unsafe_get t.kinds pc in
      Array.unsafe_set kc k (Array.unsafe_get kc k + 1)
    done

let hooks t = { Hooks.nil with on_block_span = (fun pc0 n -> span t pc0 n) }

let finish t = Bbv_tool.finish t.bbv

let slices t = Bbv_tool.slices t.bbv

let num_slices t = Bbv_tool.num_slices t.bbv

let total t = t.total

let by_kind t k = t.kind_counts.(Isa.kind_code k)

let kind_count t code = t.kind_counts.(code)

(* Memory-class totals fold the per-kind counts through the same static
   classification [Ldstmix] applies per retirement, so the class counts
   — and the [Mix.of_counts] fractions built from them — are bit-equal
   to a dedicated ldstmix replay. *)
let ldst_counts_of_kind_counts kc =
  let cls = Array.make 4 0 in
  Array.iteri
    (fun k c ->
      let ci = Ldstmix.class_code_of_kind k in
      cls.(ci) <- cls.(ci) + c)
    kc;
  cls

let ldst_counts t = ldst_counts_of_kind_counts t.kind_counts

let ldst_count t c = (ldst_counts t).(Isa.mem_class_code c)

let ldst_mix_of_kind_counts kc =
  let c = ldst_counts_of_kind_counts kc in
  Mix.of_counts ~no_mem:c.(0) ~mem_r:c.(1) ~mem_w:c.(2) ~mem_rw:c.(3)

let ldst_mix t = ldst_mix_of_kind_counts t.kind_counts

let kind_counts t = Array.copy t.kind_counts
