(* Tests for Sp_pin: the instrumentation engine and pintools. *)

open Sp_isa
open Sp_vm
open Sp_pin

(* a program with a known static mix: per loop iteration
   1 load + 1 store + 1 movs + 3 alu + 1 branch *)
let mix_program ~iters =
  let a = Asm.create () in
  Asm.li a 1 0x1000;
  Asm.li a 2 0x2000;
  Asm.li a 3 iters;
  let top = Asm.here a in
  Asm.load a 4 1 0;
  Asm.store a 4 2 0;
  Asm.movs a 2 1;
  Asm.alui a Add 1 1 8;
  Asm.alui a Add 2 2 8;
  Asm.alui a Sub 3 3 1;
  Asm.branch a Gt 3 15 top;
  Asm.halt a;
  Asm.assemble a

let test_inscount () =
  let prog = mix_program ~iters:10 in
  let tool = Inscount.create () in
  let run = Pin.run_fresh ~tools:[ Inscount.hooks tool ] prog in
  Alcotest.(check int) "total = retired" run.Pin.retired (Inscount.total tool);
  Alcotest.(check int) "loads" 10 (Inscount.by_kind tool Isa.K_load);
  Alcotest.(check int) "stores" 10 (Inscount.by_kind tool Isa.K_store);
  Alcotest.(check int) "movs" 10 (Inscount.by_kind tool Isa.K_movs);
  Alcotest.(check int) "branches" 10 (Inscount.by_kind tool Isa.K_branch);
  Inscount.reset tool;
  Alcotest.(check int) "reset" 0 (Inscount.total tool)

let test_ldstmix () =
  let prog = mix_program ~iters:50 in
  let tool = Ldstmix.create prog in
  let run = Pin.run_fresh ~tools:[ Ldstmix.hooks tool ] prog in
  Alcotest.(check int) "MEM_R" 50 (Ldstmix.count tool Isa.Mem_r);
  Alcotest.(check int) "MEM_W" 50 (Ldstmix.count tool Isa.Mem_w);
  Alcotest.(check int) "MEM_RW" 50 (Ldstmix.count tool Isa.Mem_rw);
  Alcotest.(check int) "total" run.Pin.retired (Ldstmix.total tool);
  let m = Ldstmix.mix tool in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0
    (m.Mix.no_mem +. m.Mix.mem_r +. m.Mix.mem_w +. m.Mix.mem_rw)

let test_mix_weighted () =
  let a = { Mix.no_mem = 1.0; mem_r = 0.0; mem_w = 0.0; mem_rw = 0.0 } in
  let b = { Mix.no_mem = 0.0; mem_r = 1.0; mem_w = 0.0; mem_rw = 0.0 } in
  let w = Mix.weighted [ (3.0, a); (1.0, b) ] in
  Alcotest.(check (float 1e-9)) "no_mem" 0.75 w.Mix.no_mem;
  Alcotest.(check (float 1e-9)) "mem_r" 0.25 w.Mix.mem_r;
  Alcotest.(check (float 1e-9)) "l1 distance" 2.0 (Mix.l1_distance a b);
  Alcotest.(check (float 1e-9)) "max err pp" 100.0
    (Mix.max_abs_error_pp ~reference:a b)

let test_mix_of_counts_zero () =
  let z = Mix.of_counts ~no_mem:0 ~mem_r:0 ~mem_w:0 ~mem_rw:0 in
  Alcotest.(check (float 0.0)) "zero" 0.0 z.Mix.no_mem

let test_allcache_tool () =
  let prog = mix_program ~iters:100 in
  let tool =
    Allcache_tool.create ~config:Sp_cache.Config.allcache_sim prog
  in
  ignore (Pin.run_fresh ~tools:[ Allcache_tool.hooks tool ] prog);
  let s = Allcache_tool.stats tool in
  Alcotest.(check bool) "L1I saw fetches" true (s.Sp_cache.Hierarchy.l1i.accesses > 0);
  (* loop touches a small footprint: data L1 should mostly hit *)
  Alcotest.(check bool) "L1D accessed" true (s.Sp_cache.Hierarchy.l1d.accesses > 300);
  Alcotest.(check bool) "L1D miss rate low" true
    (s.Sp_cache.Hierarchy.l1d.miss_rate < 0.2)

let test_bbv_tool_slices () =
  let prog = mix_program ~iters:200 in
  let bbv = Bbv_tool.create ~slice_len:100 prog in
  let run = Pin.run_fresh ~tools:[ Bbv_tool.hooks bbv ] prog in
  Bbv_tool.finish bbv;
  let slices = Bbv_tool.slices bbv in
  Alcotest.(check int) "slice count" (Bbv_tool.num_slices bbv)
    (Array.length slices);
  (* every slice's bbv mass equals its length; starts are contiguous *)
  let total = ref 0 in
  Array.iteri
    (fun i (s : Bbv_tool.slice) ->
      Alcotest.(check int) "contiguous" !total s.Bbv_tool.start_icount;
      Alcotest.(check int) "index" i s.Bbv_tool.index;
      let mass = Array.fold_left (fun acc (_, c) -> acc + c) 0 s.Bbv_tool.bbv in
      Alcotest.(check int) "mass = length" s.Bbv_tool.length mass;
      if i < Array.length slices - 1 then
        Alcotest.(check int) "full slice" 100 s.Bbv_tool.length;
      total := !total + s.Bbv_tool.length)
    slices;
  Alcotest.(check int) "total = retired" run.Pin.retired !total

let test_bbv_deterministic () =
  let prog = mix_program ~iters:120 in
  let collect () =
    let bbv = Bbv_tool.create ~slice_len:64 prog in
    ignore (Pin.run_fresh ~tools:[ Bbv_tool.hooks bbv ] prog);
    Bbv_tool.finish bbv;
    Bbv_tool.slices bbv
  in
  Alcotest.(check bool) "identical reruns" true (collect () = collect ())

let test_multi_tool_composition () =
  let prog = mix_program ~iters:30 in
  let c1 = Inscount.create () and c2 = Inscount.create () in
  let run =
    Pin.run_fresh ~tools:[ Inscount.hooks c1; Inscount.hooks c2 ] prog
  in
  Alcotest.(check int) "both tools saw all" (Inscount.total c1)
    (Inscount.total c2);
  Alcotest.(check int) "= retired" run.Pin.retired (Inscount.total c1)

let suite =
  [
    Alcotest.test_case "inscount" `Quick test_inscount;
    Alcotest.test_case "ldstmix" `Quick test_ldstmix;
    Alcotest.test_case "mix weighted" `Quick test_mix_weighted;
    Alcotest.test_case "mix zero counts" `Quick test_mix_of_counts_zero;
    Alcotest.test_case "allcache tool" `Quick test_allcache_tool;
    Alcotest.test_case "bbv slices" `Quick test_bbv_tool_slices;
    Alcotest.test_case "bbv deterministic" `Quick test_bbv_deterministic;
    Alcotest.test_case "multi-tool composition" `Quick test_multi_tool_composition;
  ]
