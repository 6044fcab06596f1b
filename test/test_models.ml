(* Tests for the in-order model, multicore/rate substrates, charts and
   the CPI-stack/model experiments. *)

open Sp_vm

let alu_loop ~iters =
  let a = Asm.create () in
  Asm.li a 1 iters;
  let top = Asm.here a in
  Asm.alui a Add 2 2 3;
  Asm.alui a Sub 1 1 1;
  Asm.branch a Gt 1 15 top;
  Asm.halt a;
  Asm.assemble a

let load_loop ~iters =
  let a = Asm.create () in
  Asm.li a 1 iters;
  Asm.li a 3 0x100000;
  let top = Asm.here a in
  Asm.load a 2 3 0;
  Asm.alui a Add 3 3 4096;
  (* new page/line every time: misses everywhere *)
  Asm.alui a Sub 1 1 1;
  Asm.branch a Gt 1 15 top;
  Asm.halt a;
  Asm.assemble a

(* ------------------------------------------------------------------ *)
(* In-order core *)

let inorder_cpi prog =
  let core = Sp_cpu.Inorder_core.create prog in
  let m = Interp.create ~entry:prog.Program.entry () in
  ignore (Interp.run ~hooks:(Sp_cpu.Inorder_core.hooks core) prog m);
  Sp_cpu.Inorder_core.cpi core

let ooo_cpi prog =
  let core = Sp_cpu.Interval_core.create prog in
  let m = Interp.create ~entry:prog.Program.entry () in
  ignore (Interp.run ~hooks:(Sp_cpu.Interval_core.hooks core) prog m);
  Sp_cpu.Interval_core.cpi core

let test_inorder_vs_ooo () =
  let prog = alu_loop ~iters:5000 in
  let ino = inorder_cpi prog and ooo = ooo_cpi prog in
  Alcotest.(check bool)
    (Printf.sprintf "in-order (%.2f) slower than OoO (%.2f)" ino ooo)
    true (ino > ooo);
  Alcotest.(check bool) "in-order at least 1 CPI" true (ino >= 1.0)

let test_inorder_memory_stalls () =
  let compute = inorder_cpi (alu_loop ~iters:3000) in
  let memory = inorder_cpi (load_loop ~iters:3000) in
  Alcotest.(check bool)
    (Printf.sprintf "memory-bound (%.1f) much slower than compute (%.1f)"
       memory compute)
    true
    (memory > 5.0 *. compute)

let test_inorder_warming () =
  let prog = alu_loop ~iters:1000 in
  let core = Sp_cpu.Inorder_core.create prog in
  Sp_cpu.Inorder_core.set_warming core true;
  let m = Interp.create ~entry:prog.Program.entry () in
  ignore (Interp.run ~hooks:(Sp_cpu.Inorder_core.hooks core) ~fuel:500 prog m);
  Alcotest.(check int) "warming uncounted" 0 (Sp_cpu.Inorder_core.instructions core);
  Sp_cpu.Inorder_core.set_warming core false;
  ignore (Interp.run ~hooks:(Sp_cpu.Inorder_core.hooks core) ~fuel:100 prog m);
  Alcotest.(check int) "counted after" 100 (Sp_cpu.Inorder_core.instructions core)

(* ------------------------------------------------------------------ *)
(* Multicore *)

let test_multicore_runs_all () =
  let p1 = alu_loop ~iters:2000 and p2 = alu_loop ~iters:100 in
  let mc = Multicore.create [ (p1, Hooks.nil); (p2, Hooks.nil) ] in
  Multicore.run ~quantum:64 mc;
  let halted = Multicore.halted mc in
  Alcotest.(check bool) "both halted" true (halted.(0) && halted.(1));
  let retired = Multicore.retired mc in
  Alcotest.(check bool) "core0 ran longer" true (retired.(0) > retired.(1))

let test_multicore_interleaves () =
  (* with a small quantum, both cores make progress before either
     finishes *)
  let order = ref [] in
  let tag i =
    { Hooks.nil with on_block_span = (fun _ _ -> order := i :: !order) }
  in
  let mc =
    Multicore.create
      [ (alu_loop ~iters:500, tag 0); (alu_loop ~iters:500, tag 1) ]
  in
  Multicore.run ~quantum:10 mc;
  let seen_switch =
    let rec go = function
      | a :: (b :: _ as rest) -> a <> b || go rest
      | _ -> false
    in
    go (List.rev !order)
  in
  Alcotest.(check bool) "interleaved" true seen_switch

let test_multicore_fuel () =
  let mc = Multicore.create [ (alu_loop ~iters:1_000_000, Hooks.nil) ] in
  Multicore.run ~quantum:100 ~fuel:5000 mc;
  Alcotest.(check int) "fuel respected" 5000 (Multicore.retired mc).(0);
  Alcotest.(check bool) "not halted" true (not (Multicore.halted mc).(0))

let test_multicore_isolation () =
  (* same program on two cores: identical final register state, and
     memory writes do not leak between cores *)
  let prog = load_loop ~iters:100 in
  let mc = Multicore.create [ (prog, Hooks.nil); (prog, Hooks.nil) ] in
  Multicore.run ~quantum:7 mc;
  let m0 = Multicore.machine mc 0 and m1 = Multicore.machine mc 1 in
  Alcotest.(check bool) "same registers" true (m0.Interp.regs = m1.Interp.regs);
  Alcotest.(check bool) "distinct memories" true (m0.Interp.mem != m1.Interp.mem)

(* ------------------------------------------------------------------ *)
(* Shared hierarchy *)

let shared_cfg =
  {
    Sp_cache.Config.l1i =
      Sp_cache.Config.level ~name:"i" ~size_kb:1 ~assoc:2 ~line_bytes:32;
    l1d = Sp_cache.Config.level ~name:"d" ~size_kb:1 ~assoc:2 ~line_bytes:32;
    l2 = Sp_cache.Config.level ~name:"2" ~size_kb:2 ~assoc:1 ~line_bytes:32;
    l3 = Sp_cache.Config.level ~name:"3" ~size_kb:4 ~assoc:1 ~line_bytes:32;
  }

let test_shared_l3_interference () =
  let open Sp_cache in
  (* one core streaming 4 kB fits the shared L3 alone... *)
  let solo = Shared_hierarchy.create ~cores:1 shared_cfg in
  for pass = 1 to 4 do
    ignore pass;
    for i = 0 to 127 do
      Shared_hierarchy.read solo ~core:0 (i * 32)
    done
  done;
  let s1 = Shared_hierarchy.core_stats solo 0 in
  (* ...but two cores with the same footprint thrash it *)
  let duo = Shared_hierarchy.create ~cores:2 shared_cfg in
  for pass = 1 to 4 do
    ignore pass;
    for i = 0 to 127 do
      Shared_hierarchy.read duo ~core:0 (i * 32);
      Shared_hierarchy.read duo ~core:1 (i * 32)
    done
  done;
  let s2 = Shared_hierarchy.core_stats duo 0 in
  let rate (s : Shared_hierarchy.core_stats) =
    float_of_int s.Shared_hierarchy.l3_misses
    /. float_of_int (max 1 s.Shared_hierarchy.l3_accesses)
  in
  Alcotest.(check bool)
    (Printf.sprintf "solo %.2f < shared %.2f" (rate s1) (rate s2))
    true
    (rate s1 < rate s2);
  (* cores see disjoint addresses: core 1's lines never hit core 0's *)
  let l3 = Shared_hierarchy.shared_l3 duo in
  Alcotest.(check bool) "both cores reached L3" true
    (l3.Sp_cache.Hierarchy.accesses
    = s2.Shared_hierarchy.l3_accesses
      + (Shared_hierarchy.core_stats duo 1).Shared_hierarchy.l3_accesses)

(* ------------------------------------------------------------------ *)
(* Charts *)

let test_chart_bar () =
  let s = Sp_util.Chart.bar ~width:10 [ ("a", 10.0); ("bb", 5.0); ("c", 0.0) ] in
  Alcotest.(check bool) "a full bar" true
    (Astring_contains.contains s "##########");
  Alcotest.(check bool) "labels aligned" true (Astring_contains.contains s "bb |");
  Alcotest.(check bool) "zero is empty" true (Astring_contains.contains s "c  |  0")

let test_chart_series () =
  let s =
    Sp_util.Chart.series ~height:5 ~width:20 ~labels:[ "up"; "down" ]
      [ [| 0.0; 1.0; 2.0; 3.0 |]; [| 3.0; 2.0; 1.0; 0.0 |] ]
  in
  Alcotest.(check bool) "legend" true (Astring_contains.contains s "*=up");
  Alcotest.(check bool) "second glyph" true (Astring_contains.contains s "o=down");
  (try
     ignore (Sp_util.Chart.series ~labels:[ "x" ] []);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Experiment smoke tests (tiny scale) *)

let tiny_options =
  {
    Specrepro.Pipeline.default_options with
    slices_scale = 0.02;
    collect_variance = false;
    progress = false;
  }

let test_models_smoke () =
  let t =
    Specrepro.Experiments.models ~options:tiny_options
      ~specs:[ Sp_workloads.Suite.find "620.omnetpp_s" ] ()
  in
  let s = Sp_util.Table.render t in
  Alcotest.(check bool) "row present" true
    (Astring_contains.contains s "620.omnetpp_s")

let test_rate_smoke () =
  let t =
    Specrepro.Experiments.rate ~options:tiny_options
      ~specs:[ Sp_workloads.Suite.find "620.omnetpp_s" ]
      ~copies:2 ()
  in
  let s = Sp_util.Table.render t in
  Alcotest.(check bool) "row present" true
    (Astring_contains.contains s "620.omnetpp_s")

let test_sampling_smoke () =
  let t =
    Specrepro.Experiments.sampling ~options:tiny_options
      ~specs:[ Sp_workloads.Suite.find "620.omnetpp_s" ] ()
  in
  Alcotest.(check bool) "renders" true
    (String.length (Sp_util.Table.render t) > 0)

let test_smarts_smoke () =
  let t =
    Specrepro.Experiments.smarts ~options:tiny_options
      ~specs:[ Sp_workloads.Suite.find "620.omnetpp_s" ]
      ~period:10 ()
  in
  Alcotest.(check bool) "renders" true
    (Astring_contains.contains (Sp_util.Table.render t) "620.omnetpp_s")

let test_timevary_smoke () =
  let s =
    Specrepro.Experiments.timevary ~options:tiny_options
      ~specs:[ Sp_workloads.Suite.find "620.omnetpp_s" ] ()
  in
  Alcotest.(check bool) "chart rendered" true
    (Astring_contains.contains s "CPI per slice")

let test_statcache_smoke () =
  let t =
    Specrepro.Experiments.statcache ~options:tiny_options
      ~specs:[ Sp_workloads.Suite.find "620.omnetpp_s" ] ()
  in
  Alcotest.(check bool) "renders" true
    (String.length (Sp_util.Table.render t) > 0)

let suite =
  [
    Alcotest.test_case "inorder vs ooo" `Quick test_inorder_vs_ooo;
    Alcotest.test_case "inorder memory stalls" `Quick test_inorder_memory_stalls;
    Alcotest.test_case "inorder warming" `Quick test_inorder_warming;
    Alcotest.test_case "multicore runs all" `Quick test_multicore_runs_all;
    Alcotest.test_case "multicore interleaves" `Quick test_multicore_interleaves;
    Alcotest.test_case "multicore fuel" `Quick test_multicore_fuel;
    Alcotest.test_case "multicore isolation" `Quick test_multicore_isolation;
    Alcotest.test_case "shared L3 interference" `Quick test_shared_l3_interference;
    Alcotest.test_case "chart bar" `Quick test_chart_bar;
    Alcotest.test_case "chart series" `Quick test_chart_series;
    Alcotest.test_case "models smoke" `Quick test_models_smoke;
    Alcotest.test_case "rate smoke" `Quick test_rate_smoke;
    Alcotest.test_case "sampling smoke" `Quick test_sampling_smoke;
    Alcotest.test_case "statcache smoke" `Quick test_statcache_smoke;
    Alcotest.test_case "timevary smoke" `Quick test_timevary_smoke;
    Alcotest.test_case "smarts smoke" `Quick test_smarts_smoke;
  ]
