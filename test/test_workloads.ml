(* Tests for Sp_workloads: kernels, weights, schedules, benchmark
   construction, the suite registry. *)

open Sp_vm
open Sp_workloads

(* Wrap a single kernel into a runnable program: init + [calls] body
   invocations. *)
let kernel_program (k : Kernel.t) params ~calls =
  let p = Kernel.normalize params in
  let a = Asm.create ~name:k.Kernel.name () in
  Asm.li a 15 0;
  let rtl = Rtl.emit a in
  k.Kernel.emit_init a rtl p;
  let fn = Asm.new_label a in
  Asm.li a 12 calls;
  let top = Asm.here a in
  Asm.call a fn;
  Asm.alui a Sub 12 12 1;
  Asm.branch a Gt 12 15 top;
  Asm.halt a;
  Asm.place a fn;
  k.Kernel.emit_body a p;
  Asm.ret a;
  (Asm.assemble a, p)

let base_params =
  { Kernel.base = 0x10_0000; elems = 256; stride = 1; chunk = 32; seed = 99 }

let test_every_kernel_runs () =
  List.iter
    (fun (k : Kernel.t) ->
      let prog, _ = kernel_program k base_params ~calls:5 in
      let m = Interp.create ~entry:prog.Program.entry () in
      let status = Interp.run ~fuel:2_000_000 prog m in
      Alcotest.(check bool) (k.Kernel.name ^ " halts") true (status = Interp.Halted);
      Alcotest.(check int) (k.Kernel.name ^ " preserves r15") 0 m.Interp.regs.(15))
    Kernel.all

let test_kernel_cost_model () =
  List.iter
    (fun (k : Kernel.t) ->
      let calls = 10 in
      let prog, p = kernel_program k base_params ~calls in
      (* measure one call by subtracting the init+driver overhead of a
         zero-extra-calls run *)
      let run calls =
        let prog, _ = kernel_program k base_params ~calls in
        let m = Interp.create ~entry:prog.Program.entry () in
        ignore (Interp.run ~fuel:5_000_000 prog m);
        m.Interp.icount
      in
      ignore prog;
      let per_call = float_of_int (run (calls * 2) - run calls) /. float_of_int calls in
      let model = k.Kernel.body_insns p +. 4.0 (* call + ret + dec + branch *) in
      let err = Float.abs (per_call -. model) /. per_call in
      (* kernels flagged for calibration only need a ballpark estimate:
         the builder measures their true cost *)
      let bound = if k.Kernel.calibrate then 0.6 else 0.25 in
      Alcotest.(check bool)
        (Printf.sprintf "%s cost model within %.0f%%%% (measured %.1f, model %.1f)"
           k.Kernel.name (bound *. 100.) per_call model)
        true (err < bound))
    Kernel.all

let test_kernel_mem_classes () =
  (* kernels advertised as FP must issue FP work; integer ones not *)
  List.iter
    (fun (k : Kernel.t) ->
      let prog, _ = kernel_program k base_params ~calls:3 in
      let counter = Sp_pin.Inscount.create prog in
      ignore
        (Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Inscount.hooks counter ] prog);
      let fp =
        Sp_pin.Inscount.by_kind counter Sp_isa.Isa.K_falu
        + Sp_pin.Inscount.by_kind counter Sp_isa.Isa.K_fmul
        + Sp_pin.Inscount.by_kind counter Sp_isa.Isa.K_fdiv
      in
      if k.Kernel.is_fp then
        Alcotest.(check bool) (k.Kernel.name ^ " uses FP") true (fp > 0)
      else
        Alcotest.(check bool) (k.Kernel.name ^ " is integer") true (fp = 0))
    Kernel.all

(* [f a] for each data read's byte address, in retirement order *)
let on_reads f =
  {
    Hooks.nil with
    on_block_mems =
      (fun _ _ _ addrs nrefs ->
        for r = 0 to nrefs - 1 do
          let v = addrs.(r) in
          if v land 1 = 0 then f (v asr 1)
        done);
  }

let test_pointer_chase_is_ring () =
  (* the chase must traverse the whole power-of-two ring, not collapse *)
  let k = Kernel.pointer_chase in
  let p = Kernel.normalize { base_params with Kernel.stride = 4; chunk = 600 } in
  let prog, p = kernel_program k p ~calls:1 in
  let distinct = Hashtbl.create 64 in
  let hooks =
    on_reads (fun a ->
        if a >= p.Kernel.base && a < Kernel.state_addr p then
          Hashtbl.replace distinct a ())
  in
  let m = Interp.create ~entry:prog.Program.entry () in
  ignore (Interp.run ~hooks ~fuel:1_000_000 prog m);
  Alcotest.(check int) "full ring visited" 256 (Hashtbl.length distinct)

let test_state_persistence () =
  (* stream_sum's cursor advances across calls: consecutive calls touch
     different addresses *)
  let k = Kernel.stream_sum in
  let p = Kernel.normalize { base_params with Kernel.elems = 4096; chunk = 16 } in
  let prog, p = kernel_program k p ~calls:2 in
  let reads = ref [] in
  let hooks =
    on_reads (fun a ->
        if a >= p.Kernel.base && a < Kernel.state_addr p then
          reads := a :: !reads)
  in
  let m = Interp.create ~entry:prog.Program.entry () in
  ignore (Interp.run ~hooks ~fuel:100_000 prog m);
  let distinct = List.sort_uniq compare !reads in
  (* two calls x 16 items, no wrap on 4096 elems: all addresses distinct *)
  Alcotest.(check int) "cursor advanced across calls" 32 (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Weights *)

let test_weights_fit_table2 () =
  List.iter
    (fun (name, n, n90) ->
      let w = Weights.fit ~n ~n90 in
      Alcotest.(check int) (name ^ " length") n (Array.length w);
      Alcotest.(check (float 1e-9)) (name ^ " sums to 1") 1.0 (Sp_util.Stats.sum w);
      Array.iter
        (fun x ->
          Alcotest.(check bool) (name ^ " floor") true (x >= Weights.min_weight *. 0.9))
        w;
      let got = Weights.coverage_count w 0.9 in
      Alcotest.(check bool)
        (Printf.sprintf "%s n90: wanted %d got %d" name n90 got)
        true
        (abs (got - n90) <= 1))
    Suite.table2_reference

let test_weights_explicit () =
  let w = Weights.explicit [ 3.0; 1.0 ] in
  Alcotest.(check (float 1e-9)) "normalised" 0.75 w.(0);
  (try
     ignore (Weights.explicit []);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_coverage_count () =
  Alcotest.(check int) "simple" 2
    (Weights.coverage_count [| 0.5; 0.4; 0.1 |] 0.9);
  Alcotest.(check int) "unsorted input" 2
    (Weights.coverage_count [| 0.1; 0.5; 0.4 |] 0.9)

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_schedule () =
  let weights = Weights.fit ~n:5 ~n90:3 in
  let segs = Schedule.make ~seed:3 ~total_slices:1000 ~weights in
  (* every phase appears; per-phase slices roughly match weights *)
  let total = Schedule.total segs in
  Alcotest.(check bool) "total close" true (abs (total - 1000) < 20);
  Array.iteri
    (fun i w ->
      let s = Schedule.slices_of_phase segs i in
      Alcotest.(check bool)
        (Printf.sprintf "phase %d share" i)
        true
        (Float.abs (float_of_int s -. (w *. 1000.0)) < 10.0);
      let nsegs =
        List.length (List.filter (fun (x : Schedule.segment) -> x.phase = i) segs)
      in
      Alcotest.(check bool) "segments bounded" true
        (nsegs >= 1 && nsegs <= Schedule.max_segments))
    weights

let test_schedule_deterministic () =
  let weights = Weights.fit ~n:4 ~n90:2 in
  let a = Schedule.make ~seed:9 ~total_slices:300 ~weights in
  let b = Schedule.make ~seed:9 ~total_slices:300 ~weights in
  Alcotest.(check bool) "same" true (a = b);
  let c = Schedule.make ~seed:10 ~total_slices:300 ~weights in
  Alcotest.(check bool) "order differs across seeds" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Benchspec / Suite *)

let test_build_runs_to_halt () =
  let spec = Suite.find "620.omnetpp_s" in
  let built = Benchspec.build ~slices_scale:0.02 spec in
  let prog = built.Benchspec.program in
  let m = Interp.create ~entry:prog.Program.entry () in
  let status = Interp.run ~fuel:20_000_000 prog m in
  Alcotest.(check bool) "halts" true (status = Interp.Halted);
  let actual = float_of_int m.Interp.icount in
  let err = Float.abs (actual -. built.Benchspec.expected_insns) /. actual in
  Alcotest.(check bool)
    (Printf.sprintf "expected_insns within 15%% (actual %.0f, model %.0f)"
       actual built.Benchspec.expected_insns)
    true (err < 0.15)

let test_build_r15_invariant () =
  let spec = Suite.find "648.exchange2_s" in
  let built = Benchspec.build ~slices_scale:0.02 spec in
  let prog = built.Benchspec.program in
  let m = Interp.create ~entry:prog.Program.entry () in
  let violations = ref 0 in
  (* fuel legs of one instruction: r15 is checked before every
     retirement *)
  let rec step left =
    if m.Interp.regs.(15) <> 0 then incr violations;
    if left > 0 && Interp.run ~fuel:1 prog m = Interp.Out_of_fuel then
      step (left - 1)
  in
  step 2_000_000;
  Alcotest.(check int) "r15 always zero" 0 !violations

let test_phase_of_pc () =
  let spec = Suite.find "505.mcf_r" in
  let built = Benchspec.build ~slices_scale:0.02 spec in
  let covered = Array.make (Array.length built.Benchspec.phases) false in
  Array.iter
    (fun ph -> if ph >= 0 then covered.(ph) <- true)
    built.Benchspec.phase_of_pc;
  Array.iteri
    (fun i c -> Alcotest.(check bool) (Printf.sprintf "phase %d has code" i) true c)
    covered

let test_build_validation () =
  let spec = Suite.find "505.mcf_r" in
  (try
     ignore (Benchspec.build { spec with Benchspec.planted_n90 = 0 });
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_extended_suite () =
  Alcotest.(check int) "14 extended" 14 (List.length Suite.extended);
  Alcotest.(check int) "43 total" 43 (List.length Suite.full);
  Alcotest.(check string) "find extended" "628.pop2_s"
    (Suite.find "pop2_s").Benchspec.name;
  (* every extended workload builds and runs to completion *)
  List.iter
    (fun spec ->
      let built = Benchspec.build ~slices_scale:0.005 spec in
      let prog = built.Benchspec.program in
      let m = Interp.create ~entry:prog.Program.entry () in
      let status = Interp.run ~fuel:10_000_000 prog m in
      Alcotest.(check bool) (spec.Benchspec.name ^ " halts") true
        (status = Interp.Halted))
    Suite.extended

let test_suite_registry () =
  Alcotest.(check int) "29 benchmarks" 29 (List.length Suite.all);
  let names = Suite.names in
  Alcotest.(check int) "unique names"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check string) "find by full name" "505.mcf_r"
    (Suite.find "505.mcf_r").Benchspec.name;
  Alcotest.(check string) "find by short name" "505.mcf_r"
    (Suite.find "mcf_r").Benchspec.name;
  (try
     ignore (Suite.find "no_such_bench");
     Alcotest.fail "expected Not_found"
   with Not_found -> ());
  Alcotest.(check int) "INT suite size" 19 (List.length Suite.int_benchmarks);
  Alcotest.(check int) "FP suite size" 10 (List.length Suite.fp_benchmarks)

let test_table2_reference_consistent () =
  List.iter2
    (fun (name, points, n90) (spec : Benchspec.t) ->
      Alcotest.(check string) "name" spec.Benchspec.name name;
      Alcotest.(check int) "points" spec.Benchspec.planted_phases points;
      Alcotest.(check int) "n90" spec.Benchspec.planted_n90 n90;
      Alcotest.(check bool) "n90 <= points" true (n90 <= points))
    Suite.table2_reference Suite.all

let test_footprints_fit_scaled_hierarchy () =
  let l2 = Sp_cache.Config.allcache_sim.Sp_cache.Config.l2.size_bytes in
  let l3 = Sp_cache.Config.allcache_sim.Sp_cache.Config.l3.size_bytes in
  Alcotest.(check bool) "Medium < L2" true
    (Benchspec.footprint_bytes Benchspec.Medium < l2);
  Alcotest.(check bool) "Large in (L2, L3)" true
    (Benchspec.footprint_bytes Benchspec.Large > l2
    && Benchspec.footprint_bytes Benchspec.Large < l3);
  Alcotest.(check bool) "Xlarge > L3" true
    (Benchspec.footprint_bytes Benchspec.Xlarge > l3)

let suite =
  [
    Alcotest.test_case "every kernel runs" `Quick test_every_kernel_runs;
    Alcotest.test_case "kernel cost model" `Quick test_kernel_cost_model;
    Alcotest.test_case "kernel FP classes" `Quick test_kernel_mem_classes;
    Alcotest.test_case "pointer chase ring" `Quick test_pointer_chase_is_ring;
    Alcotest.test_case "kernel state persistence" `Quick test_state_persistence;
    Alcotest.test_case "weights fit Table II" `Quick test_weights_fit_table2;
    Alcotest.test_case "weights explicit" `Quick test_weights_explicit;
    Alcotest.test_case "coverage count" `Quick test_coverage_count;
    Alcotest.test_case "schedule" `Quick test_schedule;
    Alcotest.test_case "schedule deterministic" `Quick test_schedule_deterministic;
    Alcotest.test_case "build runs to halt" `Quick test_build_runs_to_halt;
    Alcotest.test_case "r15 invariant" `Quick test_build_r15_invariant;
    Alcotest.test_case "phase_of_pc coverage" `Quick test_phase_of_pc;
    Alcotest.test_case "build validation" `Quick test_build_validation;
    Alcotest.test_case "extended suite" `Quick test_extended_suite;
    Alcotest.test_case "suite registry" `Quick test_suite_registry;
    Alcotest.test_case "table2 reference" `Quick test_table2_reference_consistent;
    Alcotest.test_case "footprints vs scaled caches" `Quick
      test_footprints_fit_scaled_hierarchy;
  ]
