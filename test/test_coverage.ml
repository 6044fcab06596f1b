(* Coverage batch: printing paths, edge cases, resumption, RSS bounds,
   per-benchmark build sanity across the whole (43-workload) suite. *)

open Sp_vm

(* ------------------------------------------------------------------ *)
(* Pretty-printers and formatting *)

let test_scale_pp () =
  let s x = Format.asprintf "%a" Sp_util.Scale.pp_paper_insns x in
  Alcotest.(check string) "T" "6.9 T" (s 6.9e12);
  Alcotest.(check string) "B" "10.4 B" (s 10.4e9);
  Alcotest.(check string) "M" "30.0 M" (s 30e6);
  Alcotest.(check string) "raw" "512" (s 512.0)

let test_mix_pp () =
  let m = { Sp_pin.Mix.no_mem = 0.5; mem_r = 0.3; mem_w = 0.15; mem_rw = 0.05 } in
  let s = Format.asprintf "%a" Sp_pin.Mix.pp m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring_contains.contains s needle))
    [ "NO_MEM 50.0%"; "MEM_R 30.0%"; "MEM_RW 5.0%" ]

let test_hierarchy_pp () =
  let h = Sp_cache.Hierarchy.create Sp_cache.Config.allcache_sim in
  Sp_cache.Hierarchy.read h 0;
  let s = Format.asprintf "%a" Sp_cache.Hierarchy.pp_stats (Sp_cache.Hierarchy.stats h) in
  Alcotest.(check bool) "mentions L3" true (Astring_contains.contains s "L3")

let test_config_pp () =
  let s =
    Format.asprintf "%a" Sp_cache.Config.pp_hierarchy Sp_cache.Config.allcache_table1
  in
  Alcotest.(check bool) "direct-mapped" true
    (Astring_contains.contains s "direct-mapped")

let test_pinball_describe_region () =
  let prog = Program.of_instrs [| Sp_isa.Isa.Li (1, 1); Sp_isa.Isa.Halt |] in
  let whole = Sp_pinball.Logger.log_whole ~benchmark:"b" prog in
  let points =
    [|
      {
        Sp_simpoint.Simpoints.cluster = 3;
        slice_index = 0;
        start_icount = 0;
        length = 1;
        weight = 0.25;
      };
    |]
  in
  let regions = Sp_pinball.Logger.capture_regions whole points in
  let s = Sp_pinball.Pinball.describe regions.(0) in
  Alcotest.(check bool) "has cluster and weight" true
    (Astring_contains.contains s "region3" && Astring_contains.contains s "0.25")

let test_store_filename () =
  let prog = Program.of_instrs [| Sp_isa.Isa.Halt |] in
  let whole = Sp_pinball.Logger.log_whole ~benchmark:"605.mcf_s" prog in
  Alcotest.(check string) "whole name" "605.mcf_s.whole.pb"
    (Sp_pinball.Store.filename whole.Sp_pinball.Logger.pinball)

(* ------------------------------------------------------------------ *)
(* Asm growth and program size *)

let test_asm_grows () =
  let a = Asm.create () in
  for i = 0 to 999 do
    Asm.li a (i mod 12) i
  done;
  Asm.halt a;
  let p = Asm.assemble a in
  Alcotest.(check int) "all instructions kept" 1001
    (Array.length p.Program.instrs)

let test_pin_run_resumes () =
  let a = Asm.create () in
  Asm.li a 1 1000;
  let top = Asm.here a in
  Asm.alui a Sub 1 1 1;
  Asm.branch a Gt 1 15 top;
  Asm.halt a;
  let prog = Asm.assemble a in
  let machine = Interp.create ~entry:0 () in
  let c = Sp_pin.Inscount.create prog in
  let r1 = Sp_pin.Pin.run ~tools:[ Sp_pin.Inscount.hooks c ] ~fuel:100 prog machine in
  Alcotest.(check bool) "paused" true (r1.Sp_pin.Pin.status = Interp.Out_of_fuel);
  Alcotest.(check int) "first chunk" 100 r1.Sp_pin.Pin.retired;
  let r2 = Sp_pin.Pin.run ~tools:[ Sp_pin.Inscount.hooks c ] prog machine in
  Alcotest.(check bool) "finished" true (r2.Sp_pin.Pin.status = Interp.Halted);
  Alcotest.(check int) "tool saw both chunks"
    (r1.Sp_pin.Pin.retired + r2.Sp_pin.Pin.retired)
    (Sp_pin.Inscount.total c)

(* ------------------------------------------------------------------ *)
(* K-means corner cases *)

let test_kmeans_duplicates () =
  (* more clusters than distinct points: empty-cluster repair must not
     loop or crash, and distortion must be 0 *)
  let points = Array.make 10 [| 1.0; 2.0 |] in
  let r = Sp_simpoint.Kmeans.fit ~k:4 points in
  Alcotest.(check (float 1e-12)) "zero distortion" 0.0 r.Sp_simpoint.Kmeans.distortion;
  Alcotest.(check int) "everything assigned" 10
    (Array.fold_left ( + ) 0 r.Sp_simpoint.Kmeans.sizes)

let test_bic_flat_range () =
  (* equal scores at every k: pick the smallest k *)
  Alcotest.(check int) "flat" 2
    (Sp_simpoint.Bic.pick_k ~threshold:0.9 [ (5, 1.0); (2, 1.0); (9, 1.0) ])

let test_variance_config_passthrough () =
  let slices =
    Array.init 60 (fun i ->
        {
          Sp_pin.Bbv_tool.index = i;
          start_icount = i * 100;
          length = 100;
          bbv = [| (i mod 3, 100) |];
        })
  in
  let v = Sp_simpoint.Variance.at_k ~k:3 slices in
  Alcotest.(check int) "k respected" 3 v.Sp_simpoint.Variance.k;
  Alcotest.(check (float 1e-9)) "clean separation" 0.0 v.Sp_simpoint.Variance.avg_variance

(* ------------------------------------------------------------------ *)
(* Memory bounds: capped fills keep resident memory proportional *)

let test_fill_cap_bounds_rss () =
  (* an Xlarge stream phase must not materialise its full span *)
  let k = Sp_workloads.Kernel.stream_sum in
  let p =
    Sp_workloads.Kernel.normalize
      { Sp_workloads.Kernel.base = 0x100000; elems = 1_000_000; stride = 1;
        chunk = 64; seed = 5 }
  in
  let a = Asm.create () in
  Asm.li a 15 0;
  let rtl = Sp_workloads.Rtl.emit a in
  k.Sp_workloads.Kernel.emit_init a rtl p;
  Asm.halt a;
  let prog = Asm.assemble a in
  let m = Interp.create ~entry:prog.Program.entry () in
  ignore (Interp.run ~fuel:5_000_000 prog m);
  (* the 8 MB span must not be fully resident: only the capped fill *)
  Alcotest.(check bool) "resident bounded by the cap" true
    (Memory.footprint_bytes m.Interp.mem < 2 * 65536 * 8)

(* ------------------------------------------------------------------ *)
(* Whole-suite build sanity: all 43 workloads assemble with consistent
   metadata (cheap: no execution) *)

let test_full_suite_builds () =
  List.iter
    (fun (spec : Sp_workloads.Benchspec.t) ->
      let built = Sp_workloads.Benchspec.build ~slices_scale:0.01 spec in
      let prog = built.Sp_workloads.Benchspec.program in
      Alcotest.(check bool)
        (spec.Sp_workloads.Benchspec.name ^ " has phases")
        true
        (Array.length built.Sp_workloads.Benchspec.phases
        = spec.Sp_workloads.Benchspec.planted_phases);
      Alcotest.(check bool)
        (spec.Sp_workloads.Benchspec.name ^ " nontrivial program")
        true
        (Array.length prog.Program.instrs > 50);
      (* weights sum to 1 *)
      let wsum =
        Array.fold_left
          (fun acc (p : Sp_workloads.Benchspec.phase) -> acc +. p.weight)
          0.0 built.Sp_workloads.Benchspec.phases
      in
      Alcotest.(check bool)
        (spec.Sp_workloads.Benchspec.name ^ " weights sum")
        true
        (Float.abs (wsum -. 1.0) < 1e-6))
    Sp_workloads.Suite.full

let test_run_suite_subset () =
  let options =
    {
      Specrepro.Pipeline.default_options with
      slices_scale = 0.02;
      collect_variance = false;
      progress = false;
    }
  in
  let specs =
    [ Sp_workloads.Suite.find "620.omnetpp_s"; Sp_workloads.Suite.find "648.exchange2_s" ]
  in
  let results = Specrepro.Pipeline.run_suite ~options ~specs () in
  Alcotest.(check int) "two results" 2 (List.length results);
  List.iter
    (fun (r : Specrepro.Pipeline.bench_result) ->
      Alcotest.(check bool) "reduced_warm aggregates" true
        ((Specrepro.Pipeline.reduced_warm r).Specrepro.Runstats.cpi > 0.0))
    results

(* ------------------------------------------------------------------ *)
(* Recursion depth determinism *)

let test_recursion_depth_bounds () =
  for seed = 0 to 20 do
    let p =
      Sp_workloads.Kernel.normalize
        { Sp_workloads.Kernel.base = 0x1000; elems = 64; stride = 1; chunk = 4;
          seed }
    in
    let cost = Sp_workloads.Kernel.recursive_calls.Sp_workloads.Kernel.body_insns p in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d cost bounded (%.0f)" seed cost)
      true
      (cost > 100.0 && cost < 20_000.0)
  done

(* ------------------------------------------------------------------ *)
(* Program text format *)

let test_progtext_roundtrip () =
  let spec = Sp_workloads.Suite.find "620.omnetpp_s" in
  let built = Sp_workloads.Benchspec.build ~slices_scale:0.01 spec in
  let prog = built.Sp_workloads.Benchspec.program in
  match Sp_vm.Progtext.parse (Sp_vm.Progtext.print prog) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      Alcotest.(check int) "same length"
        (Array.length prog.Program.instrs)
        (Array.length parsed.Program.instrs);
      Alcotest.(check bool) "same instructions" true
        (prog.Program.instrs = parsed.Program.instrs);
      (* the reparsed program executes identically *)
      let run p =
        let m = Interp.create ~entry:p.Program.entry () in
        ignore (Interp.run ~fuel:300_000 p m);
        (m.Interp.icount, Array.copy m.Interp.regs)
      in
      Alcotest.(check bool) "same execution" true (run prog = run parsed)

let test_progtext_errors () =
  (match Sp_vm.Progtext.parse "li r1, 5\nbogus stuff\nhalt" with
  | Error e ->
      Alcotest.(check bool) "line number" true
        (Astring_contains.contains e "line 2")
  | Ok _ -> Alcotest.fail "expected error");
  (match Sp_vm.Progtext.parse "# only comments\n\n" with
  | Error e -> Alcotest.(check string) "empty" "empty program" e
  | Ok _ -> Alcotest.fail "expected error");
  (match Sp_vm.Progtext.parse "jmp @5\nhalt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected out-of-range error")

let test_progtext_comments () =
  match Sp_vm.Progtext.parse "  li r1, 2 # two\n# note\n\nhalt" with
  | Error e -> Alcotest.fail e
  | Ok p -> Alcotest.(check int) "two instrs" 2 (Array.length p.Program.instrs)

let suite =
  [
    Alcotest.test_case "scale pp" `Quick test_scale_pp;
    Alcotest.test_case "mix pp" `Quick test_mix_pp;
    Alcotest.test_case "hierarchy pp" `Quick test_hierarchy_pp;
    Alcotest.test_case "config pp" `Quick test_config_pp;
    Alcotest.test_case "pinball describe" `Quick test_pinball_describe_region;
    Alcotest.test_case "store filename" `Quick test_store_filename;
    Alcotest.test_case "asm grows" `Quick test_asm_grows;
    Alcotest.test_case "pin run resumes" `Quick test_pin_run_resumes;
    Alcotest.test_case "kmeans duplicates" `Quick test_kmeans_duplicates;
    Alcotest.test_case "bic flat range" `Quick test_bic_flat_range;
    Alcotest.test_case "variance passthrough" `Quick test_variance_config_passthrough;
    Alcotest.test_case "fill cap bounds RSS" `Quick test_fill_cap_bounds_rss;
    Alcotest.test_case "full suite builds" `Quick test_full_suite_builds;
    Alcotest.test_case "run_suite subset" `Quick test_run_suite_subset;
    Alcotest.test_case "recursion depth bounds" `Quick test_recursion_depth_bounds;
    Alcotest.test_case "progtext roundtrip" `Quick test_progtext_roundtrip;
    Alcotest.test_case "progtext errors" `Quick test_progtext_errors;
    Alcotest.test_case "progtext comments" `Quick test_progtext_comments;
  ]
