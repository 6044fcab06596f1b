(* Differential tests for the parallel warm-replay stage.

   The pipeline replays warm points as self-contained warm-prefixed
   regional pinballs with fresh per-point tool state
   (Pipeline.warm_replay_points); the pre-parallel implementation — one
   shared forward scan with shared warm tools reset at each window
   start — is kept below as [warm_replay_points_scan].  Random halting
   programs (counted Asm loops with randomised load/store/ALU/syscall
   bodies) are run through both over warmup windows that exercise every
   clamping edge: zero, tiny, larger than the first region's start
   (clamped to program start), and windows straddling recorded-input
   instructions.  Point statistics must match bit for bit, for any job
   count, and the stable metrics fingerprint must be identical across
   job counts. *)

open Specrepro
open Sp_pin
open Sp_pinball

(* ------------------------------------------------------------------ *)
(* Halting random workloads: an Asm counted loop with a randomised
   body, so the whole execution can be logged to completion and is
   long enough to carve warm points out of.  r5 is the loop counter
   and r15 the conventional zero register; bodies keep clear of both. *)

type body_op =
  | B_store of int * int (* src reg, byte offset *)
  | B_load of int * int (* dst reg, byte offset *)
  | B_advance of int (* bump the r1 pointer, masked *)
  | B_alu of Sp_isa.Isa.alu_op * int * int * int
  | B_sys of int * int (* channel, dst reg *)

let emit_body a ops =
  List.iter
    (fun op ->
      match op with
      | B_store (rv, off) -> Sp_vm.Asm.store a rv 1 off
      | B_load (rd, off) -> Sp_vm.Asm.load a rd 1 off
      | B_advance imm ->
          Sp_vm.Asm.alui a Sp_isa.Isa.Add 1 1 imm;
          Sp_vm.Asm.alui a Sp_isa.Isa.And 1 1 0xFFFF
      | B_alu (op, rd, r1, r2) -> Sp_vm.Asm.alu a op rd r1 r2
      | B_sys (ch, rd) -> Sp_vm.Asm.sys a ch rd)
    ops

let build_program ~iters ops =
  let a = Sp_vm.Asm.create ~name:"warm-fixture" () in
  Sp_vm.Asm.li a 1 0;
  Sp_vm.Asm.loop_down a ~counter:5 ~from:iters (fun () -> emit_body a ops);
  Sp_vm.Asm.halt a;
  Sp_vm.Asm.assemble a

let body_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun rv off -> B_store (rv, off * 8)) (2 -- 4) (0 -- 32));
        (3, map2 (fun rd off -> B_load (rd, off * 8)) (2 -- 4) (0 -- 32));
        (2, map (fun imm -> B_advance imm) (int_range 1 64));
        ( 2,
          map3
            (fun op rd (r1, r2) -> B_alu (op, rd, r1, r2))
            (oneofl [ Sp_isa.Isa.Add; Sp_isa.Isa.Sub; Sp_isa.Isa.Xor ])
            (2 -- 4)
            (pair (2 -- 4) (2 -- 4)) );
        (2, map2 (fun ch rd -> B_sys (ch, rd)) (0 -- 3) (6 -- 7));
      ])

(* a workload plus a point layout: (gap, length) pairs materialised
   against the logged execution's actual instruction total *)
let case_gen =
  QCheck.Gen.(
    triple (int_range 40 120)
      (list_size (1 -- 8) body_op_gen)
      (list_size (1 -- 4) (pair (0 -- 60) (5 -- 50))))

let points_of_spec total spec =
  let cursor = ref 0 and idx = ref 0 in
  List.filter_map
    (fun (gap, len) ->
      let start = !cursor + gap in
      if start + len > total then None
      else begin
        cursor := start + len;
        let i = !idx in
        incr idx;
        Some
          {
            Sp_simpoint.Simpoints.cluster = i;
            slice_index = i;
            start_icount = start;
            length = len;
            weight = 1.0 /. float_of_int (List.length spec);
          }
      end)
    spec

let options = { Pipeline.default_options with progress = false }

(* ------------------------------------------------------------------ *)
(* The reference: warm replay as the pipeline ran it before it went
   parallel — one shared forward scan with shared warm tools, reset at
   each window start (metric observation inside the loop so per-point
   cache metrics match the parallel path's).  Public APIs only. *)

let warm_replay_points_scan (options : Pipeline.options) ~warmup_insns
    (whole : Logger.whole) points =
  let prog = whole.Logger.pinball.Pinball.program in
  let warm_cache =
    Allcache_tool.create ~config:options.cache_config
      ~prefetch:options.next_line_prefetch prog
  in
  let warm_core = Sp_cpu.Interval_core.create ~config:options.core_config prog in
  let warm_hooks =
    [ Allcache_tool.hooks warm_cache; Sp_cpu.Interval_core.hooks warm_core ]
  in
  let acc = ref [] in
  let warmup =
    {
      Logger.length = warmup_insns;
      hooks = Sp_vm.Hooks.seq_all warm_hooks;
      on_start =
        (fun () ->
          Allcache_tool.reset_state warm_cache;
          Sp_cpu.Interval_core.reset_state warm_core;
          Allcache_tool.set_warming warm_cache true;
          Sp_cpu.Interval_core.set_warming warm_core true);
    }
  in
  Logger.scan_regions ~warmup whole points (fun pb ->
      Allcache_tool.set_warming warm_cache false;
      Sp_cpu.Interval_core.set_warming warm_core false;
      (* a zero-length window skips on_start: reset here instead *)
      if warmup_insns = 0 then begin
        Allcache_tool.reset_state warm_cache;
        Sp_cpu.Interval_core.reset_state warm_core
      end;
      let mixt = Ldstmix.create prog in
      let result =
        Replayer.replay ~tools:(Ldstmix.hooks mixt :: warm_hooks) pb
      in
      let cluster, weight =
        match pb.Pinball.kind with
        | Pinball.Region r -> (r.cluster, r.weight)
        | Pinball.Whole -> (-1, 1.0)
      in
      let cache_stats = Allcache_tool.stats warm_cache in
      Sp_cache.Hierarchy.observe_stats cache_stats;
      acc :=
        {
          Runstats.cluster;
          weight;
          insns = result.Replayer.retired;
          mix = Ldstmix.mix mixt;
          cache = cache_stats;
          cpi = Sp_cpu.Interval_core.cpi warm_core;
        }
        :: !acc);
  List.rev !acc

(* warmup windows covering every clamping edge: none, tiny, and one
   far larger than any region start (clamped against program start and
   the previous region's end); bodies emit Sys instructions, so the
   nonzero windows routinely straddle recorded inputs *)
let warmups = [ 0; 7; 10_000 ]

(* ------------------------------------------------------------------ *)
(* parallel pinball path ≡ shared-scan reference, and jobs-invariant *)

let prop_parallel_matches_scan =
  QCheck.Test.make ~name:"warm replay: parallel = scan reference, any jobs"
    ~count:60 (QCheck.make case_gen) (fun (iters, ops, spec) ->
      let prog = build_program ~iters ops in
      let whole = Logger.log_whole ~benchmark:"warm-diff" prog in
      let points =
        Array.of_list (points_of_spec whole.Logger.total_insns spec)
      in
      List.for_all
        (fun wu ->
          let scan =
            warm_replay_points_scan options ~warmup_insns:wu whole
              points
          in
          let par1 =
            Pipeline.warm_replay_points
              { options with jobs = 1 }
              ~warmup_insns:wu whole points
          in
          let par3 =
            Pipeline.warm_replay_points
              { options with jobs = 3 }
              ~warmup_insns:wu whole points
          in
          (* structural compare: bit-equal floats (and NaN-safe) *)
          Stdlib.compare scan par1 = 0 && Stdlib.compare par1 par3 = 0)
        warmups)

(* ------------------------------------------------------------------ *)
(* tool-level equivalence, including the TLB statistics that point
   stats do not surface: capture_warm_regions + replay_prefixed with
   per-point fresh tools vs scan_regions with shared reset tools *)

let fixture_ops =
  [
    B_store (2, 0);
    B_load (3, 64);
    B_advance 24;
    B_sys (1, 6);
    B_alu (Sp_isa.Isa.Xor, 4, 4, 6);
    B_store (4, 128);
  ]

let fixture_points specs =
  Array.of_list
    (List.mapi
       (fun i (start, len) ->
         {
           Sp_simpoint.Simpoints.cluster = i;
           slice_index = i;
           start_icount = start;
           length = len;
           weight = 0.5;
         })
       specs)

let test_tool_level_equivalence () =
  let prog = build_program ~iters:200 fixture_ops in
  let whole = Logger.log_whole ~benchmark:"warm-tlb" prog in
  let points = fixture_points [ (100, 80); (400, 120); (520, 60) ] in
  let wu = 150 in
  (* shared-scan reference *)
  let shared = Allcache_tool.create prog in
  let scan_stats = ref [] in
  let warmup =
    {
      Logger.length = wu;
      hooks = Sp_vm.Hooks.seq_all [ Allcache_tool.hooks shared ];
      on_start =
        (fun () ->
          Allcache_tool.reset_state shared;
          Allcache_tool.set_warming shared true);
    }
  in
  Logger.scan_regions ~warmup whole points (fun pb ->
      Allcache_tool.set_warming shared false;
      ignore (Replayer.replay ~tools:[ Allcache_tool.hooks shared ] pb);
      scan_stats :=
        ( Allcache_tool.stats shared,
          Allcache_tool.itlb_stats shared,
          Allcache_tool.dtlb_stats shared )
        :: !scan_stats);
  let scan_stats = List.rev !scan_stats in
  (* fresh per-point tools over the warm-prefixed pinballs *)
  let regions = Logger.capture_warm_regions ~warmup_insns:wu whole points in
  let fresh_stats =
    Array.to_list
      (Array.map
         (fun (wr : Logger.warm_region) ->
           let t = Allcache_tool.create prog in
           let hooks = [ Allcache_tool.hooks t ] in
           Allcache_tool.set_warming t true;
           ignore
             (Replayer.replay_prefixed ~prefix_tools:hooks ~tools:hooks
                ~prefix:wr.Logger.warm_prefix
                ~on_region:(fun () -> Allcache_tool.set_warming t false)
                wr.Logger.warm_pinball);
           ( Allcache_tool.stats t,
             Allcache_tool.itlb_stats t,
             Allcache_tool.dtlb_stats t ))
         regions)
  in
  Alcotest.(check int) "one result per point" (Array.length points)
    (List.length fresh_stats);
  Alcotest.(check bool) "hierarchy + TLB stats bit-identical" true
    (Stdlib.compare scan_stats fresh_stats = 0)

(* the warm prefix of the first point reaches before program start and
   must clamp to it; adjacent points leave no gap and must clamp to
   zero — both sides of the differential already cover this randomly,
   this pins the exact prefix lengths the capture computes *)
let test_capture_prefix_clamping () =
  let prog = build_program ~iters:100 fixture_ops in
  let whole = Logger.log_whole ~benchmark:"warm-clamp" prog in
  let points = fixture_points [ (40, 30); (70, 25) ] in
  let regions = Logger.capture_warm_regions ~warmup_insns:1_000 whole points in
  Alcotest.(check int) "first prefix clamps to program start" 40
    regions.(0).Logger.warm_prefix;
  Alcotest.(check int) "adjacent point clamps to zero" 0
    regions.(1).Logger.warm_prefix;
  let r0 = regions.(0).Logger.warm_pinball in
  Alcotest.(check (option int)) "pinball spans prefix + region" (Some 70)
    r0.Pinball.length

(* ------------------------------------------------------------------ *)
(* stable metrics are identical across job counts *)

let stable_fingerprint jobs =
  let prog = build_program ~iters:150 fixture_ops in
  let whole = Logger.log_whole ~benchmark:"warm-metrics" prog in
  let points = fixture_points [ (120, 90); (300, 110) ] in
  Sp_obs.Metrics.reset ();
  ignore
    (Pipeline.warm_replay_points
       { options with jobs }
       ~warmup_insns:123 whole points);
  let snap = Sp_obs.Metrics.stable_snapshot () in
  Sp_obs.Metrics.reset ();
  List.filter_map
    (fun (s : Sp_obs.Metrics.sample) ->
      match s.Sp_obs.Metrics.value with
      | Sp_obs.Metrics.Counter_value v -> Some (s.Sp_obs.Metrics.name, v)
      | _ -> None)
    snap

let test_stable_metrics_jobs_invariant () =
  let seq = stable_fingerprint 1 in
  let par = stable_fingerprint 3 in
  Alcotest.(check bool) "warm.points counted" true
    (List.assoc_opt "warm.points" seq = Some 2.0);
  Alcotest.(check bool) "some cache work counted" true
    (List.exists (fun (n, v) -> v > 0.0 && n <> "warm.points") seq);
  Alcotest.(check bool) "stable counters identical across jobs" true
    (seq = par)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parallel_matches_scan;
    Alcotest.test_case "tool-level equivalence (caches + TLBs)" `Quick
      test_tool_level_equivalence;
    Alcotest.test_case "capture prefix clamping" `Quick
      test_capture_prefix_clamping;
    Alcotest.test_case "stable metrics jobs-invariant" `Quick
      test_stable_metrics_jobs_invariant;
  ]
