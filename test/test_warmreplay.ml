(* Differential tests for the replay walk.

   The pipeline replays every point in one forward walk of the whole
   pinball (Logger.walk): each point's warm tools warm in place over
   its clamped window, and its region runs once on the live machine
   under those and under a cold set reset at the region start.  No
   region is snapshotted; the only cold replays of region snapshots
   left are the references here, rebuilt from public APIs:
   - warm: the shared scan the pipeline once ran, one set of warm tools
     reset at each window start ([warm_replay_points_scan]);
   - cold: the two paths cold replay took before the walk, a streaming
     scan ([cold_scan]) and a capture of every region followed by one
     replay per region ([cold_capture]).
   Random halting programs (counted Asm loops with randomised
   load/store/ALU/syscall bodies) run through all of them over warmup
   windows that exercise every clamping edge: zero, tiny, larger than
   the first region's start (clamped to program start), and windows
   straddling recorded-input instructions.  Point statistics must match
   bit for bit at any job count, and so must the stable metrics
   fingerprint; on a warm profile cache a whole benchmark retires
   exactly its walk and snapshots nothing. *)

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
(* The warm reference: one shared forward scan with shared warm tools,
   reset at each window start (metric observation inside the loop so
   per-point cache metrics match the walk's).  Public APIs only. *)

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
      Scan_ref.length = warmup_insns;
      hooks = Sp_vm.Hooks.seq_all warm_hooks;
      on_start =
        (fun () ->
          Allcache_tool.reset_state warm_cache;
          Sp_cpu.Interval_core.reset_state warm_core;
          Allcache_tool.set_warming warm_cache true;
          Sp_cpu.Interval_core.set_warming warm_core true);
    }
  in
  Scan_ref.scan_regions ~warmup whole points (fun pb ->
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

(* The cold references: one Regional replay under fresh tools, and the
   two ways the pipeline fed it regions before the walk, in start order:
   streaming ([Scan_ref.scan_regions], at most one region live) and
   capture-then-replay ([Logger.capture_regions]). *)
let cold_replay (options : Pipeline.options) (pb : Pinball.t) =
  let prog = pb.Pinball.program in
  let mixt = Ldstmix.create prog in
  let cache =
    Allcache_tool.create ~config:options.cache_config
      ~prefetch:options.next_line_prefetch prog
  in
  let core = Sp_cpu.Interval_core.create ~config:options.core_config prog in
  let result =
    Replayer.replay
      ~tools:
        [
          Ldstmix.hooks mixt;
          Allcache_tool.hooks cache;
          Sp_cpu.Interval_core.hooks core;
        ]
      pb
  in
  let cluster, weight =
    match pb.Pinball.kind with
    | Pinball.Region r -> (r.cluster, r.weight)
    | Pinball.Whole -> (-1, 1.0)
  in
  {
    Runstats.cluster;
    weight;
    insns = result.Replayer.retired;
    mix = Ldstmix.mix mixt;
    cache = Allcache_tool.stats cache;
    cpi = Sp_cpu.Interval_core.cpi core;
  }

let cold_scan options whole points =
  let acc = ref [] in
  Scan_ref.scan_regions whole points (fun pb ->
      acc := cold_replay options pb :: !acc);
  List.rev !acc

let cold_capture options whole points =
  let sorted = Array.copy points in
  Array.sort
    (fun (a : Sp_simpoint.Simpoints.point) b ->
      compare a.start_icount b.start_icount)
    sorted;
  Array.to_list
    (Array.map (cold_replay options) (Logger.capture_regions whole sorted))

(* warmup windows covering every clamping edge: none, tiny, and one
   far larger than any region start (clamped against program start and
   the previous region's end); bodies emit Sys instructions, so the
   nonzero windows routinely straddle recorded inputs *)
let warmups = [ 0; 7; 10_000 ]

let random_case (iters, ops, spec) =
  let prog = build_program ~iters ops in
  let whole = Logger.log_whole ~benchmark:"warm-diff" prog in
  (whole, Array.of_list (points_of_spec whole.Logger.total_insns spec))

(* ------------------------------------------------------------------ *)
(* warm: walk ≡ shared-scan reference, and jobs-invariant *)

let prop_parallel_matches_scan =
  QCheck.Test.make ~name:"warm replay: parallel = scan reference, any jobs"
    ~count:60 (QCheck.make case_gen) (fun case ->
      let whole, points = random_case case in
      List.for_all
        (fun wu ->
          let scan =
            warm_replay_points_scan options ~warmup_insns:wu whole points
          in
          let walk jobs =
            Pipeline.warm_replay_points { options with jobs }
              ~warmup_insns:wu whole points
          in
          (* structural compare: bit-equal floats (and NaN-safe) *)
          Stdlib.compare scan (walk 1) = 0 && Stdlib.compare scan (walk 3) = 0)
        warmups)

(* ------------------------------------------------------------------ *)
(* cold: walk-captured regions ≡ both pre-walk paths, any jobs, and the
   one walk's warm half ≡ the warm-only walk *)

let prop_cold_walk_matches_references =
  QCheck.Test.make
    ~name:"cold replay: walk regions = scan and capture references"
    ~count:40 (QCheck.make case_gen) (fun case ->
      let whole, points = random_case case in
      let scan = cold_scan options whole points in
      Stdlib.compare scan (cold_capture options whole points) = 0
      && List.for_all
           (fun jobs ->
             let options = { options with jobs } in
             Stdlib.compare scan (Pipeline.replay_points options whole points)
             = 0
             && List.for_all
                  (fun wu ->
                    let cold, warm =
                      Pipeline.replay_cold_warm options ~warmup_insns:wu whole
                        points
                    in
                    Stdlib.compare scan cold = 0
                    && Stdlib.compare warm
                         (Pipeline.warm_replay_points options ~warmup_insns:wu
                            whole points)
                       = 0)
                  warmups)
           [ 1; 3 ])

(* ------------------------------------------------------------------ *)
(* tool-level equivalence, including the TLB statistics that point
   stats do not surface, under every replacement policy: fresh
   per-point tools (in place on the walk, and over the carved warm
   windows) vs one set of shared tools reset at each window start *)

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

(* 1-4 KiB levels: the churn program below overflows the L1D within one
   window, so [Random] replacement draws victims from its stream *)
let tiny_hierarchy =
  let level name size_kb assoc =
    Sp_cache.Config.level ~name ~size_kb ~assoc ~line_bytes:32
  in
  {
    Sp_cache.Config.l1i = level "L1I" 1 2;
    l1d = level "L1D" 1 2;
    l2 = level "L2" 2 2;
    l3 = level "L3" 4 4;
  }

(* a 1.5 KiB working set, half again [tiny_hierarchy]'s L1D, revisited
   every ~26 iterations: each window evicts lines it reuses later, so
   the replacement policy's decisions shape the statistics *)
let churn_program () =
  let a = Sp_vm.Asm.create ~name:"warm-churn" () in
  Sp_vm.Asm.li a 1 0;
  Sp_vm.Asm.loop_down a ~counter:5 ~from:200 (fun () ->
      Sp_vm.Asm.store a 2 1 0;
      Sp_vm.Asm.load a 3 1 512;
      Sp_vm.Asm.alui a Sp_isa.Isa.Add 1 1 40;
      Sp_vm.Asm.alui a Sp_isa.Isa.And 1 1 0x3FF;
      Sp_vm.Asm.sys a 1 6;
      Sp_vm.Asm.alu a Sp_isa.Isa.Xor 4 4 6);
  Sp_vm.Asm.halt a;
  Sp_vm.Asm.assemble a

(* a carved (warmup, region) pinball replayed in two legs over one
   machine and one recorded-input cursor, warming then measuring *)
let replay_window (wr : Logger.warm_region) ~set_warming hooks =
  let pb = wr.Logger.warm_pinball in
  let m = Sp_vm.Snapshot.restore pb.Pinball.snapshot in
  let syscall = Replayer.recorded_syscall pb in
  let run fuel =
    if fuel > 0 then
      ignore (Sp_vm.Interp.run ~hooks ~syscall ~fuel pb.Pinball.program m)
  in
  set_warming true;
  run wr.Logger.warm_prefix;
  set_warming false;
  run (Option.get pb.Pinball.length - wr.Logger.warm_prefix)

let test_tool_level_equivalence () =
  let points = fixture_points [ (100, 80); (400, 120); (520, 60) ] in
  let wu = 150 in
  let stats t =
    ( Allcache_tool.stats t,
      Allcache_tool.itlb_stats t,
      Allcache_tool.dtlb_stats t )
  in
  let programs =
    [
      ("stream", build_program ~iters:200 fixture_ops);
      ("churn", churn_program ());
    ]
  in
  List.iter
    (fun ((name, policy), (pname, prog)) ->
      let name = pname ^ "/" ^ name in
      let whole = Logger.log_whole ~benchmark:"warm-tlb" prog in
      let create () =
        Allcache_tool.create ~config:tiny_hierarchy ~policy prog
      in
      (* shared-scan reference *)
      let shared = create () in
      let scan_stats = ref [] in
      let warmup =
        {
          Scan_ref.length = wu;
          hooks = Allcache_tool.hooks shared;
          on_start =
            (fun () ->
              Allcache_tool.reset_state shared;
              Allcache_tool.set_warming shared true);
        }
      in
      Scan_ref.scan_regions ~warmup whole points (fun pb ->
          Allcache_tool.set_warming shared false;
          ignore (Replayer.replay ~tools:[ Allcache_tool.hooks shared ] pb);
          scan_stats := stats shared :: !scan_stats);
      (* fresh tools warmed and measured in place on the walk *)
      let walk_stats = ref [] in
      Logger.walk ~warmup_insns:wu whole points (fun _ c ->
          let t = create () in
          Allcache_tool.set_warming t true;
          Logger.warm c (Allcache_tool.hooks t);
          Allcache_tool.set_warming t false;
          ignore (Logger.measure c (Allcache_tool.hooks t));
          walk_stats := stats t :: !walk_stats);
      (* fresh tools over the carved warm windows *)
      let carved_stats =
        Array.to_list
          (Array.map
             (fun wr ->
               let t = create () in
               replay_window wr ~set_warming:(Allcache_tool.set_warming t)
                 (Allcache_tool.hooks t);
               stats t)
             (Logger.capture_warm_regions ~warmup_insns:wu whole points))
      in
      let scan_stats = List.rev !scan_stats in
      Alcotest.(check int) (name ^ ": one result per point")
        (Array.length points) (List.length carved_stats);
      Alcotest.(check bool) (name ^ ": walk = shared scan") true
        (Stdlib.compare scan_stats (List.rev !walk_stats) = 0);
      Alcotest.(check bool) (name ^ ": carved windows = shared scan") true
        (Stdlib.compare scan_stats carved_stats = 0))
    (List.concat_map
       (fun policy -> List.map (fun prog -> (policy, prog)) programs)
       [
         ("LRU", Sp_cache.Cache.Lru);
         ("FIFO", Sp_cache.Cache.Fifo);
         ("Random", Sp_cache.Cache.Random);
       ])

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
    r0.Pinball.length;
  Alcotest.(check (array int)) "warm_prefixes, in the order given"
    [| 0; 40 |]
    (Logger.warm_prefixes ~warmup_insns:1_000 [| points.(1); points.(0) |])

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

(* ------------------------------------------------------------------ *)
(* on a warm profile cache no whole-program run happens, and nothing
   carves a region: a benchmark retires exactly its walk, up to the
   last region's end, and takes no snapshot, since no logging pass
   captures an initial state *)

let with_warm_profile_cache f =
  let dir = Filename.temp_file "spwalk" "" in
  Sys.remove dir;
  let rm_dir () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:rm_dir @@ fun () ->
  let spec = Sp_workloads.Suite.find "657.xz_s" in
  let options jobs =
    {
      options with
      slices_scale = 0.05;
      collect_variance = false;
      profile_cache = Some dir;
      jobs;
    }
  in
  ignore (Pipeline.run_benchmark ~options:(options 1) spec);
  List.iter
    (fun jobs ->
      Sp_obs.Metrics.reset ();
      let r = Pipeline.run_benchmark ~options:(options jobs) spec in
      let snap = Sp_obs.Metrics.stable_snapshot () in
      Sp_obs.Metrics.reset ();
      f jobs r (Sp_obs.Metrics.counter_value snap))
    [ 1; 3 ]

let test_walk_instruction_budget () =
  with_warm_profile_cache @@ fun jobs r counter ->
  let walk =
    Array.fold_left
      (fun acc (p : Sp_simpoint.Simpoints.point) ->
        max acc (p.start_icount + p.length))
      0 r.Pipeline.selection.Pipeline.points
  in
  Alcotest.(check (option (float 0.0)))
    (Printf.sprintf "jobs %d: the walk alone" jobs)
    (Some (float_of_int walk))
    (counter "vm.instructions")

let test_warm_run_no_snapshots () =
  with_warm_profile_cache @@ fun jobs _ counter ->
  Alcotest.(check (option (float 0.0)))
    (Printf.sprintf "jobs %d: vm.snapshots" jobs)
    (Some 0.0) (counter "vm.snapshots")

(* ------------------------------------------------------------------ *)
(* allocation budget: the per-instruction path of the replay tools
   allocates nothing, and the walk reuses one tool set instead of
   building one per point, so a warm walk and a log+profile replay each
   allocate at most 0.05 minor words per instrumented instruction.  A
   closure or a boxed float per cache lookup costs several. *)

let budget = 0.05

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_allocation_budget () =
  let prog = build_program ~iters:12_000 fixture_ops in
  let whole = Logger.log_whole ~benchmark:"warm-alloc" prog in
  let total = whole.Logger.total_insns in
  let len = 4_000 and warmup_insns = 25_000 in
  let points =
    fixture_points
      (List.map (fun q -> (q * total / 4, len)) [ 1; 2; 3 ])
  in
  let warm_words =
    minor_words (fun () ->
        ignore (Pipeline.warm_replay_points options ~warmup_insns whole points))
  in
  let warm_insns = 3 * (warmup_insns + len) in
  let tools =
    [
      Profile_tool.hooks
        (Profile_tool.create ~slice_len:options.Pipeline.slice_insns prog);
      Allcache_tool.hooks
        (Allcache_tool.create ~config:options.Pipeline.cache_config prog);
      Sp_cpu.Interval_core.hooks
        (Sp_cpu.Interval_core.create ~config:options.Pipeline.core_config prog);
    ]
  in
  let profile_words =
    minor_words (fun () -> ignore (Replayer.replay ~tools whole.Logger.pinball))
  in
  let check name words insns =
    let per = words /. float_of_int insns in
    if per > budget then
      Alcotest.failf
        "%s: %.0f minor words over %d instructions = %.4f/insn (budget %.2f)"
        name words insns per budget
  in
  check "warm walk" warm_words warm_insns;
  check "log+profile replay" profile_words total

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parallel_matches_scan;
    QCheck_alcotest.to_alcotest prop_cold_walk_matches_references;
    Alcotest.test_case "tool-level equivalence (caches + TLBs)" `Quick
      test_tool_level_equivalence;
    Alcotest.test_case "capture prefix clamping" `Quick
      test_capture_prefix_clamping;
    Alcotest.test_case "stable metrics jobs-invariant" `Quick
      test_stable_metrics_jobs_invariant;
    Alcotest.test_case "walk instruction budget" `Quick
      test_walk_instruction_budget;
    Alcotest.test_case "warm profile cache: no snapshots, no logging pass"
      `Quick test_warm_run_no_snapshots;
    Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
  ]
