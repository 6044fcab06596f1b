(* The microbenchmark harness: Bechamel micros of the core primitives,
   with regression gates against their recorded BENCH_micro.json
   values.  The paper's tables and figures are regenerated by
   `specrepro experiment NAME|all`.

   Usage:
     dune exec bench/main.exe                       # run, record
     dune exec bench/main.exe -- --gate NAME:RATIO  # run, gate *)

open Specrepro

let usage () =
  Printf.printf
    "usage: main.exe [--gate NAME:MAXRATIO]... [--gate-all MAXRATIO]\n";
  Printf.printf
    "Runs the Bechamel microbenchmarks.  The paper's tables and figures are\n\
    \  regenerated by `specrepro experiment NAME|all`.\n";
  Printf.printf
    "--gate NAME:MAXRATIO (repeatable): fail if micro NAME measures more\n\
    \  than MAXRATIO x its recorded BENCH_micro.json value.\n";
  Printf.printf
    "--gate-all MAXRATIO: gate every micro recorded in BENCH_micro.json at\n\
    \  MAXRATIO; explicit --gate flags override the ratio for the micros\n\
    \  they name.\n";
  Printf.printf
    "A run without a gate records its measurements in BENCH_micro.json; a\n\
    \  gated run only reads the file.\n";
  Printf.printf
    "exit codes: 0 ok; 1 bad input (unknown argument, malformed or missing\n\
    \  gate/baseline); 2 a gate failed.\n";
  exit 0

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks *)

let micro ~gates ~gate_all =
  let gated = gates <> [] || gate_all <> None in
  let open Bechamel in
  let open Toolkit in
  (* recorded baseline, read before an ungated run overwrites the file;
     [None] when absent or unreadable (deltas are skipped, gates fail
     loudly) *)
  let json_file = "BENCH_micro.json" in
  let baseline =
    match Sp_obs.Json.parse_file json_file with
    | Ok (Sp_obs.Json.Obj kvs) ->
        Some
          (List.filter_map
             (fun (k, v) ->
               Option.map (fun f -> (k, f)) (Sp_obs.Json.to_float v))
             kvs)
    | Ok _ | Error _ -> None
  in
  (* fixtures *)
  let spec = Sp_workloads.Suite.find "620.omnetpp_s" in
  let built = Sp_workloads.Benchspec.build ~slices_scale:0.02 spec in
  let prog = built.Sp_workloads.Benchspec.program in
  let rng = Sp_util.Rng.create 7 in
  let points =
    Array.init 2000 (fun _ ->
        Array.init 15 (fun _ -> Sp_util.Rng.float rng 1.0))
  in
  let cache = Sp_cache.Cache.create Sp_cache.Config.allcache_table1.l1d in
  let addr = ref 0 in
  (* A pointer-chase style kernel where 4 of every 7 instructions touch
     memory, walking a 1 MiB working set: the worst case for the
     per-access page lookup in [Memory] and the best case for its TLB. *)
  let ldst_kernel =
    let a = Sp_vm.Asm.create ~name:"ldst-kernel" () in
    Sp_vm.Asm.li a 1 0;
    let top = Sp_vm.Asm.here a in
    Sp_vm.Asm.store a 1 1 0;
    Sp_vm.Asm.load a 2 1 64;
    Sp_vm.Asm.store a 2 1 128;
    Sp_vm.Asm.load a 3 1 192;
    Sp_vm.Asm.alui a Sp_isa.Isa.Add 1 1 8;
    Sp_vm.Asm.alui a Sp_isa.Isa.And 1 1 0xFFFFF;
    Sp_vm.Asm.jump a top;
    Sp_vm.Asm.assemble a
  in
  (* 40k-instruction kernel with loads, stores and a recorded input
     every iteration, logged once as a whole pinball; 4 points of 2000
     instructions with 1500-instruction warm windows then drive the
     whole warm-replay stage per run: the walk [warm_replay_points]
     runs, hook-free fast-forwards between the windows included *)
  let warm_whole, warm_points =
    let a = Sp_vm.Asm.create ~name:"warm-replay-4pt" () in
    Sp_vm.Asm.li a 1 0;
    (* init phase: touch one word in each of 32 pages (a 1 MiB image),
       so the machine the warm stage walks carries a realistically
       sized memory image rather than the single page the main loop's
       working set fits in *)
    Sp_vm.Asm.li a 6 0;
    Sp_vm.Asm.loop_down a ~counter:7 ~from:256 (fun () ->
        Sp_vm.Asm.store a 7 6 0;
        Sp_vm.Asm.alui a Sp_isa.Isa.Add 6 6 4_096);
    Sp_vm.Asm.loop_down a ~counter:5 ~from:4_000 (fun () ->
        Sp_vm.Asm.store a 2 1 0;
        Sp_vm.Asm.load a 3 1 64;
        Sp_vm.Asm.alui a Sp_isa.Isa.Add 1 1 8;
        Sp_vm.Asm.alui a Sp_isa.Isa.And 1 1 0xFFFFF;
        Sp_vm.Asm.alu a Sp_isa.Isa.Add 4 4 3;
        Sp_vm.Asm.sys a 0 6;
        Sp_vm.Asm.alu a Sp_isa.Isa.Xor 4 4 6;
        Sp_vm.Asm.store a 4 1 128);
    Sp_vm.Asm.halt a;
    let kernel = Sp_vm.Asm.assemble a in
    let whole =
      Sp_pinball.Logger.log_whole ~benchmark:"warm-replay-4pt" kernel
    in
    let points =
      Array.init 4 (fun i ->
          {
            Sp_simpoint.Simpoints.cluster = i;
            slice_index = i;
            (* past the init phase, inside the main loop *)
            start_icount = (8_000 * (i + 1)) + 2_000;
            length = 2_000;
            weight = 0.25;
          })
    in
    (whole, points)
  in
  (* a 64-page (2 MiB image) whole pinball over the ldst kernel: the
     artifact-I/O and snapshot micros below share it.  Page contents are
     pseudo-random so the CRC and the encoder see realistic entropy. *)
  let pb64, snap64, encoded64 =
    let m = Sp_vm.Interp.create ~entry:ldst_kernel.Sp_vm.Program.entry () in
    let r = Sp_util.Rng.create 42 in
    for p = 0 to 63 do
      for w = 0 to 4095 do
        Sp_vm.Memory.store m.Sp_vm.Interp.mem (((p * 4096) + w) * 8)
          (Sp_util.Rng.bits30 r)
      done
    done;
    let snap = Sp_vm.Snapshot.capture m in
    let pb =
      {
        Sp_pinball.Pinball.benchmark = "micro-64p";
        kind = Sp_pinball.Pinball.Whole;
        program = ldst_kernel;
        snapshot = snap;
        length = Some 0;
        syscalls = [||];
      }
    in
    (pb, snap, Sp_pinball.Store.encode pb)
  in
  let mb_string =
    let r = Sp_util.Rng.create 43 in
    String.init (1 lsl 20) (fun _ -> Char.chr (Sp_util.Rng.int r 256))
  in
  let tests =
    [
      (* pinned to the interpreted tier, which runs nil hooks on the
         plain per-instruction loop: this micro tracks the
         decode-dispatch loop itself and must stay comparable to its
         recorded history from before the compiled tier existed *)
      Test.make ~name:"interp-10k-insns"
        (Staged.stage (fun () ->
             let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
             ignore
               (Sp_vm.Interp.run ~engine:Sp_vm.Interp.Interpreted ~fuel:10_000
                  prog m)));
      (* same replay on the compiled-block tier, where [Auto] sends nil
         hooks: straight-line closures, no per-instruction decode
         (program compilation is cached, so only the first run pays
         it) *)
      Test.make ~name:"interp-10k-compiled"
        (Staged.stage (fun () ->
             let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
             ignore (Sp_vm.Interp.run ~fuel:10_000 prog m)));
      (* hook-dispatch cost in isolation: a seq_all of nil hook sets must
         collapse onto the interpreter's zero-dispatch fast path... *)
      Test.make ~name:"hook-dispatch-nil-10k"
        (Staged.stage
           (let hooks = Sp_vm.Hooks.seq_all [ Sp_vm.Hooks.nil; Sp_vm.Hooks.nil ] in
            fun () ->
              let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
              ignore (Sp_vm.Interp.run ~hooks ~fuel:10_000 prog m)));
      (* ...while the cheapest real tool, a span counter, runs on the
         same compiled tier with its block prologues live: the delta
         over the nil case is one span dispatch per block entry plus the
         tool's per-instruction kind count *)
      Test.make ~name:"hook-dispatch-inscount-10k"
        (Staged.stage
           (let tool = Sp_pin.Inscount.create prog in
            let hooks = Sp_vm.Hooks.seq_all [ Sp_pin.Inscount.hooks tool ] in
            fun () ->
              let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
              ignore (Sp_vm.Interp.run ~hooks ~fuel:10_000 prog m)));
      (* the instrumented path BBV collection actually runs on: block-level
         hooks only, so the interpreter may block-step *)
      Test.make ~name:"interp-10k-bbv"
        (Staged.stage (fun () ->
             let bbv = Sp_pin.Bbv_tool.create ~slice_len:1_000 prog in
             let hooks = Sp_vm.Hooks.seq_all [ Sp_pin.Bbv_tool.hooks bbv ] in
             let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
             ignore (Sp_vm.Interp.run ~hooks ~fuel:10_000 prog m);
             Sp_pin.Bbv_tool.finish bbv));
      (* the single-pass profile stage: BBV + ldst-mix + instruction mix
         from one combined block-level consumer — what the pipeline's
         log+profile stage pays per retired span *)
      Test.make ~name:"interp-10k-profile-combined"
        (Staged.stage (fun () ->
             let t = Sp_pin.Profile_tool.create ~slice_len:1_000 prog in
             let hooks = Sp_vm.Hooks.seq_all [ Sp_pin.Profile_tool.hooks t ] in
             let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
             ignore (Sp_vm.Interp.run ~hooks ~fuel:10_000 prog m);
             Sp_pin.Profile_tool.finish t));
      Test.make ~name:"interp-10k-ldst"
        (Staged.stage
           (* one persistent machine: the kernel never halts, so each run
              resumes it for another 10k instructions over a stable page
              set — pure load/store throughput, no page-allocation noise *)
           (let m =
              Sp_vm.Interp.create ~entry:ldst_kernel.Sp_vm.Program.entry ()
            in
            fun () -> ignore (Sp_vm.Interp.run ~fuel:10_000 ldst_kernel m)));
      Test.make ~name:"interp-10k-insns+allcache"
        (Staged.stage
           (let tool = Sp_pin.Allcache_tool.create prog in
            let hooks = Sp_pin.Allcache_tool.hooks tool in
            fun () ->
              let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
              ignore (Sp_vm.Interp.run ~hooks ~fuel:10_000 prog m)));
      (* the block-level timing model alone: leader fetches, per-segment
         dispatch cycles and data references, branch outcomes, all on
         the block stepper *)
      Test.make ~name:"interp-10k-insns+timing"
        (Staged.stage
           (let core =
              Sp_cpu.Interval_core.create
                ~config:Pipeline.default_options.core_config prog
            in
            let hooks = Sp_cpu.Interval_core.hooks core in
            fun () ->
              let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
              ignore (Sp_vm.Interp.run ~hooks ~fuel:10_000 prog m)));
      (* the tool set of a cold regional replay — ldst mix, allcache and
         the timing model, at the pipeline's configurations — as one
         block-stepped run *)
      Test.make ~name:"interp-10k-region-tools"
        (Staged.stage
           (let o = Pipeline.default_options in
            let hooks =
              Sp_vm.Hooks.seq_all
                [
                  Sp_pin.Ldstmix.hooks (Sp_pin.Ldstmix.create prog);
                  Sp_pin.Allcache_tool.hooks
                    (Sp_pin.Allcache_tool.create ~config:o.cache_config prog);
                  Sp_cpu.Interval_core.hooks
                    (Sp_cpu.Interval_core.create ~config:o.core_config prog);
                ]
            in
            fun () ->
              let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
              ignore (Sp_vm.Interp.run ~hooks ~fuel:10_000 prog m)));
      Test.make ~name:"kmeans-k20-2000x15"
        (Staged.stage (fun () ->
             ignore (Sp_simpoint.Kmeans.fit ~max_iters:10 ~k:20 points)));
      (* cold variant: the points (and the fit's internal flat copies
         and bound arrays) are freshly allocated every run, so the cost
         of warming those pages is inside the measurement *)
      Test.make ~name:"kmeans-k20-2000x15-cold"
        (Staged.stage (fun () ->
             let rng = Sp_util.Rng.create 7 in
             let pts =
               Array.init 2000 (fun _ ->
                   Array.init 15 (fun _ -> Sp_util.Rng.float rng 1.0))
             in
             ignore (Sp_simpoint.Kmeans.fit ~max_iters:10 ~k:20 pts)));
      Test.make ~name:"cache-access"
        (Staged.stage (fun () ->
             addr := (!addr + 4096) land 0xFFFFF;
             ignore (Sp_cache.Cache.access cache !addr)));
      (* 1 KiB stride = sets * line_bytes on the 32-set L1D: every
         access lands in set 0, and cycling 64 tags through 32 ways
         makes every access an eviction — the replacement-policy slow
         path, where the MRU short-circuit can never fire *)
      Test.make ~name:"cache-access-miss"
        (Staged.stage
           (let miss_cache =
              Sp_cache.Cache.create Sp_cache.Config.allcache_table1.l1d
            in
            let miss_addr = ref 0 in
            fun () ->
              miss_addr := (!miss_addr + 1024) land 0xFFFF;
              ignore (Sp_cache.Cache.access miss_cache !miss_addr)));
      (* 4 KiB stride over a 32 MiB cycle: distinct line every access,
         revisited only after the tags in its set have rotated out of
         L1D, L2 and L3 alike — every access walks the full hierarchy
         to memory *)
      Test.make ~name:"cache-hier-walk"
        (Staged.stage
           (let hier =
              Sp_cache.Hierarchy.create Sp_cache.Config.allcache_table1
            in
            let walk_addr = ref 0 in
            fun () ->
              walk_addr := (!walk_addr + 4096) land 0x1FF_FFFF;
              Sp_cache.Hierarchy.read hier !walk_addr));
      (* the full warm-replay stage over the 40k-insn fixture: one
         walk that fast-forwards to each of four windows, resets its one
         tool set, warms it in place over 1500 insns and measures the
         2000 region insns on the live machine — what the pipeline pays
         per warm point, fast-forwards included *)
      Test.make ~name:"warm-replay-4pt"
        (Staged.stage (fun () ->
             ignore
               (Pipeline.warm_replay_points Pipeline.default_options
                  ~warmup_insns:1_500 warm_whole warm_points)));
      (* the pipeline's whole replay stage over the same fixture: the
         same walk with a second, cold tool set reset at each region
         start, so every region is measured warm and cold in one run;
         the margin over warm-replay-4pt is what the cold statistics
         cost *)
      Test.make ~name:"cold-warm-replay-4pt"
        (Staged.stage (fun () ->
             ignore
               (Pipeline.replay_cold_warm Pipeline.default_options
                  ~warmup_insns:1_500 warm_whole warm_points)));
      (* full pinball encode of the 64-page image: what one artifact
         save pays before the bytes hit the filesystem *)
      Test.make ~name:"pinball-save-64p"
        (Staged.stage (fun () -> ignore (Sp_pinball.Store.encode pb64)));
      (* full validated decode (framing + CRC + every field) of the same
         bytes: what one cold artifact-cache hit pays *)
      Test.make ~name:"pinball-load-64p"
        (Staged.stage (fun () ->
             match Sp_pinball.Store.of_bytes encoded64 with
             | Ok _ -> ()
             | Error _ -> assert false));
      (* restore the 64-page snapshot and dirty every 10th page (the
         typical region-replay write footprint): with copy-on-write
         snapshots the restore costs O(pages written), not O(image) *)
      Test.make ~name:"snapshot-restore-touch10"
        (Staged.stage (fun () ->
             let m = Sp_vm.Snapshot.restore snap64 in
             let p = ref 0 in
             while !p < 64 do
               Sp_vm.Memory.store m.Sp_vm.Interp.mem (!p * 4096 * 8) !p;
               p := !p + 10
             done));
      Test.make ~name:"crc32-1mb"
        (Staged.stage (fun () ->
             ignore (Sp_util.Crc32.string mb_string)));
      Test.make ~name:"projection-2000-slices"
        (Staged.stage
           (let slices =
              Array.init 2000 (fun i ->
                  {
                    Sp_pin.Bbv_tool.index = i;
                    start_icount = i * 100;
                    length = 100;
                    bbv = Array.init 20 (fun b -> (b * 3, 5));
                  })
            in
            fun () -> ignore (Sp_simpoint.Projection.project ~seed:1 slices)));
      (* the full stratified select tier over 2000 slices with five
         planted phases: projection + pilot k-means + Neyman allocation
         + within-stratum systematic draws — what `--sampler stratified`
         pays at the select stage *)
      Test.make ~name:"select-stratified-2000-slices"
        (Staged.stage
           (let slices =
              Array.init 2000 (fun i ->
                  {
                    Sp_pin.Bbv_tool.index = i;
                    start_icount = i * 100;
                    length = 100;
                    bbv =
                      Array.init 20 (fun b ->
                          ((b * 3) + (60 * (i mod 5)), 5));
                  })
            in
            fun () ->
              ignore
                (Sp_simpoint.Sampler.select Sp_simpoint.Sampler.Stratified
                   ~slice_len:100 slices)));
      (* the select stage exactly as the pipeline runs it, on data
         shaped like the pipeline's: 3500 slices (above the 3000-slice
         fitting cap, so the full-set assign runs) in runs of 70 from
         12 planted phases over overlapping 20-block sets, with count
         noise.  One [fits] serves the SimPoint select and the Figure 4
         variance sweep.  Uniform random points, as in
         [kmeans-k20-2000x15], give the triangle bounds little to
         prune *)
      Test.make ~name:"select-simpoint-3500-slices"
        (Staged.stage
           (let rng = Sp_util.Rng.create 11 in
            let slices =
              Array.init 3500 (fun i ->
                  let phase = i / 70 * 7 mod 12 in
                  let bbv =
                    Array.init 20 (fun b ->
                        ( (phase * 10) + b,
                          10 + (b * (phase + 1) mod 7 * 5)
                          + Sp_util.Rng.int rng 8 ))
                  in
                  {
                    Sp_pin.Bbv_tool.index = i;
                    start_icount = i * 100;
                    length = Array.fold_left (fun acc (_, c) -> acc + c) 0 bbv;
                    bbv;
                  })
            in
            let config = Sp_simpoint.Simpoints.default_config in
            fun () ->
              let fits = Sp_simpoint.Simpoints.fits ~config slices in
              ignore
                (Sp_simpoint.Sampler.select ~config ~fits
                   Sp_simpoint.Sampler.Simpoint ~slice_len:100 slices);
              ignore
                (Sp_simpoint.Variance.sweep ~config ~fits
                   ~ks:Pipeline.default_options.variance_ks slices)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Instance.monotonic_clock raw
  in
  print_endline "Microbenchmarks (Bechamel, monotonic clock):";
  let strip_group name =
    match String.index_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let measured = ref [] in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ t ] ->
              let short = strip_group name in
              let delta =
                match
                  Option.bind baseline (fun b -> List.assoc_opt short b)
                with
                | Some old when old > 0.0 ->
                    Printf.sprintf "  (%+.1f%% vs recorded)"
                      ((t -. old) /. old *. 100.0)
                | Some _ | None -> ""
              in
              Printf.printf "  %-28s %12.1f ns/run%s\n%!" name t delta;
              measured := (short, t) :: !measured
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests;
  (* --gate-all RATIO expands to one gate per micro in the recorded
     baseline (so micros added this run are gated from their next
     recording); explicit --gate flags keep their own ratio *)
  let gates =
    match gate_all with
    | None -> gates
    | Some ratio -> (
        match baseline with
        | None ->
            Printf.eprintf
              "[bench] --gate-all %g cannot run: no recorded baseline (%s \
               missing or unreadable); run `main.exe micro` on a known-good \
               tree and commit the file\n\
               %!"
              ratio json_file;
            exit 1
        | Some b ->
            gates
            @ List.filter_map
                (fun (name, _) ->
                  if List.mem_assoc name gates then None
                  else Some (name, ratio))
                b)
  in
  (* regression gates: each compares this run against the recorded
     baseline.  Exit codes follow the repo-wide convention: a missing
     baseline file or micro is bad input (exit 1, with a message naming
     what to fix); a measurement past its gate is a gate failure
     (exit 2). *)
  List.iter
    (fun (gname, ratio) ->
      let fail msg =
        Printf.eprintf "[bench] gate %s:%g cannot run: %s\n%!" gname ratio msg;
        exit 1
      in
      let b =
        match baseline with
        | None ->
            fail
              (Printf.sprintf
                 "no recorded baseline (%s missing or unreadable); run \
                  `main.exe micro` on a known-good tree and commit the file"
                 json_file)
        | Some b -> b
      in
      let old =
        match List.assoc_opt gname b with
        | None ->
            fail
              (Printf.sprintf "micro %S is not recorded in %s" gname json_file)
        | Some o -> o
      in
      let cur =
        match List.assoc_opt gname !measured with
        | None -> fail (Printf.sprintf "micro %S was not measured" gname)
        | Some c -> c
      in
      if cur > old *. ratio then begin
        Printf.eprintf
          "[bench] gate %s FAILED: %.1f ns/run vs recorded %.1f ns/run \
           (%.2fx, allowed %.2fx)\n\
           %!"
          gname cur old (cur /. old) ratio;
        exit 2
      end
      else
        Printf.printf "  gate %-21s OK: %.1f ns/run vs recorded %.1f (%.2fx \
                       <= %.2fx)\n%!"
          gname cur old (cur /. old) ratio)
    gates;
  (* machine-readable mirror of the report, so the perf trajectory of
     the interp/BBV/memory micros can be tracked over time.  Only an
     ungated run records: a gate compares against the file, and a run
     that passed at 1.4x must not become the next baseline *)
  if not gated then begin
    let oc = open_out json_file in
    Printf.fprintf oc "{\n";
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "  %S: %.1f%s\n" name ns
          (if i = List.length !measured - 1 then "" else ","))
      (List.rev !measured);
    Printf.fprintf oc "}\n";
    close_out oc;
    Printf.printf "  (wrote %s: name -> ns/run)\n%!" json_file
  end

(* ------------------------------------------------------------------ *)

let () =
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        exit 1)
      fmt
  in
  let rec parse gates gate_all = function
    | [] -> (List.rev gates, gate_all)
    | "--help" :: _ -> usage ()
    | "--gate" :: spec :: rest -> (
        let malformed () =
          bad "bad --gate %S (want NAME:MAXRATIO, e.g. interp-10k-insns:1.5)"
            spec
        in
        match String.index_opt spec ':' with
        | None -> malformed ()
        | Some i -> (
            let name = String.sub spec 0 i in
            let r = String.sub spec (i + 1) (String.length spec - i - 1) in
            match float_of_string_opt r with
            | Some ratio when ratio > 0.0 && name <> "" ->
                parse ((name, ratio) :: gates) gate_all rest
            | _ -> malformed ()))
    | "--gate-all" :: r :: rest -> (
        match float_of_string_opt r with
        | Some ratio when ratio > 0.0 -> parse gates (Some ratio) rest
        | _ -> bad "bad --gate-all %S (want MAXRATIO > 0, e.g. 1.5)" r)
    | arg :: _ ->
        bad
          "unknown argument %S (see --help; experiments run through \
           `specrepro experiment`)"
          arg
  in
  let gates, gate_all = parse [] None (List.tl (Array.to_list Sys.argv)) in
  micro ~gates ~gate_all
