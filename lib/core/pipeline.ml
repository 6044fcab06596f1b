open Sp_workloads
open Sp_pin
open Sp_pinball

type options = {
  slice_insns : int;
  slices_scale : float;
  warmup_insns : int;
  coverage : float;
  sampler : Sp_simpoint.Sampler.kind;
  simpoint_config : Sp_simpoint.Simpoints.config;
  cache_config : Sp_cache.Config.hierarchy;
  next_line_prefetch : bool;
  core_config : Sp_cpu.Core_config.t;
  variance_ks : int list;
  collect_variance : bool;
  progress : bool;
  jobs : int;
  pinball_cache : string option;
  profile_cache : string option;
  (* shared budget of the in-memory decoded-artifact cache, in MiB
     (0 disables); result-neutral, so excluded from the API v2 options
     envelope like the cache directories *)
  mem_cache_mb : int;
}

let default_options =
  {
    slice_insns = Benchspec.default_slice_insns;
    slices_scale = 1.0;
    (* The paper warms for 500 M cycles before each point.  What makes
       that effective is its size relative to the LLC: hundreds of
       accesses per L3 line.  Since simulated caches are capacity-scaled
       by 32 while instruction counts are scaled much further, the
       window is sized against the scaled L3 (~10 accesses per line at
       the suite's ~0.3 accesses/instruction) rather than by naive
       instruction-count scaling, which would warm almost nothing. *)
    warmup_insns = 150_000;
    coverage = 0.9;
    sampler = Sp_simpoint.Sampler.Simpoint;
    simpoint_config = Sp_simpoint.Simpoints.default_config;
    cache_config = Sp_cache.Config.allcache_sim;
    next_line_prefetch = false;
    core_config = Sp_cpu.Core_config.i7_3770_sim;
    variance_ks = [ 5; 10; 15; 20; 25; 30; 35 ];
    collect_variance = true;
    progress = true;
    (* sequential: parallel execution is strictly opt-in (--jobs), and
       every stage is bit-for-bit identical across job counts anyway *)
    jobs = 1;
    pinball_cache = None;
    profile_cache = None;
    (* a few dozen decoded artifacts at tiny-suite sizes; enough for a
       daemon to keep its working set without surprising anyone's RSS *)
    mem_cache_mb = 64;
  }

(* Resolve every derived knob up front, producing the single [options]
   value each downstream stage receives (the simpoint stages inherit
   the pipeline-level jobs knob unless the caller left it sequential).
   Idempotent, so the explicit calls in the entry points compose. *)
let normalize options =
  (* a profile cache is only fully effective with a pinball cache (the
     whole pinball is what a profile hit replays nothing of), so it
     doubles as the pinball cache directory unless one was given *)
  let options =
    match (options.profile_cache, options.pinball_cache) with
    | Some dir, None -> { options with pinball_cache = Some dir }
    | _ -> options
  in
  let options = { options with mem_cache_mb = max 0 options.mem_cache_mb } in
  (* publish the budget to the process-wide pool here, since every
     entry point normalizes first; repeat calls with the same value are
     no-ops in effect *)
  Mem_cache.set_budget_mb Mem_cache.global options.mem_cache_mb;
  if options.jobs > 1 then
    {
      options with
      simpoint_config =
        { options.simpoint_config with Sp_simpoint.Simpoints.jobs = options.jobs };
    }
  else options

type selection_summary = {
  sampler : Sp_simpoint.Sampler.kind;
  chosen_k : int;
  num_slices : int;
  points : Sp_simpoint.Simpoints.point array;
  bic_curve : (int * float) list;
  diagnostics : (string * float) list;
}

type stage_timing = { stage : string; seconds : float }

type run_report = {
  jobs_used : int;
  warmup_insns_used : int;
  sampler_used : string;
  stages : stage_timing list;
}

type bench_result = {
  spec : Benchspec.t;
  built : Benchspec.built;
  options : options;
  whole_insns : int;
  selection : selection_summary;
  whole : Runstats.run_stats;
  whole_core : Sp_cpu.Interval_core.stats;
  point_stats : Runstats.point_stats list;
  warm_point_stats : Runstats.point_stats list;
  native : Sp_perf.Perf_counters.sample;
  variance : Sp_simpoint.Variance.sweep_point list;
  wall_seconds : float;
  report : run_report;
}

let run_report_to_json (r : run_report) =
  Sp_obs.Json.Obj
    [
      ("jobs", Sp_obs.Json.Num (float_of_int r.jobs_used));
      ("warmup_insns", Sp_obs.Json.Num (float_of_int r.warmup_insns_used));
      ("sampler", Sp_obs.Json.Str r.sampler_used);
      ( "stages",
        Sp_obs.Json.List
          (List.map
             (fun t ->
               Sp_obs.Json.Obj
                 [
                   ("stage", Sp_obs.Json.Str t.stage);
                   ("seconds", Sp_obs.Json.Num t.seconds);
                 ])
             r.stages) );
    ]

(* progress lines go through the observability logger so concurrent
   workers never interleave partial lines on the terminal *)
let progressf options fmt = Sp_obs.Log.printf_if options.progress fmt

module M = struct
  let benchmarks = Sp_obs.Metrics.counter "pipeline.benchmarks"
  let stages_run = Sp_obs.Metrics.counter "pipeline.stages_run"
  let stage_seconds = Sp_obs.Metrics.histogram "pipeline.stage_seconds"
  let warm_points = Sp_obs.Metrics.counter "warm.points"
  let select_points = Sp_obs.Metrics.counter "select.points"

  (* one stable counter per registered sampler: the CI sampler matrix
     diffs the select.* lines across job counts *)
  let sampler_counters =
    List.map
      (fun k ->
        ( k,
          Sp_obs.Metrics.counter
            ("select.sampler." ^ Sp_simpoint.Sampler.name k) ))
      Sp_simpoint.Sampler.all_kinds

  let sampler_runs k = List.assoc k sampler_counters
end

(* Wrap one pipeline stage: a trace span (when tracing is on), a wall
   time recorded into this benchmark's [run_report], and the global
   stage metrics.  The timing is recorded even if the stage raises, so
   partial runs still report where the time went. *)
let stage ~bench ~timings name f =
  Sp_obs.Tracer.with_span ~cat:"stage" ~args:[ ("bench", bench) ] name
    (fun () ->
      let t0 = Sp_obs.Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt =
            Sp_obs.Clock.seconds_of_ns (Sp_obs.Clock.now_ns () - t0)
          in
          Sp_obs.Metrics.incr M.stages_run;
          Sp_obs.Metrics.observe M.stage_seconds dt;
          timings := { stage = name; seconds = dt } :: !timings)
        f)

(* Replay one regional pinball under fresh (cold) pintools and collect
   its statistics — the paper's Regional-Run methodology, where every
   pinball is an independent job. *)
let replay_point options (pb : Pinball.t) =
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
  let cache_stats = Allcache_tool.stats cache in
  Sp_cache.Hierarchy.observe_stats cache_stats;
  {
    Runstats.cluster;
    weight;
    insns = result.Replayer.retired;
    mix = Ldstmix.mix mixt;
    cache = cache_stats;
    cpi = Sp_cpu.Interval_core.cpi core;
  }

let replay_points options (whole : Logger.whole) points =
  if options.jobs <= 1 then begin
    let acc = ref [] in
    Logger.scan_regions whole points (fun pb ->
        acc := replay_point options pb :: !acc);
    List.rev !acc
  end
  else begin
    (* Each cold replay builds fresh tool state and touches nothing
       shared, so once the regions are captured (one sequential
       uninstrumented fast-forward over the whole pinball) they fan out
       across the domain pool.  Points are pre-sorted by start so both
       the capture scan and the result list match the sequential path's
       order exactly. *)
    let sorted = Array.copy points in
    Array.sort
      (fun (a : Sp_simpoint.Simpoints.point) b ->
        compare a.start_icount b.start_icount)
      sorted;
    let regions = Logger.capture_regions whole sorted in
    Sp_util.Pool.parallel_map ~jobs:options.jobs (replay_point options) regions
    |> Array.to_list
  end

(* Replay one warm-prefixed regional pinball under fresh per-point
   tools: the prefix runs with the cache and timing tools warming
   (state trains, statistics stay zero), the flag flips at the
   prefix/region boundary, and the region runs measured with a fresh
   per-point ldst-mix attached.  Fresh tools are exactly equivalent to
   the shared scan's [reset_state] at each window start — construction
   and reset produce identical state under the pipeline's replacement
   policies (LRU/FIFO; [Random] keeps a replacement RNG that a reset
   does not re-seed) — so per-point statistics are bit-identical to
   the shared-scan reference the equivalence suite keeps, while every
   point becomes an independent job for the domain pool. *)
let replay_warm_point options (wr : Logger.warm_region) =
  Sp_obs.Tracer.with_span ~cat:"warm" "warm-point" @@ fun () ->
  let pb = wr.Logger.warm_pinball in
  let prog = pb.Pinball.program in
  let mixt = Ldstmix.create prog in
  let cache =
    Allcache_tool.create ~config:options.cache_config
      ~prefetch:options.next_line_prefetch prog
  in
  let core = Sp_cpu.Interval_core.create ~config:options.core_config prog in
  let warm_hooks =
    [ Allcache_tool.hooks cache; Sp_cpu.Interval_core.hooks core ]
  in
  Allcache_tool.set_warming cache true;
  Sp_cpu.Interval_core.set_warming core true;
  let result =
    Replayer.replay_prefixed ~prefix_tools:warm_hooks
      ~tools:(Ldstmix.hooks mixt :: warm_hooks)
      ~prefix:wr.Logger.warm_prefix
      ~on_region:(fun () ->
        Allcache_tool.set_warming cache false;
        Sp_cpu.Interval_core.set_warming core false)
      pb
  in
  let cluster, weight =
    match pb.Pinball.kind with
    | Pinball.Region r -> (r.cluster, r.weight)
    | Pinball.Whole -> (-1, 1.0)
  in
  let cache_stats = Allcache_tool.stats cache in
  Sp_cache.Hierarchy.observe_stats cache_stats;
  Sp_obs.Metrics.incr M.warm_points;
  {
    Runstats.cluster;
    weight;
    insns = result.Replayer.retired;
    mix = Ldstmix.mix mixt;
    cache = cache_stats;
    cpi = Sp_cpu.Interval_core.cpi core;
  }

let warm_replay_points options ~warmup_insns (whole : Logger.whole) points =
  (* pre-sort by start so the capture scan and the result list match
     the sequential shared-scan reference's order exactly *)
  let sorted = Array.copy points in
  Array.sort
    (fun (a : Sp_simpoint.Simpoints.point) b ->
      compare a.start_icount b.start_icount)
    sorted;
  let regions =
    Sp_obs.Tracer.with_span ~cat:"warm" "warm-capture" (fun () ->
        Logger.capture_warm_regions ~warmup_insns whole sorted)
  in
  Sp_util.Pool.parallel_map ~jobs:options.jobs (replay_warm_point options)
    regions
  |> Array.to_list

(* The pinball-cache skeleton: produce the whole pinball by logging
   ([log]), unless a cache directory is configured and holds a valid
   entry for this (benchmark, slice, scale) key — then [on_hit] decides
   what to do with the cached artifact.  Cache failures are never
   fatal: corrupt or stale entries are quarantined with a warning and
   recomputed. *)
let whole_cached ~options ~slice_insns ~(spec : Benchspec.t) ~log ~on_hit =
  match options.pinball_cache with
  | None -> log ()
  | Some dir -> (
      let key =
        Artifact_cache.key ~benchmark:spec.Benchspec.name ~slice_insns
          ~slices_scale:options.slices_scale
      in
      let log_and_store () =
        let whole = log () in
        (try
           ignore
             (Artifact_cache.store_whole ~dir ~key ~slice_insns
                ~slices_scale:options.slices_scale whole)
         with Sys_error m | Failure m ->
           Sp_obs.Log.printf "[%s] pinball cache: could not store entry (%s)\n"
             spec.Benchspec.name m);
        whole
      in
      match Artifact_cache.find_whole ~dir ~key with
      | Artifact_cache.Hit whole ->
          on_hit ~key whole;
          whole
      | Artifact_cache.Miss -> log_and_store ()
      | Artifact_cache.Quarantined { path; reason } ->
          (* always warn, even under --quiet: data loss is news *)
          Sp_obs.Log.printf
            "[%s] pinball cache: quarantined corrupt entry %s (%s); \
             recomputing\n"
            spec.Benchspec.name path reason;
          log_and_store ())

(* Produce the whole pinball with [tools] piggybacked: either log it
   fresh, or replay the cached artifact under the same tools.  Replay
   reproduces the logged execution bit-for-bit (recorded inputs
   included), so the tools observe an identical event stream either
   way and every downstream statistic is unchanged. *)
let log_whole_cached ~options ~slice_insns ~(spec : Benchspec.t) ~tools prog =
  whole_cached ~options ~slice_insns ~spec
    ~log:(fun () ->
      Logger.log_whole ~benchmark:spec.Benchspec.name ~extra_tools:tools prog)
    ~on_hit:(fun ~key whole ->
      progressf options
        "[%s] pinball cache hit (%s): replaying cached whole pinball \
         instead of re-logging\n"
        spec.Benchspec.name key;
      ignore (Replayer.replay ~tools whole.Logger.pinball))

(* Produce the whole pinball with no instrumentation at all — a
   profile-cache hit already has every statistic the instrumented
   replay would measure.  A pinball-cache hit is then a plain load
   (zero execution); a miss re-logs on the interpreter's nil-hook
   compiled fast path and stores the artifact for next time. *)
let whole_uninstrumented ~options ~slice_insns ~(spec : Benchspec.t) prog =
  whole_cached ~options ~slice_insns ~spec
    ~log:(fun () -> Logger.log_whole ~benchmark:spec.Benchspec.name prog)
    ~on_hit:(fun ~key:_ _whole -> ())

(* What the log+profile stage produces besides the pinball, however it
   was obtained: everything downstream stages derive whole-run figures
   from.  [kind_counts] rather than the finished mix, because the mix
   (and the imix table) are cheap pure folds over it. *)
type profile_data = {
  prof_slices : Bbv_tool.slice array;
  prof_kind_counts : int array;
  prof_cache_stats : Sp_cache.Hierarchy.stats;
  prof_core_stats : Sp_cpu.Interval_core.stats;
}

(* One instrumented pass: logger + single-pass profiler (BBVs +
   ldst-mix + instruction-mix from one hook) + allcache + timing.
   The stage wants several profiles from the same replay, so it takes
   [Profile_tool] — the combined streaming consumer — rather than
   seq'ing the dedicated per-profile tools; single-profile callers
   (regional replays) keep the dedicated tools. *)
let measure_profile ~options ~slice_insns ~spec prog =
  let profile = Profile_tool.create ~slice_len:slice_insns prog in
  let cache =
    Allcache_tool.create ~config:options.cache_config
      ~prefetch:options.next_line_prefetch prog
  in
  let core = Sp_cpu.Interval_core.create ~config:options.core_config prog in
  let whole =
    log_whole_cached ~options ~slice_insns ~spec
      ~tools:
        [
          Profile_tool.hooks profile;
          Allcache_tool.hooks cache;
          Sp_cpu.Interval_core.hooks core;
        ]
      prog
  in
  Profile_tool.finish profile;
  ( whole,
    {
      prof_slices = Profile_tool.slices profile;
      prof_kind_counts = Profile_tool.kind_counts profile;
      prof_cache_stats = Allcache_tool.stats cache;
      prof_core_stats = Sp_cpu.Interval_core.stats core;
    } )

(* The whole log+profile stage, through the profile-result cache when
   one is configured: a hit replaces the instrumented whole-program
   replay with a decode of the stored slices, kind counts and whole-run
   cache/timing statistics (all bit-identical to remeasuring, since the
   logged execution is deterministic by construction).  The pinball
   itself comes from the pinball cache or an uninstrumented re-log.
   Cache trouble of any kind falls back to measuring. *)
let log_and_profile ~options ~slice_insns ~(spec : Benchspec.t) prog =
  let bench = spec.Benchspec.name in
  let measured () = measure_profile ~options ~slice_insns ~spec prog in
  let whole, data =
    match options.profile_cache with
    | None -> measured ()
    | Some dir -> (
        let key =
          Profile_store.key ~benchmark:bench ~slice_insns
            ~slices_scale:options.slices_scale
            ~warmup_insns:options.warmup_insns
        in
        let store ((whole : Logger.whole), data) =
          (try
             ignore
               (Profile_store.store ~dir ~key
                  {
                    Profile_store.benchmark = bench;
                    total_insns = whole.Logger.total_insns;
                    slices = data.prof_slices;
                    kind_counts = data.prof_kind_counts;
                    cache_stats = data.prof_cache_stats;
                    core_stats = data.prof_core_stats;
                  })
           with Sys_error m | Failure m ->
             Sp_obs.Log.printf
               "[%s] profile cache: could not store entry (%s)\n" bench m);
          (whole, data)
        in
        match Profile_store.find ~dir ~key with
        | Profile_store.Hit d -> (
            let whole = whole_uninstrumented ~options ~slice_insns ~spec prog in
            (* the entry was measured over this exact execution: its
               instruction total must agree with the pinball's *)
            if whole.Logger.total_insns = d.Profile_store.total_insns then begin
              progressf options
                "[%s] profile cache hit (%s): skipping the instrumented \
                 whole-program replay\n"
                bench key;
              ( whole,
                {
                  prof_slices = d.Profile_store.slices;
                  prof_kind_counts = d.Profile_store.kind_counts;
                  prof_cache_stats = d.Profile_store.cache_stats;
                  prof_core_stats = d.Profile_store.core_stats;
                } )
            end
            else begin
              Sp_obs.Log.printf
                "[%s] profile cache: quarantined stale entry %s (instruction \
                 total %d, pinball has %d); recomputing\n"
                bench
                (Profile_store.path ~dir ~key)
                d.Profile_store.total_insns whole.Logger.total_insns;
              ignore (Profile_store.quarantine (Profile_store.path ~dir ~key));
              store (measured ())
            end)
        | Profile_store.Miss -> store (measured ())
        | Profile_store.Quarantined { path; reason } ->
            Sp_obs.Log.printf
              "[%s] profile cache: quarantined corrupt entry %s (%s); \
               recomputing\n"
              bench path reason;
            store (measured ()))
  in
  Sp_cache.Hierarchy.observe_stats data.prof_cache_stats;
  (whole, data)

let run_benchmark ?(options = default_options) spec =
  let options = normalize options in
  let bench = spec.Benchspec.name in
  let timings = ref [] in
  Sp_obs.Metrics.incr M.benchmarks;
  Sp_obs.Tracer.with_span ~cat:"pipeline" ~args:[ ("bench", bench) ]
    "benchmark"
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let built =
    stage ~bench ~timings "build" (fun () ->
        Benchspec.build ~slice_insns:options.slice_insns
          ~slices_scale:options.slices_scale spec)
  in
  let prog = built.Benchspec.program in
  progressf options "[%s] logging whole pinball (%d planted phases)...\n"
    bench spec.Benchspec.planted_phases;
  let whole, prof =
    stage ~bench ~timings "log+profile" (fun () ->
        log_and_profile ~options ~slice_insns:options.slice_insns ~spec prog)
  in
  let slices = prof.prof_slices in
  progressf options "[%s] %d instructions, %d slices; selecting points...\n"
    bench whole.Logger.total_insns (Array.length slices);
  (* the select stage is the pluggable sampler tier: every registered
     methodology consumes the same slices and produces weighted points,
     so everything below this line is sampler-agnostic *)
  let sel =
    stage ~bench ~timings "select" (fun () ->
        Sp_simpoint.Sampler.select ~config:options.simpoint_config
          options.sampler ~slice_len:options.slice_insns slices)
  in
  Sp_obs.Metrics.incr (M.sampler_runs options.sampler);
  Sp_obs.Metrics.add M.select_points
    (Array.length sel.Sp_simpoint.Sampler.points);
  let variance =
    if options.collect_variance then
      stage ~bench ~timings "variance" (fun () ->
          Sp_simpoint.Variance.sweep ~config:options.simpoint_config
            ~ks:options.variance_ks slices)
    else []
  in
  let whole_stats =
    Runstats.of_whole ~label:"Whole" ~insns:whole.Logger.total_insns
      ~mix:(Profile_tool.ldst_mix_of_kind_counts prof.prof_kind_counts)
      ~cache:prof.prof_cache_stats
      ~cpi:(Sp_cpu.Interval_core.cpi_of_stats prof.prof_core_stats)
  in
  let native =
    Sp_perf.Native.sample_of_stats ~name:bench prof.prof_core_stats
  in
  progressf options "[%s] %d simulation points; replaying regions...\n" bench
    (Array.length sel.Sp_simpoint.Sampler.points);
  (* cold regional replays (Regional / Reduced Regional) *)
  let cold =
    stage ~bench ~timings "cold-replay" (fun () ->
        replay_points options whole sel.Sp_simpoint.Sampler.points)
  in
  (* warmed regional replays: Section IV-D's mitigation *)
  let warm =
    stage ~bench ~timings "warm-replay" (fun () ->
        warm_replay_points options ~warmup_insns:options.warmup_insns whole
          sel.Sp_simpoint.Sampler.points)
  in
  let wall = Unix.gettimeofday () -. t0 in
  progressf options "[%s] done in %.1fs\n" bench wall;
  {
    spec;
    built;
    options;
    whole_insns = whole.Logger.total_insns;
    selection =
      {
        sampler = options.sampler;
        chosen_k = sel.Sp_simpoint.Sampler.groups;
        num_slices = Array.length slices;
        points = sel.Sp_simpoint.Sampler.points;
        bic_curve = sel.Sp_simpoint.Sampler.bic_curve;
        diagnostics = sel.Sp_simpoint.Sampler.diagnostics;
      };
    whole = whole_stats;
    whole_core = prof.prof_core_stats;
    point_stats = cold;
    warm_point_stats = warm;
    native;
    variance;
    wall_seconds = wall;
    report =
      {
        jobs_used = options.jobs;
        warmup_insns_used = options.warmup_insns;
        sampler_used = Sp_simpoint.Sampler.name options.sampler;
        stages = List.rev !timings;
      };
  }

(* Whole benchmarks are the coarsest unit of independent work: fan them
   out across the pool.  The batches each benchmark issues in turn
   (replays, k-means) run on the same persistent workers, so nesting
   never multiplies domains: the pool stays capped at the machine's
   recommended domain count whatever [jobs] is. *)
let run_suite ?(options = default_options) ?(specs = Suite.all) () =
  let options = normalize options in
  Sp_obs.Tracer.with_span ~cat:"pipeline" "suite" (fun () ->
      Sp_util.Pool.parallel_map ~jobs:options.jobs
        (fun spec -> run_benchmark ~options spec)
        (Array.of_list specs)
      |> Array.to_list)

let regional r = Runstats.of_points ~label:"Regional" r.point_stats

(* The Reduced selection rule: points by descending weight until the
   requested coverage is reached (shared by the cold and warmed
   aggregations). *)
let coverage_filter ~coverage points =
  let sorted =
    List.sort
      (fun (a : Runstats.point_stats) b -> compare b.weight a.weight)
      points
  in
  let acc = ref 0.0 in
  List.filter
    (fun (p : Runstats.point_stats) ->
      if !acc >= coverage then false
      else begin
        acc := !acc +. p.weight;
        true
      end)
    sorted

let reduced_point_stats ~coverage r = coverage_filter ~coverage r.point_stats

let reduced ?coverage r =
  let coverage = Option.value ~default:r.options.coverage coverage in
  Runstats.of_points ~label:"Reduced Regional"
    (reduced_point_stats ~coverage r)

let reduced_count ?coverage r =
  let coverage = Option.value ~default:r.options.coverage coverage in
  List.length (reduced_point_stats ~coverage r)

let warmup_regional r =
  Runstats.of_points ~label:"Warmup Regional" r.warm_point_stats

let reduced_warm ?coverage r =
  let coverage = Option.value ~default:r.options.coverage coverage in
  Runstats.of_points ~label:"Reduced Warmup Regional"
    (coverage_filter ~coverage r.warm_point_stats)

let paper_insns _r (stats : Runstats.run_stats) =
  Sp_util.Scale.paper_insns_of_sim (int_of_float stats.Runstats.insns)

type sweep_profile = {
  sweep_built : Benchspec.built;
  sweep_whole : Logger.whole;
  sweep_slices : Bbv_tool.slice array;
  sweep_whole_stats : Runstats.run_stats;
  sweep_imix : (string * int) array;
}

let profile_for_sweep ?(options = default_options) ?slice_insns spec =
  (* fold the override into [options] so one value carries every knob
     to the stages below, exactly as in [run_benchmark] *)
  let options =
    match slice_insns with
    | Some si -> { options with slice_insns = si }
    | None -> options
  in
  let options = normalize options in
  let slice_insns = options.slice_insns in
  let built =
    Benchspec.build ~slice_insns ~slices_scale:options.slices_scale spec
  in
  let prog = built.Benchspec.program in
  (* the same cached log+profile stage [run_benchmark] uses: several
     profiles from one instrumented replay, or from the profile-result
     cache when one is configured *)
  let whole, prof = log_and_profile ~options ~slice_insns ~spec prog in
  {
    sweep_built = built;
    sweep_whole = whole;
    sweep_slices = prof.prof_slices;
    sweep_whole_stats =
      Runstats.of_whole ~label:"Full Run" ~insns:whole.Logger.total_insns
        ~mix:(Profile_tool.ldst_mix_of_kind_counts prof.prof_kind_counts)
        ~cache:prof.prof_cache_stats
        ~cpi:(Sp_cpu.Interval_core.cpi_of_stats prof.prof_core_stats);
    sweep_imix =
      Array.init Sp_isa.Isa.num_kinds (fun k ->
          ( Sp_isa.Isa.kind_name (Sp_isa.Isa.kind_of_code k),
            prof.prof_kind_counts.(k) ));
  }
