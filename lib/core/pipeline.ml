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
  profile_cache : string option;
  (* shared budget of the in-memory decoded-artifact cache, in MiB
     (0 disables); result-neutral, so excluded from the API v2 options
     envelope like the cache directory *)
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

(* The tools every Regional replay measures with, cold or warm: the
   ldst mix, allcache and the interval timing model. *)
type tools = {
  mixt : Ldstmix.t;
  cache : Allcache_tool.t;
  core : Sp_cpu.Interval_core.t;
}

let create_tools options prog =
  {
    mixt = Ldstmix.create prog;
    cache =
      Allcache_tool.create ~config:options.cache_config
        ~prefetch:options.next_line_prefetch prog;
    core = Sp_cpu.Interval_core.create ~config:options.core_config prog;
  }

(* Every [reset] below restores the freshly created value (DESIGN §5i),
   so a reset set measures exactly what a fresh one would. *)
let reset_tools t =
  Ldstmix.reset t.mixt;
  Allcache_tool.reset_state t.cache;
  Sp_cpu.Interval_core.reset_state t.core

(* Two tool sets per domain, reset in place for the profile pass and at
   each point rather than rebuilt: a fresh set is ~195 KB of cache, TLB
   and predictor arrays, allocated straight into the major heap.  The
   walk measures every region under both at once, one warmed and one
   cold; the profile pass borrows the first.  The slot remembers what
   its sets were built for (the program, by identity, and the
   configurations) and is empty while the sets are lent out, so no two
   users ever share one. *)
type tool_slot = {
  slot_prog : Sp_vm.Program.t;
  slot_cache_config : Sp_cache.Config.hierarchy;
  slot_prefetch : bool;
  slot_core_config : Sp_cpu.Core_config.t;
  slot_warm : tools;
  slot_cold : tools;
}

let tool_slot : tool_slot option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* [f warm cold] gets this domain's two tool sets for [prog], in no
   particular state: it resets a set before each use *)
let with_tools options prog f =
  let warm, cold =
    match Domain.DLS.get tool_slot with
    | Some s
      when s.slot_prog == prog
           && s.slot_prefetch = options.next_line_prefetch
           && s.slot_cache_config = options.cache_config
           && s.slot_core_config = options.core_config ->
        Domain.DLS.set tool_slot None;
        (s.slot_warm, s.slot_cold)
    | Some _ | None -> (create_tools options prog, create_tools options prog)
  in
  let v = f warm cold in
  Domain.DLS.set tool_slot
    (Some
       {
         slot_prog = prog;
         slot_cache_config = options.cache_config;
         slot_prefetch = options.next_line_prefetch;
         slot_core_config = options.core_config;
         slot_warm = warm;
         slot_cold = cold;
       });
  v

(* the tools that warm: caches, TLBs and the timing model's state *)
let warm_hooks t =
  Sp_vm.Hooks.seq_all
    [ Allcache_tool.hooks t.cache; Sp_cpu.Interval_core.hooks t.core ]

let region_hooks t =
  [
    Ldstmix.hooks t.mixt;
    Allcache_tool.hooks t.cache;
    Sp_cpu.Interval_core.hooks t.core;
  ]

let point_stats t ~cluster ~weight ~retired =
  let cache_stats = Allcache_tool.stats t.cache in
  Sp_cache.Hierarchy.observe_stats cache_stats;
  {
    Runstats.cluster;
    weight;
    insns = retired;
    mix = Ldstmix.mix t.mixt;
    cache = cache_stats;
    cpi = Sp_cpu.Interval_core.cpi t.core;
  }

(* The Regional and the Warmup Regional Run as one forward walk of the
   whole pinball ({!Logger.walk}).  At each point the warm set (with
   [~warm]) is reset and warms in place over the point's clamped
   window, the cold set (with [~cold]) is reset at the region start,
   and the region runs once on the live machine with both attached.
   The cold set sees exactly the events a replay of the region's
   snapshot would, so no region is snapshotted or run twice; resetting
   the warm set at each window start is the shared-tool reference
   (DESIGN §5i).  Returns the cold and the warm statistics, each in
   start order (empty when not asked for). *)
let walk options ~warmup_insns ~cold ~warm (whole : Logger.whole) points =
  let prog = whole.Logger.pinball.Pinball.program in
  let cold_stats = ref [] and warm_stats = ref [] in
  with_tools options prog (fun w c ->
      let warm_hooks = warm_hooks w in
      let measured =
        Sp_vm.Hooks.seq_all
          ((if warm then region_hooks w else [])
          @ if cold then region_hooks c else [])
      in
      let span = if warm then "warm-point" else "cold-point" in
      Logger.walk ~warmup_insns whole points (fun i cur ->
          Sp_obs.Tracer.with_span ~cat:"warm" span @@ fun () ->
          let p = points.(i) in
          if warm then begin
            reset_tools w;
            Allcache_tool.set_warming w.cache true;
            Sp_cpu.Interval_core.set_warming w.core true;
            Logger.warm cur warm_hooks;
            Allcache_tool.set_warming w.cache false;
            Sp_cpu.Interval_core.set_warming w.core false
          end;
          if cold then reset_tools c;
          let retired = Logger.measure cur measured in
          let stats t =
            point_stats t ~cluster:p.Sp_simpoint.Simpoints.cluster
              ~weight:p.Sp_simpoint.Simpoints.weight ~retired
          in
          if warm then begin
            Sp_obs.Metrics.incr M.warm_points;
            warm_stats := stats w :: !warm_stats
          end;
          if cold then cold_stats := stats c :: !cold_stats));
  (List.rev !cold_stats, List.rev !warm_stats)

let replay_points options whole points =
  fst (walk options ~warmup_insns:0 ~cold:true ~warm:false whole points)

let warm_replay_points options ~warmup_insns whole points =
  snd (walk options ~warmup_insns ~cold:false ~warm:true whole points)

let replay_cold_warm options ~warmup_insns whole points =
  walk options ~warmup_insns ~cold:true ~warm:true whole points

(* One instrumented pass: the logger plus the combined streaming
   profiler (BBVs, ldst mix and instruction mix from one hook), allcache
   and the timing model.  It keeps [kind_counts] rather than the mix,
   since the mix and the imix table are cheap pure folds over them. *)
let measure_profile ~options ~(spec : Benchspec.t) prog =
  let benchmark = spec.Benchspec.name in
  let profile = Profile_tool.create ~slice_len:options.slice_insns prog in
  with_tools options prog @@ fun t _ ->
  reset_tools t;
  let whole =
    Logger.log_whole ~benchmark
      ~extra_tools:
        [
          Profile_tool.hooks profile;
          Allcache_tool.hooks t.cache;
          Sp_cpu.Interval_core.hooks t.core;
        ]
      prog
  in
  Profile_tool.finish profile;
  ( whole,
    {
      Profile_store.benchmark;
      total_insns = whole.Logger.total_insns;
      slices = Profile_tool.slices profile;
      kind_counts = Profile_tool.kind_counts profile;
      cache_stats = Allcache_tool.stats t.cache;
      core_stats = Sp_cpu.Interval_core.stats t.core;
    } )

(* The log+profile stage.  With a cache directory it either decodes a
   clean pair, a valid [.prof] entry and a whole pinball of the same
   execution, or measures once and stores both entries.  Cache trouble
   is never fatal: corrupt or stale entries are quarantined and a failed
   store only warns, always, even under --quiet (data loss is news). *)
let log_and_profile ~options ~(spec : Benchspec.t) prog =
  let bench = spec.Benchspec.name in
  let whole, data =
    match options.profile_cache with
    | None -> measure_profile ~options ~spec prog
    | Some dir -> (
        let { slice_insns; slices_scale; warmup_insns; _ } = options in
        let key =
          Profile_store.key ~benchmark:bench ~slice_insns ~slices_scale
            ~warmup_insns
        in
        let pb_key =
          Artifact_cache.key ~benchmark:bench ~slice_insns ~slices_scale
        in
        let warn cache fmt =
          Sp_obs.Log.printf ("[%s] %s cache: " ^^ fmt) bench cache
        in
        let corrupt cache path reason =
          warn cache "quarantined corrupt entry %s (%s); recomputing\n" path
            reason;
          None
        in
        let cached =
          match Profile_store.find ~dir ~key with
          | Profile_store.Miss -> None
          | Profile_store.Quarantined { path; reason } ->
              corrupt "profile" path reason
          | Profile_store.Hit d -> (
              match Artifact_cache.find_whole ~dir ~key:pb_key with
              | Artifact_cache.Miss -> None
              | Artifact_cache.Quarantined { path; reason } ->
                  corrupt "pinball" path reason
              | Artifact_cache.Hit whole
                when whole.Logger.total_insns = d.Profile_store.total_insns ->
                  progressf options
                    "[%s] profile cache hit (%s): skipping the instrumented \
                     whole-program replay\n"
                    bench key;
                  Some (whole, d)
              | Artifact_cache.Hit whole ->
                  (* the entry was measured over this exact execution: its
                     instruction total must agree with the pinball's *)
                  let path = Profile_store.path ~dir ~key in
                  warn "profile"
                    "quarantined stale entry %s (instruction total %d, \
                     pinball has %d); recomputing\n"
                    path d.Profile_store.total_insns whole.Logger.total_insns;
                  ignore (Profile_store.quarantine path);
                  None)
        in
        match cached with
        | Some pair -> pair
        | None ->
            let ((whole, data) as pair) = measure_profile ~options ~spec prog in
            let store cache f =
              try ignore (f ())
              with Sys_error m | Failure m ->
                warn cache "could not store entry (%s)\n" m
            in
            store "pinball" (fun () ->
                Artifact_cache.store_whole ~dir ~key:pb_key whole);
            store "profile" (fun () -> Profile_store.store ~dir ~key data);
            pair)
  in
  Sp_cache.Hierarchy.observe_stats data.Profile_store.cache_stats;
  (whole, data)

(* the whole-run statistics of a profile: the mix and CPI are pure
   folds over its kind counts and core statistics *)
let whole_stats ~label (prof : Profile_store.data) =
  Runstats.of_whole ~label ~insns:prof.total_insns
    ~mix:(Profile_tool.ldst_mix_of_kind_counts prof.kind_counts)
    ~cache:prof.cache_stats
    ~cpi:(Sp_cpu.Interval_core.cpi_of_stats prof.core_stats)

(* the order [run_report.stages] lists the stages in: warm replay runs
   before cold replay, since its walk also measures the cold regions
   that cold replay then hands over *)
let stage_order =
  [ "build"; "log+profile"; "select"; "variance"; "cold-replay"; "warm-replay" ]

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
        log_and_profile ~options ~spec prog)
  in
  let slices = prof.Profile_store.slices in
  progressf options "[%s] %d instructions, %d slices; selecting points...\n"
    bench whole.Logger.total_insns (Array.length slices);
  (* the select stage is the pluggable sampler tier: every registered
     methodology consumes the same slices and produces weighted points,
     so everything below this line is sampler-agnostic *)
  let fits, sel =
    stage ~bench ~timings "select" (fun () ->
        (* one projection and k-means memo for the benchmark: the
           variance sweep below reuses every fit select made *)
        let fits =
          Sp_simpoint.Simpoints.fits ~config:options.simpoint_config slices
        in
        ( fits,
          Sp_simpoint.Sampler.select ~config:options.simpoint_config ~fits
            options.sampler ~slice_len:options.slice_insns slices ))
  in
  Sp_obs.Metrics.incr (M.sampler_runs options.sampler);
  Sp_obs.Metrics.add M.select_points
    (Array.length sel.Sp_simpoint.Sampler.points);
  let variance =
    if options.collect_variance then
      stage ~bench ~timings "variance" (fun () ->
          Sp_simpoint.Variance.sweep ~config:options.simpoint_config ~fits
            ~ks:options.variance_ks slices)
    else []
  in
  let native =
    Sp_perf.Native.sample_of_stats ~name:bench prof.Profile_store.core_stats
  in
  progressf options "[%s] %d simulation points; replaying regions...\n" bench
    (Array.length sel.Sp_simpoint.Sampler.points);
  (* one walk measures every region both warmed (Section IV-D's
     mitigation) and cold (the Regional / Reduced Regional runs); the
     cold-replay stage only hands the cold statistics over, so the
     report keeps its stage list *)
  let cold, warm =
    stage ~bench ~timings "warm-replay" (fun () ->
        replay_cold_warm options ~warmup_insns:options.warmup_insns whole
          sel.Sp_simpoint.Sampler.points)
  in
  let cold = stage ~bench ~timings "cold-replay" (fun () -> cold) in
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
    whole = whole_stats ~label:"Whole" prof;
    whole_core = prof.Profile_store.core_stats;
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
        stages =
          List.filter_map
            (fun name -> List.find_opt (fun t -> t.stage = name) !timings)
            stage_order;
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
  let built =
    Benchspec.build ~slice_insns:options.slice_insns
      ~slices_scale:options.slices_scale spec
  in
  let prog = built.Benchspec.program in
  (* the same cached log+profile stage [run_benchmark] uses: several
     profiles from one instrumented replay, or from the profile-result
     cache when one is configured *)
  let whole, prof = log_and_profile ~options ~spec prog in
  {
    sweep_built = built;
    sweep_whole = whole;
    sweep_slices = prof.Profile_store.slices;
    sweep_whole_stats = whole_stats ~label:"Full Run" prof;
    sweep_imix =
      Array.init Sp_isa.Isa.num_kinds (fun k ->
          ( Sp_isa.Isa.kind_name (Sp_isa.Isa.kind_of_code k),
            prof.Profile_store.kind_counts.(k) ));
  }
