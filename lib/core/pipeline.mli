(** The paper's experimental pipeline (Figure 2), end to end:

    compile (build the synthetic benchmark) -> log a Whole Pinball while
    profiling (BBVs, instruction mix, [allcache], the Sniper-model
    timing and the native-hardware counters all piggyback on the single
    logging pass) -> select simulation points -> one forward walk that
    measures every region twice at once, under tools warmed over its
    window (Warmup Regional) and under cold tools (Regional / Reduced
    Regional).

    [run_benchmark] does all of the above for one workload and returns
    every statistic the evaluation section consumes; [run_suite] maps it
    over the suite. *)

type options = {
  slice_insns : int;        (** slice length (default: 30 paper-Minsn) *)
  slices_scale : float;     (** scales whole-run length; tests use < 1 *)
  warmup_insns : int;       (** warmup window per point (500 paper-M) *)
  coverage : float;         (** percentile for Reduced runs (0.9) *)
  sampler : Sp_simpoint.Sampler.kind;
      (** which registered sampling methodology the select stage runs
          ([Simpoint], the default, or [Systematic] / [Stratified] /
          [Rss]); everything downstream of select is sampler-agnostic *)
  simpoint_config : Sp_simpoint.Simpoints.config;
  cache_config : Sp_cache.Config.hierarchy;  (** Table I *)
  next_line_prefetch : bool;
      (** enable the allcache next-line prefetcher (ablation) *)
  core_config : Sp_cpu.Core_config.t;        (** Table III *)
  variance_ks : int list;   (** cluster counts for the Figure 4 sweep *)
  collect_variance : bool;
  progress : bool;          (** progress lines on stderr *)
  jobs : int;
      (** domain-pool width for the parallel stages (suite fan-out,
          k-means, variance sweep).  1 (the default) runs fully
          sequentially; any value produces bit-for-bit identical
          results, only wall-clock changes. *)
  profile_cache : string option;
      (** the cache directory: per benchmark, the log+profile stage's
          outputs as a [.prof] entry ({!Sp_pinball.Profile_store}) and
          the whole pinball as a [.pb] entry
          ({!Sp_pinball.Artifact_cache}).  The stage either decodes both,
          executing nothing, or logs once under the profiling tools and
          stores both — bit-identical either way.  Corrupt or stale
          entries are quarantined and recomputed, and a failed store
          only warns: the cache never fails a run.  [None] (the
          default) disables it. *)
  mem_cache_mb : int;
      (** shared budget (MiB) of the in-memory decoded-artifact LRU
          ({!Sp_pinball.Mem_cache}) fronting both kinds of cache entry:
          a hit skips the disk read, checksum sweep and decode.
          Strictly a performance knob — results are bit-identical with
          it on, off or thrashing — so it is excluded from the API v2
          options envelope, like the cache directory.  0 disables; the
          default is a small sane cap (64). *)
}

val default_options : options

val normalize : options -> options
(** Resolve derived knobs once ([simpoint_config] inherits [jobs] when
    parallel; a negative [mem_cache_mb] reads as 0, and the budget is
    published to the in-memory cache), producing the single value every
    stage receives.  Idempotent; the entry points apply it themselves,
    so callers only need it when invoking stage building blocks
    directly. *)

(** What simulation-point selection found (the clustering metadata,
    minus the bulky per-slice vectors). *)
type selection_summary = {
  sampler : Sp_simpoint.Sampler.kind;  (** methodology that selected *)
  chosen_k : int;
      (** method-specific group count ({!Sp_simpoint.Sampler.output}
          [groups]): clusters, samples, strata or rank positions *)
  num_slices : int;
  points : Sp_simpoint.Simpoints.point array;
  bic_curve : (int * float) list;  (** non-empty only for [Simpoint] *)
  diagnostics : (string * float) list;
      (** the sampler's method-specific diagnostics record *)
}

type stage_timing = { stage : string; seconds : float }

(** Machine-readable account of where a benchmark's wall time went:
    one entry per pipeline stage, always in this order: build,
    log+profile, select, variance, cold-replay, warm-replay.  (Warm
    replay executes first and measures the cold regions too, so
    cold-replay only hands their statistics over.)  Collected
    unconditionally — it does not require tracing to be enabled. *)
type run_report = {
  jobs_used : int;  (** the effective [options.jobs] for this run *)
  warmup_insns_used : int;
      (** the effective [options.warmup_insns] for this run *)
  sampler_used : string;
      (** CLI name of the select-stage sampler ({!Sp_simpoint.Sampler.name}) *)
  stages : stage_timing list;
}

val run_report_to_json : run_report -> Sp_obs.Json.t

type bench_result = {
  spec : Sp_workloads.Benchspec.t;
  built : Sp_workloads.Benchspec.built;
  options : options;
  whole_insns : int;
  selection : selection_summary;
  whole : Runstats.run_stats;
  whole_core : Sp_cpu.Interval_core.stats;
      (** timing breakdown of the whole run (CPI-stack reporting) *)
  point_stats : Runstats.point_stats list;       (** cold Regional replays *)
  warm_point_stats : Runstats.point_stats list;  (** Warmup Regional *)
  native : Sp_perf.Perf_counters.sample;
  variance : Sp_simpoint.Variance.sweep_point list;
  wall_seconds : float;  (** real host time spent on this benchmark *)
  report : run_report;   (** per-stage wall-time breakdown *)
}

val run_benchmark :
  ?options:options -> Sp_workloads.Benchspec.t -> bench_result

val run_suite :
  ?options:options -> ?specs:Sp_workloads.Benchspec.t list ->
  unit -> bench_result list
(** Defaults to the full 29-benchmark suite.  Benchmarks fan out across
    the {!Sp_util.Pool} domain pool ([options.jobs] wide); results come
    back in [specs] order and are identical to a sequential run.

    [options] is the single configuration entry point ({!normalize} is
    its sole derivation point — the [?jobs] alias that once shadowed
    [options.jobs] was removed in the v2 API redesign; set
    [options.jobs] instead). *)

(** {1 Aggregations over a result} *)

val regional : bench_result -> Runstats.run_stats

val reduced : ?coverage:float -> bench_result -> Runstats.run_stats
(** The Reduced Regional Run: highest-weight points covering
    [coverage] of execution (default: the result's option, 0.9). *)

val reduced_count : ?coverage:float -> bench_result -> int

val warmup_regional : bench_result -> Runstats.run_stats

val reduced_warm : ?coverage:float -> bench_result -> Runstats.run_stats
(** Reduced Regional aggregation over the *warmed* replays — the
    methodology Sniper's PinPoints flow uses for timing runs. *)

val reduced_point_stats :
  coverage:float -> bench_result -> Runstats.point_stats list

val paper_insns : bench_result -> Runstats.run_stats -> float
(** Paper-equivalent instruction count of a run (applies {!Sp_util.Scale}). *)

(** {1 Building blocks for sweeps}

    The Figure 3 sensitivity sweeps and the ablations re-cluster and
    re-replay one workload many times; these expose the pipeline's
    stages individually so the expensive profiling pass runs once. *)

type sweep_profile = {
  sweep_built : Sp_workloads.Benchspec.built;
  sweep_whole : Sp_pinball.Logger.whole;
  sweep_slices : Sp_pin.Bbv_tool.slice array;
  sweep_whole_stats : Runstats.run_stats;
  sweep_imix : (string * int) array;
      (** dynamic instruction mix, [(Isa.kind_name, count)] per kind
          code — a free by-product of the single-pass profile stage *)
}

val profile_for_sweep :
  ?options:options -> ?slice_insns:int -> Sp_workloads.Benchspec.t ->
  sweep_profile
(** Build, log and profile once, keeping the slices and the whole
    pinball for repeated re-clustering.  [slice_insns] overrides the
    BBV granularity (Figure 3(b) collects 5-Minsn micro-slices). *)

val replay_points :
  options -> Sp_pinball.Logger.whole -> Sp_simpoint.Simpoints.point array ->
  Runstats.point_stats list
(** Cold Regional replays of the given points, in start order: one
    {!Sp_pinball.Logger.walk} with no warm window resets one tool set
    at each region start and measures the region on the live machine,
    bit-identical to replaying the region's snapshot under fresh tools. *)

val warm_replay_points :
  options -> warmup_insns:int -> Sp_pinball.Logger.whole ->
  Sp_simpoint.Simpoints.point array -> Runstats.point_stats list
(** Warmup Regional replays with the given warmup window, in start
    order, from one forward {!Sp_pinball.Logger.walk}: at each point,
    the walk's one set of cache and timing tools is reset, warms in
    place over the point's clamped window, and measures the region on
    the live machine.  Sequential
    within the benchmark; bit-identical to the shared-scan reference
    (one set of warm tools reset at each window start) that the
    equivalence suite keeps. *)

val replay_cold_warm :
  options -> warmup_insns:int -> Sp_pinball.Logger.whole ->
  Sp_simpoint.Simpoints.point array ->
  Runstats.point_stats list * Runstats.point_stats list
(** [(replay_points, warm_replay_points)] of the same points from one
    walk, as {!run_benchmark} computes them: each region runs once
    under both tool sets at the same time, the warmed one and a cold
    one reset at the region start. *)
