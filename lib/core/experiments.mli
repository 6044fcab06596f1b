(** One generator per table and figure of the paper's evaluation.

    Suite-wide figures consume a list of {!Pipeline.bench_result} so the
    expensive per-benchmark pipeline runs once and every figure reuses
    it; the xalancbmk sensitivity sweeps (Figure 3) and the ablations
    run their own profiling.  Each generator returns rendered text
    tables; headline numbers are also returned structurally where a
    comparison against the paper's claims is meaningful. *)

open Sp_util

val table1 : unit -> Table.t
(** Table I: the [allcache] hierarchy configuration. *)

val table2 : Pipeline.bench_result list -> Table.t
(** Table II: simulation points and 90th-percentile points per
    benchmark, measured against the paper's values. *)

val table2_extended :
  ?options:Pipeline.options -> unit -> Table.t
(** The paper's future work, done: simulation points for the 14 CPU2017
    workloads Table II omits (the authors' Whole-Pinball logging did not
    finish on them; ours has no such constraint).  No paper column —
    these rows are predictions. *)

val table3 : unit -> string
(** Table III: the simulated system configuration. *)

val fig3a : ?options:Pipeline.options -> ?max_ks:int list -> unit -> Table.t
(** Figure 3(a): MaxK sensitivity for 623.xalancbmk_s — instruction mix
    and cache miss rates per MaxK versus the full run. *)

val fig3b : ?options:Pipeline.options -> ?slice_minsns:int list -> unit -> Table.t
(** Figure 3(b): slice-size sensitivity at MaxK 35, from one BBV
    collection at 5-Minsn micro-slices re-aggregated per size. *)

val fig4 : Pipeline.bench_result list -> Table.t
(** Figure 4: average within-cluster variance per cluster-count. *)

val fig4_chart : Pipeline.bench_result list -> string
(** ASCII rendering of Figure 4's shape: suite-mean within-cluster
    variance vs cluster count. *)

val fig5 : Pipeline.bench_result list -> Table.t
(** Figure 5: dynamic instruction counts and (modelled) execution times
    of Whole / Regional / Reduced Regional runs, with reduction
    factors. *)

val fig6 : Pipeline.bench_result list -> Table.t
(** Figure 6: simulation-point weight distribution per benchmark with
    the 90th-percentile cut. *)

val fig7 : Pipeline.bench_result list -> Table.t
(** Figure 7: instruction-distribution comparison across run kinds. *)

val fig8 : Pipeline.bench_result list -> Table.t
(** Figure 8: cache miss rates across run kinds including the Warmup
    Regional Run. *)

val fig9 : ?percentiles:int list -> Pipeline.bench_result list -> Table.t
(** Figure 9: suite-average error rates and execution time versus the
    weight percentile of simulation points kept. *)

val fig9_chart : Pipeline.bench_result list -> string
(** ASCII rendering of Figure 9's shape: mix error (rising) and
    execution time (falling) as the kept percentile shrinks. *)

val fig10 : Pipeline.bench_result list -> Table.t
(** Figure 10: L3 access counts, Whole vs Regional vs Reduced. *)

val fig12 : Pipeline.bench_result list -> Table.t
(** Figure 12: CPI — native (perf) vs Sniper on Regional and Reduced
    Regional Pinballs. *)

(** {1 Ablations} (design choices called out in DESIGN.md) *)

val ablation_bic : ?options:Pipeline.options -> ?thresholds:float list -> unit -> Table.t
(** Chosen k versus BIC threshold, on 623.xalancbmk_s. *)

val ablation_projection : ?options:Pipeline.options -> ?dims:int list -> unit -> Table.t
(** Chosen k and n90 versus random-projection dimensionality. *)

val ablation_warmup :
  ?options:Pipeline.options -> ?windows_minsn:int list -> Pipeline.bench_result list -> Table.t
(** Suite-average L3 miss-rate error versus warmup-window length —
    extends Figure 8's single warmup point into a curve.  Re-runs the
    warmup pass per window on a subset of benchmarks. *)

(** {1 Extensions} (related-work methodologies built on the same substrates) *)

val sampling :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  Table.t
(** SimPoint vs SMARTS/SimFlex-style systematic sampling: per-slice CPI
    time series are measured once, then both estimators predict the
    whole-run CPI from their samples — SimPoint with weighted
    representatives, systematic sampling with a uniform design of the
    same budget plus a 95%% confidence interval. *)

val samplers :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  Table.t
(** Sampler-vs-sampler error/cost comparison over the suite (default:
    all 29 Table II workloads): each registered {!Sp_simpoint.Sampler}
    methodology selects points over the same profiled slices, its
    points are replayed cold and warm, and the table reports average
    point count, simulated-instruction budget (measured regions plus
    warmup windows), suite-mean warm CPI error and the signed pooled
    L3 miss-rate error of both replay styles. *)

val smarts :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list ->
  ?period:int -> unit -> Table.t
(** Full SMARTS: functional warming runs continuously (caches and
    branch predictor always updated) while detailed measurement toggles
    on for every [period]-th slice.  Unlike SimPoint's bounded pre-
    region warmup, continuous warming carries the LLC history, so the
    L3 miss-rate error that warmup cannot remove largely disappears —
    at the cost of a full-length (if cheap) functional pass. *)

val vli :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  Table.t
(** Variable-length intervals (Hamerly et al., SimPoint 3.0) vs fixed
    30 M slices: interval counts, chosen k, and weighted instruction-mix
    error of the replayed points under each slicing. *)

val subset : Pipeline.bench_result list -> Table.t * Table.t
(** Benchmark subsetting via PCA + average-linkage hierarchical
    clustering over per-benchmark characterisation vectors (the
    methodology of the paper's refs [22]/[24]/[26]).  Returns the
    explained-variance table and the cluster/representative table. *)

val statcache :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  Table.t
(** Reuse-distance-based statistical cache modelling (refs [34]/[35]):
    predicted LRU miss rates from a whole-run reuse profile vs the
    measured [allcache] rates, per benchmark and cache level. *)

val ablation_roi :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  Table.t
(** Region-of-interest ablation: how many clusters come from the
    initialisation prefix, and what SimPoint finds when profiling is
    restricted to the workload proper (real PinPoints brackets the ROI
    with SSC marks and skips init). *)

val ablation_prefetch :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  Table.t
(** Cold-region LLC error with and without a next-line prefetcher: how
    much of the cold-start artifact simple hardware prefetching would
    hide. *)

val timevary :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  string
(** Time-varying behaviour (the phase plots of Sherwood et al. and the
    paper's ref [7]): per-slice CPI over the course of each benchmark,
    rendered as an ASCII series — the raw phenomenon SimPoint exploits. *)

val cpistack : Pipeline.bench_result list -> Table.t
(** Whole-run cycle breakdown per benchmark (base / branch / memory), a
    Sniper-style CPI stack from the interval model. *)

val models :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list -> unit ->
  Table.t
(** Model independence: the same simulation points predict CPI under
    both the out-of-order interval model and a simple in-order model —
    SimPoint samples code signatures, not timing. *)

val rate :
  ?options:Pipeline.options -> ?specs:Sp_workloads.Benchspec.t list ->
  ?copies:int -> unit -> Table.t
(** SPECrate-style throughput mode: N concurrent copies of a benchmark
    interleaved over private L1/L2 and a shared L3, reporting the
    LLC interference relative to a single copy. *)

(** {1 Headline comparisons for EXPERIMENTS.md} *)

type headline = {
  metric : string;
  paper : string;
  measured : string;
}

val headlines : Pipeline.bench_result list -> headline list
(** The paper's headline claims next to our measured values. *)

(** {1 The registry}

    Every table and figure above, by name, in print order: the one list
    [specrepro experiment] serves and the golden test pins. *)

type output =
  | Table of Table.t
  | Text of string  (** a chart or a preformatted block *)

val render : output -> string
(** The output exactly as printed: the rendered table or the text, then
    a newline. *)

type context = {
  options : Pipeline.options;
  specs : Sp_workloads.Benchspec.t list option;
      (** the benchmarks of the suite and of every experiment that takes
          a list; [None] keeps each experiment's own default *)
  suite : Pipeline.bench_result list Lazy.t;
      (** one suite run over [specs], shared by every suite-wide
          figure *)
}

val context : ?specs:Sp_workloads.Benchspec.t list -> Pipeline.options -> context
(** A context whose suite runs on first use. *)

type entry = { name : string; run : context -> output list }
(** An experiment: its name and its outputs, in print order. *)

val registry : entry list
val find : string -> entry option
