(** Pluggable simulation-point samplers.

    The pipeline's select stage asks one question — "which slices do we
    simulate, and with what weights?" — and the paper's verdict on
    statistical sampling depends on which methodology answers it.  This
    module abstracts that choice behind a single signature so SimPoint
    clustering, SMARTS-style systematic sampling and Ekman's two
    survey-sampling refinements (two-phase stratified sampling,
    arXiv:2603.22605; ranked-set sampling with repeated subsampling,
    arXiv:2603.22598) are interchangeable tiers: every implementation
    consumes the same projected BBV slice matrix and produces weighted
    points plus method-specific diagnostics, and everything downstream
    of select (replay, warm replay, aggregation) is sampler-agnostic.

    {!select} dispatches on the closed {!kind}, one implementation per
    constructor.  Every implementation is deterministic in (input,
    seed) and bit-identical for every [jobs] value. *)

type kind =
  | Simpoint  (** k-means phase clustering with BIC-guided k (the default) *)
  | Systematic  (** periodic SMARTS/SimFlex design via {!Systematic} *)
  | Stratified
      (** Ekman two-phase stratified sampling: a cheap pilot clustering
          stratifies the slices, the budget is Neyman-allocated across
          strata, and each stratum is sampled systematically *)
  | Rss
      (** ranked-set sampling: candidate sets are ranked by an auxiliary
          phase variable and rank-representative slices selected; the
          draw is repeated to attach an empirical variance estimate *)

val all_kinds : kind list
(** The four samplers, in the order reports list them. *)

val name : kind -> string
(** CLI name: ["simpoint"], ["systematic"], ["stratified"], ["rss"]. *)

val of_name : string -> (kind, string) result
(** Inverse of {!name}; [Error] carries a human-readable message
    listing the valid names. *)

val kind_enum : (string * kind) list
(** [(name, kind)] pairs for a cmdliner [Arg.enum]. *)

type input = {
  slices : Sp_pin.Bbv_tool.slice array;  (** per-slice metadata *)
  fits : Simpoints.fits;
      (** the benchmark's k-means memo and random-projected BBV matrix
          ({!Simpoints.projection}, one row per slice), projected once
          by {!select} and shared by every implementation *)
  slice_weights : float array;
      (** per-slice share of retired instructions; sums to 1 *)
  slice_len : int;  (** nominal slice length in instructions *)
  budget : int;
      (** maximum number of simulation points the sampler may select
          (SimPoint treats it as its cluster cap [max_k]) *)
  config : Simpoints.config;  (** seed / jobs / clustering knobs *)
}

type output = {
  kind : kind;
  points : Simpoints.point array;
      (** selected slices; in-bounds, deduplicated, weights sum to 1 *)
  groups : int;
      (** method-specific group count: clusters (SimPoint), realised
          samples (systematic), strata (stratified), rank positions
          (RSS) — surfaced as [chosen_k] in pipeline summaries *)
  bic_curve : (int * float) list;
      (** (k, BIC) pairs; non-empty only for the SimPoint path *)
  diagnostics : (string * float) list;
      (** method-specific named diagnostics (period, strata sizes,
          repeated-subsampling variance, ...) in a fixed order *)
}

val select :
  ?config:Simpoints.config ->
  ?budget:int ->
  ?fits:Simpoints.fits ->
  kind ->
  slice_len:int ->
  Sp_pin.Bbv_tool.slice array ->
  output
(** Project the slices once ({!Projection.project} under [config]) and
    run the implementation for [kind].  [fits] supplies the
    projection and k-means memo instead (checked as
    {!Simpoints.resolve_fits} does); the [Simpoint] path fills its
    memo, so a later {!Variance.sweep} given the same [fits] reuses
    those fits.  [budget] defaults to [config.max_k], making every
    sampler comparable to SimPoint's cluster cap; it is clamped to
    [1, num_slices].  The [Simpoint] path
    is bit-identical to calling {!Simpoints.select} directly.
    @raise Invalid_argument if there are no slices. *)
