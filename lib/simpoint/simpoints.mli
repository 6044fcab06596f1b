(** Simulation-point selection: the SimPoint methodology end-to-end.

    Input: the per-slice Basic Block Vectors of a whole execution.
    Output: a set of representative slices (simulation points), each
    with the weight of its phase (cluster population share), plus the
    clustering metadata the experiments inspect. *)

type config = {
  max_k : int;          (** maximum number of clusters (paper: 35) *)
  proj_dim : int;       (** random-projection dimensionality (15) *)
  bic_threshold : float;(** BIC range fraction for choosing k (0.7 here; see simpoints.ml) *)
  kmeans_iters : int;   (** Lloyd iteration cap *)
  sample_cap : int;     (** max slices used to fit centroids; the full
                            set is always assigned and weighted *)
  seed : int;           (** master seed for projection and seeding *)
  jobs : int;           (** domain-pool width for k-means and the BIC
                            sweep (1 = sequential; results are
                            identical for every value) *)
}

val default_config : config

type point = {
  cluster : int;
  slice_index : int;    (** index of the representative slice *)
  start_icount : int;   (** dynamic-instruction offset of that slice *)
  length : int;         (** slice length in instructions *)
  weight : float;       (** fraction of all slices in this cluster *)
}

type t = {
  config : config;
  slice_len : int;
  num_slices : int;
  chosen_k : int;
  points : point array;     (** one per non-empty cluster, by cluster id *)
  assignment : int array;   (** cluster id per slice *)
  projected : float array array; (** projected slice vectors (for variance) *)
  bic_curve : (int * float) list; (** (k, BIC) at each evaluated k *)
}

type fits
(** One benchmark's clustering work, built once and shared by every
    consumer of its slices ({!select}, {!select_with_k},
    {!Sampler.select}, {!Variance.sweep}): the projection, the k-means
    fitting sample and a memo of each fitted k's full-set result and
    BIC.  Every fit is deterministic in k, so sharing changes no
    output.  The memo is read and written only by the domain that calls
    these functions (pool tasks just compute fits), so a [fits] value
    must not be used from two domains at once. *)

val fits : ?config:config -> Sp_pin.Bbv_tool.slice array -> fits
(** [fits ~config slices] projects [slices] ({!Projection.project}
    under [config.seed] and [config.proj_dim]) and takes the fitting
    sample; the memo starts empty.
    @raise Invalid_argument if there are no slices. *)

val projection : fits -> float array array
(** The projected slice vectors, one row per slice. *)

val resolve_fits :
  ?fits:fits -> config -> Sp_pin.Bbv_tool.slice array -> fits
(** [resolve_fits ?fits config slices] is [fits] when given, else a
    fresh [fits ~config slices].
    @raise Invalid_argument if [fits] was built from another slice
    array than [slices] (compared physically: pass the array the
    [fits] was built from) or under a different [seed], [proj_dim],
    [sample_cap] or [kmeans_iters] than [config]. *)

val map_fits :
  config -> fits -> int array -> (int -> Kmeans.result * float -> 'a) ->
  'a array
(** [map_fits config f ks g] is [g k (fit k)] for each [k] of [ks], in
    order, as one {!Sp_util.Pool.parallel_map} batch of [config.jobs]:
    memo hits are looked up before the batch, the misses are fitted and
    passed to [g] inside it, and they join the memo after it. *)

val select : ?config:config -> ?fits:fits ->
  slice_len:int -> Sp_pin.Bbv_tool.slice array -> t
(** Run projection, the BIC-guided search for k, and representative
    selection.  [fits] supplies the projection and any fits already
    made (see {!resolve_fits} for the checks); the ks the search fits
    join its memo.  The result does not depend on what the memo held.
    @raise Invalid_argument if there are no slices. *)

val select_with_k : ?config:config -> ?fits:fits ->
  slice_len:int -> k:int -> Sp_pin.Bbv_tool.slice array -> t
(** Like {!select} but with a forced cluster count (used by the MaxK
    sensitivity sweep). *)

val subsample : int -> 'a array -> 'a array
(** [subsample cap xs] is [xs] when it has at most [cap] elements, and
    otherwise [cap] elements picked by the exact integer stride
    [i * n / cap] — indices strictly increasing, in bounds, with the
    last pick falling inside the final stride.  (Used to bound the
    k-means fitting set; exposed for the property tests.) *)

val reduce : t -> coverage:float -> point array
(** Highest-weight points whose cumulative weight reaches [coverage]
    (e.g. 0.9 for the paper's "90th percentile" runs), sorted by
    descending weight. *)

val total_weight : point array -> float

val pp_point : Format.formatter -> point -> unit
