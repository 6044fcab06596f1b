(** K-means clustering with k-means++ seeding and Lloyd iterations —
    the engine behind simulation-point selection. *)

type result = {
  k : int;
  assignment : int array;        (** cluster id per point *)
  centroids : float array array; (** [k] centroids *)
  sizes : int array;             (** points per cluster *)
  distortion : float;            (** sum of squared point-centroid distances *)
}

val fit :
  ?max_iters:int -> ?seed:int -> ?jobs:int -> k:int -> float array array ->
  result
(** [fit ~k points] clusters [points] (each a dense vector of equal
    dimension).  [k] is clamped to the number of points.  Empty clusters
    are repaired by re-seeding on the farthest point.  [jobs] (default
    1) fans the nearest-centroid search of each Lloyd round across the
    {!Sp_util.Pool} domain pool; the result is bit-for-bit identical
    for every job count because the floating-point accumulation stays
    in point order.  The searches skip centroids by triangle-inequality
    bounds, and the result is bit-for-bit that of the unpruned
    algorithm: exhaustive scans, lowest index on ties.
    @raise Invalid_argument if [points] is empty or [k < 1]. *)

val assign :
  ?jobs:int -> centroids:float array array -> float array array -> int array
(** Nearest-centroid assignment for a (possibly different) point set —
    used when centroids were fitted on a subsample.  Each point gets
    the index of its nearest centroid, the lowest one on ties, exactly
    as an exhaustive scan; centroids that the centroid-to-centroid
    distances prove farther than the point's best so far are not
    measured.  The result is the same for every [jobs]. *)

val sq_distance : float array -> float array -> float

val weighted_pick : float array -> float -> int
(** [weighted_pick prefix target] returns the smallest index [i] with
    [prefix.(i) >= target], or [Array.length prefix - 1] when [target]
    exceeds the final entry — by binary search, valid because a prefix
    sum of non-negative weights is non-decreasing.  This is exactly the
    index a linear accumulate-and-compare scan over the underlying
    weights picks, for any [target]; the k-means++ seeding draw relies
    on that equivalence.
    @raise Invalid_argument if [prefix] is empty. *)

val within_cluster_variance : result -> float array array -> float array
(** Mean squared distance to the centroid, per cluster (the paper's
    Figure 4 "variance in phase similarity"). *)
