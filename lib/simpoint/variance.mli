(** Within-cluster variance analysis: reproduces the quantity plotted in
    the paper's Figure 4 — how the average phase-similarity variance
    inside clusters grows as the number of available clusters shrinks. *)

type sweep_point = {
  k : int;
  avg_variance : float;  (** mean over non-empty clusters of within-cluster variance *)
  max_variance : float;
  distortion : float;
}

val at_k :
  ?config:Simpoints.config -> k:int -> Sp_pin.Bbv_tool.slice array -> sweep_point
(** Cluster at exactly [k] and measure variance. *)

val sweep :
  ?config:Simpoints.config -> ?fits:Simpoints.fits -> ks:int list ->
  Sp_pin.Bbv_tool.slice array -> sweep_point list
(** Variance at each cluster count in [ks] (Figure 4's x-axis).  [fits]
    shares the projection and the fits of an earlier {!Simpoints.select}
    on the same slices (checked as {!Simpoints.resolve_fits} does);
    without it the sweep builds its own.  The ks it fits join the memo,
    and the result does not depend on what the memo held. *)
