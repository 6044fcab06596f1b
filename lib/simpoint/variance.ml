type sweep_point = {
  k : int;
  avg_variance : float;
  max_variance : float;
  distortion : float;
}

(* Measure one full-set clustering: centroids are recomputed as the
   mean of each cluster's members, and the average runs over non-empty
   clusters only ([within_cluster_variance] reports 0.0 for an empty
   one, which would drag the mean down). *)
let of_fit projected (fitted : Kmeans.result) =
  let k = fitted.Kmeans.k and assignment = fitted.Kmeans.assignment in
  let dim = Array.length projected.(0) in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let sizes = Array.make k 0 in
  Array.iteri
    (fun i j ->
      sizes.(j) <- sizes.(j) + 1;
      let p = projected.(i) and s = sums.(j) in
      for x = 0 to dim - 1 do
        s.(x) <- s.(x) +. p.(x)
      done)
    assignment;
  let centroids =
    Array.mapi
      (fun j s ->
        if sizes.(j) = 0 then s
        else Array.map (fun x -> x /. float_of_int sizes.(j)) s)
      sums
  in
  let distortion = ref 0.0 in
  Array.iteri
    (fun i j ->
      distortion :=
        !distortion +. Kmeans.sq_distance projected.(i) centroids.(j))
    assignment;
  let result =
    { Kmeans.k; assignment; centroids; sizes; distortion = !distortion }
  in
  let variances = Kmeans.within_cluster_variance result projected in
  let nonempty =
    Array.of_list
      (List.filteri (fun j _ -> sizes.(j) > 0) (Array.to_list variances))
  in
  {
    k;
    avg_variance = Sp_util.Stats.mean nonempty;
    max_variance = Array.fold_left Float.max 0.0 variances;
    distortion = !distortion;
  }

(* Each k is an independent clustering problem: the ks missing from the
   memo are fitted and measured in one pool batch (input order is
   preserved). *)
let sweep ?(config = Simpoints.default_config) ?fits ~ks slices =
  let f = Simpoints.resolve_fits ?fits config slices in
  Simpoints.map_fits config f (Array.of_list ks) (fun _ (fitted, _) ->
      of_fit (Simpoints.projection f) fitted)
  |> Array.to_list

let at_k ?config ~k slices = List.hd (sweep ?config ~ks:[ k ] slices)
