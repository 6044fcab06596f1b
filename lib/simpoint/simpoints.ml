type config = {
  max_k : int;
  proj_dim : int;
  bic_threshold : float;
  kmeans_iters : int;
  sample_cap : int;
  seed : int;
  jobs : int;
}

let default_config =
  {
    max_k = 35;
    proj_dim = Projection.default_dim;
    (* SimPoint 3.0 ships with 0.9; our scaled-down slices carry far less
       within-phase BBV noise than 30M-instruction slices, which keeps
       the BIC curve rising gently long after the true phase count, so
       the knee sits lower in the range.  0.7 reproduces the paper's
       Table II cluster counts across the suite. *)
    bic_threshold = 0.7;
    kmeans_iters = 50;
    sample_cap = 3000;
    seed = 20190101;
    jobs = 1;
  }

type point = {
  cluster : int;
  slice_index : int;
  start_icount : int;
  length : int;
  weight : float;
}

type t = {
  config : config;
  slice_len : int;
  num_slices : int;
  chosen_k : int;
  points : point array;
  assignment : int array;
  projected : float array array;
  bic_curve : (int * float) list;
}

(* Exact integer arithmetic: i * n / cap for i < cap yields cap strictly
   increasing in-bounds indices whose last pick falls in the final stride
   [(cap-1) * n / cap, n).  The float-stride form this replaces could
   round two picks onto the same index and never reached the tail. *)
let subsample cap points =
  let n = Array.length points in
  if n <= cap then points else Array.init cap (fun i -> points.(i * n / cap))

(* Fit on the (sub)sample, then produce a full-set clustering result. *)
let cluster config ~k projected sample =
  let fitted =
    Kmeans.fit ~max_iters:config.kmeans_iters ~seed:(config.seed + k)
      ~jobs:config.jobs ~k sample
  in
  if sample == projected then fitted
  else begin
    let assignment =
      Kmeans.assign ~jobs:config.jobs ~centroids:fitted.centroids projected
    in
    let sizes = Array.make fitted.k 0 in
    let distortion = ref 0.0 in
    Array.iteri
      (fun i j ->
        sizes.(j) <- sizes.(j) + 1;
        distortion :=
          !distortion +. Kmeans.sq_distance projected.(i) fitted.centroids.(j))
      assignment;
    { fitted with assignment; sizes; distortion = !distortion }
  end

let representatives (slices : Sp_pin.Bbv_tool.slice array) projected
    (r : Kmeans.result) =
  let n = Array.length projected in
  let best = Array.make r.k (-1) in
  let best_d = Array.make r.k infinity in
  for i = 0 to n - 1 do
    let j = r.assignment.(i) in
    let d = Kmeans.sq_distance projected.(i) r.centroids.(j) in
    if d < best_d.(j) then begin
      best_d.(j) <- d;
      best.(j) <- i
    end
  done;
  let nf = float_of_int n in
  let points = ref [] in
  for j = r.k - 1 downto 0 do
    if best.(j) >= 0 then begin
      let s = slices.(best.(j)) in
      points :=
        {
          cluster = j;
          slice_index = best.(j);
          start_icount = s.Sp_pin.Bbv_tool.start_icount;
          length = s.Sp_pin.Bbv_tool.length;
          weight = float_of_int r.sizes.(j) /. nf;
        }
        :: !points
    end
  done;
  Array.of_list !points

let build config ~slice_len slices projected result bic_curve =
  {
    config;
    slice_len;
    num_slices = Array.length slices;
    chosen_k = result.Kmeans.k;
    points = representatives slices projected result;
    assignment = result.Kmeans.assignment;
    projected;
    bic_curve;
  }

(* One benchmark's clustering work, shared by every consumer of its
   slices: the projection, the fitting sample and a per-k memo of
   (full-set result, BIC).  A fit is deterministic in k given the
   fields {!resolve_fits} checks, so whoever computes it first, the
   others reuse it unchanged.  Only the domain that owns the value reads
   or inserts memo entries; pool tasks compute fits and hand them back,
   so the table needs no lock. *)
type fits = {
  built_under : config;
  slices : Sp_pin.Bbv_tool.slice array;
  projection : float array array;
  sample : float array array;
  memo : (int, Kmeans.result * float) Hashtbl.t;
}

let fits ?(config = default_config) slices =
  if Array.length slices = 0 then invalid_arg "Simpoints.fits: no slices";
  let projection =
    Projection.project ~dim:config.proj_dim ~seed:config.seed slices
  in
  {
    built_under = config;
    slices;
    projection;
    sample = subsample config.sample_cap projection;
    memo = Hashtbl.create 16;
  }

let projection f = f.projection

(* The slices are compared physically: every caller builds the fits
   from the very array it then passes, and an array that merely looks
   the same is not worth a deep comparison on every call. *)
let resolve_fits ?fits:f config slices =
  match f with
  | None -> fits ~config slices
  | Some f ->
      let b = f.built_under in
      if
        b.seed <> config.seed || b.proj_dim <> config.proj_dim
        || b.sample_cap <> config.sample_cap
        || b.kmeans_iters <> config.kmeans_iters
        || f.slices != slices
      then
        invalid_arg
          "Simpoints: fits built from other slices or under another seed, \
           proj_dim, sample_cap or kmeans_iters";
      f

(* pure: safe on any domain *)
let compute_fit config f k =
  let result = cluster config ~k f.projection f.sample in
  (result, Bic.score result f.projection)

let memo_fit config f k =
  match Hashtbl.find_opt f.memo k with
  | Some v -> v
  | None ->
      let v = compute_fit config f k in
      Hashtbl.add f.memo k v;
      v

let map_fits config f ks g =
  let cached = Array.map (Hashtbl.find_opt f.memo) ks in
  let out =
    Sp_util.Pool.parallel_map ~jobs:config.jobs
      (fun (k, hit) ->
        let v = match hit with Some v -> v | None -> compute_fit config f k in
        (v, g k v))
      (Array.map2 (fun k hit -> (k, hit)) ks cached)
  in
  Array.iteri
    (fun i (v, _) ->
      if Option.is_none cached.(i) then Hashtbl.replace f.memo ks.(i) v)
    out;
  Array.map snd out

let select_with_k ?(config = default_config) ?fits ~slice_len ~k slices =
  if Array.length slices = 0 then invalid_arg "Simpoints.select_with_k: no slices";
  let f = resolve_fits ?fits config slices in
  let result, bic = memo_fit config f k in
  build config ~slice_len slices f.projection result [ (k, bic) ]

(* SimPoint 3.0's policy: score k=1 and k=maxK, then binary-search the
   smallest k whose BIC reaches threshold of the [low, high] range. *)
let select ?(config = default_config) ?fits ~slice_len slices =
  if Array.length slices = 0 then invalid_arg "Simpoints.select: no slices";
  let f = resolve_fits ?fits config slices in
  let max_k = min config.max_k (Array.length slices) in
  (* [demanded] records the ks the sequential search logic actually
     asked for, as opposed to ks whose fits were merely precomputed
     speculatively or by another consumer of [f].  The published BIC
     curve is built from the demanded set only, so selection output is
     bit-identical at every job count and whatever the memo held. *)
  let demanded = Hashtbl.create 16 in
  let eval k =
    Hashtbl.replace demanded k ();
    memo_fit config f k
  in
  (* Fill the memo for [ks] through the pool.  Each fit is
     deterministic in k alone, so precomputing one (whether it ends up
     demanded or not) changes nothing downstream. *)
  let warm ks =
    match
      List.sort_uniq compare
        (List.filter (fun k -> not (Hashtbl.mem f.memo k)) ks)
    with
    | [] -> ()
    | ks -> ignore (map_fits config f (Array.of_list ks) (fun _ _ -> ()))
  in
  (* The binary search's probes are data-dependent (each depends on the
     previous BIC), but its two anchors k=1 and k=max_k are
     independent: dispatch them through the pool. *)
  if config.jobs > 1 && max_k > 1 then warm [ 1; max_k ];
  let _, bic_lo = eval 1 in
  let _, bic_hi = eval max_k in
  let target = bic_lo +. (config.bic_threshold *. (bic_hi -. bic_lo)) in
  let rec search lo hi =
    (* invariant: bic(hi) >= target, lo < hi means candidates remain *)
    if lo >= hi then hi
    else begin
      let mid = (lo + hi) / 2 in
      (* Speculative probes: this round needs bic(mid), and the next
         round needs one of the two possible midpoints of the halved
         interval.  Fitting all three concurrently hides the next
         round's fit behind this one; the probe that goes unused only
         warmed the memo. *)
      if config.jobs > 1 then
        warm [ mid; (lo + mid) / 2; (mid + 1 + hi) / 2 ];
      let _, bic = eval mid in
      if bic >= target then search lo mid else search (mid + 1) hi
    end
  in
  let chosen = if bic_hi <= bic_lo then 1 else search 1 max_k in
  let result, _ = eval chosen in
  let curve =
    Hashtbl.fold
      (fun k () acc -> (k, snd (Hashtbl.find f.memo k)) :: acc)
      demanded []
    |> List.sort compare
  in
  build config ~slice_len slices f.projection result curve

let total_weight points = Array.fold_left (fun acc p -> acc +. p.weight) 0.0 points

let reduce t ~coverage =
  let sorted = Array.copy t.points in
  Array.sort (fun a b -> compare b.weight a.weight) sorted;
  let acc = ref 0.0 in
  let keep = ref [] in
  (try
     Array.iter
       (fun p ->
         if !acc >= coverage then raise Exit;
         keep := p :: !keep;
         acc := !acc +. p.weight)
       sorted
   with Exit -> ());
  Array.of_list (List.rev !keep)

let pp_point ppf p =
  Format.fprintf ppf "cluster %d: slice %d @%d (+%d insns), weight %.4f"
    p.cluster p.slice_index p.start_icount p.length p.weight
