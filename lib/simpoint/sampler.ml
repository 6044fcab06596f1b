type kind = Simpoint | Systematic | Stratified | Rss

let all_kinds = [ Simpoint; Systematic; Stratified; Rss ]

let name = function
  | Simpoint -> "simpoint"
  | Systematic -> "systematic"
  | Stratified -> "stratified"
  | Rss -> "rss"

let kind_enum = List.map (fun k -> (name k, k)) all_kinds

let of_name s =
  match List.assoc_opt (String.lowercase_ascii s) kind_enum with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown sampler %S (expected %s)" s
           (String.concat "|" (List.map name all_kinds)))

type input = {
  slices : Sp_pin.Bbv_tool.slice array;
  fits : Simpoints.fits;
  slice_weights : float array;
  slice_len : int;
  budget : int;
  config : Simpoints.config;
}

type output = {
  kind : kind;
  points : Simpoints.point array;
  groups : int;
  bic_curve : (int * float) list;
  diagnostics : (string * float) list;
}

let point_of_slice inp ~cluster ~weight i =
  let s = inp.slices.(i) in
  {
    Simpoints.cluster;
    slice_index = i;
    start_icount = s.Sp_pin.Bbv_tool.start_icount;
    length = s.Sp_pin.Bbv_tool.length;
    weight;
  }

(* Auxiliary ranking variable shared by the survey samplers: each
   slice's distance from the mean projected vector, a cheap scalar
   proxy for how far its phase behaviour sits from the average. *)
let aux_variable projected =
  let n = Array.length projected in
  let dim = Array.length projected.(0) in
  let mean = Array.make dim 0.0 in
  Array.iter (Array.iteri (fun d x -> mean.(d) <- mean.(d) +. x)) projected;
  let nf = float_of_int n in
  Array.iteri (fun d x -> mean.(d) <- x /. nf) mean;
  Array.map (fun v -> sqrt (Kmeans.sq_distance v mean)) projected

(* -- SimPoint: the existing BIC-guided k-means path, verbatim ------- *)

module Simpoint_impl = struct
  let kind = Simpoint

  let run inp =
    let config = { inp.config with max_k = min inp.config.max_k inp.budget } in
    let sel =
      Simpoints.select ~config ~fits:inp.fits ~slice_len:inp.slice_len
        inp.slices
    in
    {
      kind;
      points = sel.Simpoints.points;
      groups = sel.Simpoints.chosen_k;
      bic_curve = sel.Simpoints.bic_curve;
      diagnostics =
        [
          ("chosen_k", float_of_int sel.Simpoints.chosen_k);
          ("points", float_of_int (Array.length sel.Simpoints.points));
        ];
    }
end

(* -- Systematic: periodic SMARTS design, equal weights -------------- *)

module Systematic_impl = struct
  let kind = Systematic

  let run inp =
    let n = Array.length inp.slices in
    let d = Systematic.design_for_budget ~num_slices:n ~budget:inp.budget in
    let idx = Systematic.sample_indices d ~num_slices:n in
    let m = Array.length idx in
    let w = 1.0 /. float_of_int m in
    let points =
      Array.mapi (fun j i -> point_of_slice inp ~cluster:j ~weight:w i) idx
    in
    {
      kind;
      points;
      groups = m;
      bic_curve = [];
      diagnostics =
        [
          ("period", float_of_int d.Systematic.period);
          ("offset", float_of_int d.Systematic.offset);
          ("samples", float_of_int m);
        ];
    }
end

(* -- Two-phase stratified sampling (Ekman, arXiv:2603.22605) -------- *)

module Stratified_impl = struct
  let kind = Stratified

  (* Neyman allocation with largest-remainder rounding: n_h proportional
     to N_h * S_h, every non-empty stratum keeps at least one sample
     when the budget allows, and no stratum exceeds its population. *)
  let allocate ~budget ~sizes ~scores =
    let h = Array.length sizes in
    let alloc = Array.make h 0 in
    let nonempty =
      Array.to_list (Array.init h Fun.id)
      |> List.filter (fun j -> sizes.(j) > 0)
    in
    let live = List.length nonempty in
    if budget < live then begin
      (* too tight for one-per-stratum: fund the highest-scoring strata *)
      let ranked =
        List.sort
          (fun a b ->
            match compare scores.(b) scores.(a) with 0 -> compare a b | c -> c)
          nonempty
      in
      List.iteri (fun r j -> if r < budget then alloc.(j) <- 1) ranked
    end
    else begin
      List.iter (fun j -> alloc.(j) <- 1) nonempty;
      let remaining = ref (budget - live) in
      let total = List.fold_left (fun acc j -> acc +. scores.(j)) 0.0 nonempty in
      let frac = Array.make h 0.0 in
      if total > 0.0 && !remaining > 0 then begin
        List.iter
          (fun j ->
            let room = sizes.(j) - alloc.(j) in
            let raw = float_of_int !remaining *. scores.(j) /. total in
            let extra = min room (int_of_float raw) in
            alloc.(j) <- alloc.(j) + extra;
            frac.(j) <- raw -. float_of_int extra)
          nonempty;
        let spent =
          List.fold_left (fun acc j -> acc + alloc.(j)) 0 nonempty - live
        in
        remaining := !remaining - spent
      end;
      (* hand out the rounding leftovers by largest remainder *)
      while !remaining > 0 do
        let best = ref (-1) in
        List.iter
          (fun j ->
            if
              alloc.(j) < sizes.(j)
              && (!best < 0 || frac.(j) > frac.(!best))
            then best := j)
          nonempty;
        match !best with
        | -1 -> remaining := 0 (* every stratum is saturated *)
        | j ->
            alloc.(j) <- alloc.(j) + 1;
            frac.(j) <- frac.(j) -. 1.0;
            decr remaining
      done
    end;
    alloc

  let run inp =
    let n = Array.length inp.slices in
    let budget = inp.budget in
    (* phase 1: a cheap pilot clustering of the projected matrix is the
       stratification feature; sqrt(budget) strata is the usual pilot
       size for a two-phase design *)
    let strata_k =
      max 1
        (min n (int_of_float (Float.round (sqrt (float_of_int budget)))))
    in
    let projected = Simpoints.projection inp.fits in
    let pilot =
      Kmeans.fit ~max_iters:inp.config.kmeans_iters
        ~seed:(inp.config.seed + 7919) ~jobs:inp.config.jobs ~k:strata_k
        projected
    in
    let members = Array.make pilot.Kmeans.k [] in
    for i = n - 1 downto 0 do
      let h = pilot.Kmeans.assignment.(i) in
      members.(h) <- i :: members.(h)
    done;
    let members = Array.map Array.of_list members in
    let sizes = Array.map Array.length members in
    (* within-stratum spread S_h: RMS distance to the stratum centroid *)
    let s_h =
      Array.mapi
        (fun h ms ->
          if Array.length ms = 0 then 0.0
          else
            let c = pilot.Kmeans.centroids.(h) in
            let acc =
              Array.fold_left
                (fun acc i -> acc +. Kmeans.sq_distance projected.(i) c)
                0.0 ms
            in
            sqrt (acc /. float_of_int (Array.length ms)))
        members
    in
    let scores =
      Array.mapi (fun h sz -> float_of_int sz *. s_h.(h)) sizes
    in
    let scores =
      if Array.fold_left ( +. ) 0.0 scores > 0.0 then scores
      else Array.map float_of_int sizes (* zero spread: proportional *)
    in
    let alloc = allocate ~budget ~sizes ~scores in
    let nf = float_of_int n in
    let points = ref [] in
    for h = pilot.Kmeans.k - 1 downto 0 do
      let n_h = alloc.(h) in
      if n_h > 0 then begin
        let ms = members.(h) in
        let sz = Array.length ms in
        let w = float_of_int sz /. nf /. float_of_int n_h in
        (* systematic within-stratum draw via the exact-integer stride *)
        for j = n_h - 1 downto 0 do
          points :=
            point_of_slice inp ~cluster:h ~weight:w ms.(j * sz / n_h)
            :: !points
        done
      end
    done;
    let points = Array.of_list !points in
    let samples = Array.length points in
    (* variance-reduction proxy on the auxiliary variable: fraction of
       total variance that survives within strata (lower is better) *)
    let aux = aux_variable projected in
    let var_total = Sp_util.Stats.variance aux in
    let var_within =
      Array.to_list (Array.init pilot.Kmeans.k Fun.id)
      |> Sp_util.Stats.fsum (fun h ->
             let ms = members.(h) in
             if Array.length ms < 2 then 0.0
             else
               let xs = Array.map (fun i -> aux.(i)) ms in
               float_of_int (Array.length ms) /. nf
               *. Sp_util.Stats.variance xs)
    in
    {
      kind;
      points;
      groups = strata_k;
      bic_curve = [];
      diagnostics =
        [
          ("strata", float_of_int strata_k);
          ("samples", float_of_int samples);
          ( "var_within_frac",
            if var_total > 0.0 then var_within /. var_total else 0.0 );
        ];
    }
end

(* -- Ranked-set sampling with repeated subsampling (arXiv:2603.22598) *)

module Rss_impl = struct
  let kind = Rss

  let repeats = 8

  (* Draw [set_size] distinct slice indices.  A full Fisher-Yates pass
     is cheapest when the pool is small relative to the set; rejection
     sampling otherwise.  Both consume the rng sequentially, so the
     draw is deterministic in the seed. *)
  let draw_set rng ~n ~set_size =
    if n <= 4 * set_size then begin
      let pool = Array.init n Fun.id in
      Sp_util.Rng.shuffle rng pool;
      Array.sub pool 0 (min set_size n)
    end
    else begin
      let seen = Hashtbl.create set_size in
      let out = Array.make set_size 0 in
      let filled = ref 0 in
      while !filled < set_size do
        let i = Sp_util.Rng.int rng n in
        if not (Hashtbl.mem seen i) then begin
          Hashtbl.add seen i ();
          out.(!filled) <- i;
          incr filled
        end
      done;
      out
    end

  (* One full draw of [budget] samples: for sample t, draw a ranked set
     of [set_size] candidates, order it by the auxiliary variable and
     keep the element of rank [t mod set_size].  Cycling the rank keeps
     the draw balanced across order statistics. *)
  let draw rng aux ~n ~set_size ~budget =
    Array.init budget (fun t ->
        let set = draw_set rng ~n ~set_size in
        Array.sort
          (fun a b ->
            match compare aux.(a) aux.(b) with 0 -> compare a b | c -> c)
          set;
        let r = t mod Array.length set in
        (r, set.(r)))

  let run inp =
    let n = Array.length inp.slices in
    let budget = inp.budget in
    let set_size =
      max 1 (min n (int_of_float (Float.round (sqrt (float_of_int budget)))))
    in
    let aux = aux_variable (Simpoints.projection inp.fits) in
    (* repeated subsampling: re-draw the whole selection [repeats]
       times; draw 0 is the selection we return, the spread of the
       per-draw auxiliary means is the empirical variance estimate *)
    let draws =
      Array.init repeats (fun rep ->
          let rng = Sp_util.Rng.create (inp.config.seed + (1009 * rep)) in
          draw rng aux ~n ~set_size ~budget)
    in
    let draw_means =
      Array.map
        (fun d ->
          Sp_util.Stats.mean (Array.map (fun (_, i) -> aux.(i)) d))
        draws
    in
    (* deduplicate draw 0 by slice, merging weights; cluster records the
       rank position that first selected the slice *)
    let w = 1.0 /. float_of_int budget in
    let tbl = Hashtbl.create budget in
    Array.iter
      (fun (rank, i) ->
        match Hashtbl.find_opt tbl i with
        | Some (r, acc) -> Hashtbl.replace tbl i (r, acc +. w)
        | None -> Hashtbl.add tbl i (rank, w))
      draws.(0);
    let points =
      Hashtbl.fold
        (fun i (rank, weight) acc ->
          point_of_slice inp ~cluster:rank ~weight i :: acc)
        tbl []
      |> List.sort (fun a b ->
             compare a.Simpoints.slice_index b.Simpoints.slice_index)
      |> Array.of_list
    in
    let var_between = Sp_util.Stats.variance draw_means in
    {
      kind;
      points;
      groups = set_size;
      bic_curve = [];
      diagnostics =
        [
          ("set_size", float_of_int set_size);
          ("samples", float_of_int (Array.length points));
          ("repeats", float_of_int repeats);
          ("aux_mean", Sp_util.Stats.mean draw_means);
          ("aux_draw_var", var_between);
          ( "aux_draw_se",
            sqrt (var_between /. float_of_int repeats) );
        ];
    }
end

let select ?(config = Simpoints.default_config) ?budget ?fits k ~slice_len
    slices =
  let n = Array.length slices in
  if n = 0 then invalid_arg "Sampler.select: no slices";
  let budget =
    max 1 (min n (match budget with Some b -> b | None -> config.max_k))
  in
  let fits = Simpoints.resolve_fits ?fits config slices in
  let total =
    Array.fold_left (fun acc s -> acc + s.Sp_pin.Bbv_tool.length) 0 slices
  in
  let slice_weights =
    Array.map
      (fun s ->
        float_of_int s.Sp_pin.Bbv_tool.length /. float_of_int (max 1 total))
      slices
  in
  let run =
    match k with
    | Simpoint -> Simpoint_impl.run
    | Systematic -> Systematic_impl.run
    | Stratified -> Stratified_impl.run
    | Rss -> Rss_impl.run
  in
  run { slices; fits; slice_weights; slice_len; budget; config }
