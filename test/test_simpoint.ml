(* Tests for Sp_simpoint: projection, k-means, BIC, selection,
   aggregation, variance. *)

open Sp_simpoint

let mk_slice index start length bbv =
  { Sp_pin.Bbv_tool.index; start_icount = start; length; bbv }

(* synthetic slices with [k] planted phases: phase p uses blocks
   [10p .. 10p+2]; [per_phase] slices each, laid out round-robin *)
let planted_slices ?(noise = 0) ~phases ~per_phase () =
  let rng = Sp_util.Rng.create 17 in
  let n = phases * per_phase in
  Array.init n (fun i ->
      let p = i mod phases in
      let jitter b = max 1 (b + if noise = 0 then 0 else Sp_util.Rng.int rng noise) in
      mk_slice i (i * 100) 100
        [|
          ((10 * p), jitter 60);
          ((10 * p) + 1, jitter 30);
          ((10 * p) + 2, jitter 10);
        |])

(* ------------------------------------------------------------------ *)
(* Projection *)

let test_projection_deterministic () =
  let slices = planted_slices ~phases:3 ~per_phase:5 () in
  let a = Projection.project ~seed:1 slices in
  let b = Projection.project ~seed:1 slices in
  Alcotest.(check bool) "same" true (a = b);
  let c = Projection.project ~seed:2 slices in
  Alcotest.(check bool) "seed matters" true (a <> c)

let test_projection_dim () =
  let slices = planted_slices ~phases:2 ~per_phase:2 () in
  let p = Projection.project ~dim:7 ~seed:1 slices in
  Array.iter (fun v -> Alcotest.(check int) "dim" 7 (Array.length v)) p

let test_projection_scale_invariant () =
  (* two slices with proportional BBVs project to the same point
     (BBVs are L1-normalised) *)
  let s1 = mk_slice 0 0 100 [| (1, 50); (2, 50) |] in
  let s2 = mk_slice 1 100 200 [| (1, 100); (2, 100) |] in
  let p = Projection.project ~seed:3 [| s1; s2 |] in
  Array.iteri
    (fun d x -> Alcotest.(check (float 1e-12)) (string_of_int d) x p.(1).(d))
    p.(0)

let test_matrix_entry_range () =
  for b = 0 to 50 do
    for d = 0 to 14 do
      let x = Projection.matrix_entry ~seed:9 ~block:b ~dim:d in
      Alcotest.(check bool) "in [-1,1]" true (x >= -1.0 && x <= 1.0)
    done
  done

(* ------------------------------------------------------------------ *)
(* Kmeans *)

let blob_points ~k ~per ~spread =
  let rng = Sp_util.Rng.create 5 in
  Array.init (k * per) (fun i ->
      let c = i mod k in
      Array.init 4 (fun d ->
          (float_of_int c *. 10.0 *. float_of_int (d + 1))
          +. Sp_util.Rng.gaussian rng ~mu:0.0 ~sigma:spread))

let test_kmeans_k1 () =
  let points = [| [| 0.0; 0.0 |]; [| 2.0; 4.0 |]; [| 4.0; 2.0 |] |] in
  let r = Kmeans.fit ~k:1 points in
  Alcotest.(check (float 1e-9)) "centroid x" 2.0 r.Kmeans.centroids.(0).(0);
  Alcotest.(check (float 1e-9)) "centroid y" 2.0 r.Kmeans.centroids.(0).(1);
  Alcotest.(check int) "all assigned" 3 r.Kmeans.sizes.(0)

let test_kmeans_separated_blobs () =
  let points = blob_points ~k:3 ~per:30 ~spread:0.01 in
  let r = Kmeans.fit ~k:3 points in
  (* members of the same blob share a cluster *)
  for i = 0 to 89 do
    Alcotest.(check int)
      (Printf.sprintf "point %d" i)
      r.Kmeans.assignment.(i mod 3)
      r.Kmeans.assignment.(i)
  done;
  Alcotest.(check bool) "tiny distortion" true (r.Kmeans.distortion < 1.0)

let test_kmeans_sizes_sum () =
  let points = blob_points ~k:4 ~per:10 ~spread:1.0 in
  let r = Kmeans.fit ~k:5 points in
  Alcotest.(check int) "sizes sum to n" 40 (Array.fold_left ( + ) 0 r.Kmeans.sizes)

let test_kmeans_k_clamped () =
  let points = [| [| 1.0 |]; [| 2.0 |] |] in
  let r = Kmeans.fit ~k:10 points in
  Alcotest.(check int) "k clamped" 2 r.Kmeans.k

let prop_assign_nearest =
  QCheck.Test.make ~name:"assignment is nearest centroid" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Sp_util.Rng.create seed in
      let points =
        Array.init 40 (fun _ -> Array.init 3 (fun _ -> Sp_util.Rng.float rng 10.0))
      in
      let r = Kmeans.fit ~seed ~k:4 points in
      Array.for_all
        (fun i ->
          let d_assigned =
            Kmeans.sq_distance points.(i) r.Kmeans.centroids.(r.Kmeans.assignment.(i))
          in
          Array.for_all
            (fun c -> Kmeans.sq_distance points.(i) c >= d_assigned -. 1e-9)
            r.Kmeans.centroids)
        (Array.init 40 (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* Bic *)

let test_bic_prefers_true_k () =
  let points = blob_points ~k:3 ~per:50 ~spread:0.05 in
  let score k = Bic.score (Kmeans.fit ~k points) points in
  Alcotest.(check bool) "k=3 beats k=1" true (score 3 > score 1);
  Alcotest.(check bool) "k=3 beats k=2" true (score 3 > score 2)

let test_pick_k () =
  Alcotest.(check int) "threshold 0.9"
    3
    (Bic.pick_k ~threshold:0.9 [ (1, 0.0); (2, 50.0); (3, 95.0); (4, 100.0) ]);
  Alcotest.(check int) "threshold 0.4"
    2
    (Bic.pick_k ~threshold:0.4 [ (1, 0.0); (2, 50.0); (3, 95.0); (4, 100.0) ]);
  Alcotest.(check int) "flat curve -> smallest"
    1
    (Bic.pick_k ~threshold:0.9 [ (3, 5.0); (1, 5.0); (2, 5.0) ])

(* ------------------------------------------------------------------ *)
(* Simpoints *)

let test_select_recovers_phases () =
  let slices = planted_slices ~phases:4 ~per_phase:50 ~noise:3 () in
  let sel = Simpoints.select ~slice_len:100 slices in
  Alcotest.(check bool)
    (Printf.sprintf "k=%d close to 4" sel.Simpoints.chosen_k)
    true
    (sel.Simpoints.chosen_k >= 4 && sel.Simpoints.chosen_k <= 6);
  (* weights sum to 1 *)
  Alcotest.(check (float 1e-9)) "weights" 1.0
    (Simpoints.total_weight sel.Simpoints.points);
  (* representatives belong to their clusters *)
  Array.iter
    (fun (p : Simpoints.point) ->
      Alcotest.(check int) "rep in cluster" p.cluster
        sel.Simpoints.assignment.(p.slice_index))
    sel.Simpoints.points

let test_select_with_k () =
  let slices = planted_slices ~phases:3 ~per_phase:20 () in
  let sel = Simpoints.select_with_k ~slice_len:100 ~k:2 slices in
  Alcotest.(check int) "forced k" 2 sel.Simpoints.chosen_k

let test_reduce () =
  let slices = planted_slices ~phases:5 ~per_phase:20 ~noise:2 () in
  let sel = Simpoints.select_with_k ~slice_len:100 ~k:5 slices in
  let reduced = Simpoints.reduce sel ~coverage:0.9 in
  let w = Simpoints.total_weight reduced in
  Alcotest.(check bool) "covers 90%" true (w >= 0.9);
  (* minimality: dropping the last (smallest) kept point goes below 0.9 *)
  let sorted = Array.copy reduced in
  Array.sort (fun (a : Simpoints.point) b -> compare a.weight b.weight) sorted;
  Alcotest.(check bool) "minimal" true
    (w -. sorted.(0).Simpoints.weight < 0.9);
  (* sorted by descending weight *)
  let ws = Array.map (fun (p : Simpoints.point) -> p.weight) reduced in
  let sorted_desc = Array.copy ws in
  Array.sort (fun a b -> compare b a) sorted_desc;
  Alcotest.(check bool) "descending" true (ws = sorted_desc)

let test_select_empty () =
  try
    ignore (Simpoints.select ~slice_len:100 [||]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Aggregate *)

let test_aggregate_merge () =
  let micro =
    Array.init 7 (fun i -> mk_slice i (i * 10) 10 [| (i mod 3, 10) |])
  in
  let merged = Aggregate.merge ~factor:3 micro in
  Alcotest.(check int) "groups" 3 (Array.length merged);
  Alcotest.(check int) "first length" 30 merged.(0).Sp_pin.Bbv_tool.length;
  Alcotest.(check int) "tail partial" 10 merged.(2).Sp_pin.Bbv_tool.length;
  (* total mass preserved *)
  let mass slices =
    Array.fold_left
      (fun acc (s : Sp_pin.Bbv_tool.slice) ->
        acc + Array.fold_left (fun a (_, c) -> a + c) 0 s.Sp_pin.Bbv_tool.bbv)
      0 slices
  in
  Alcotest.(check int) "mass preserved" (mass micro) (mass merged);
  (* merged bbvs sorted by block id *)
  Array.iter
    (fun (s : Sp_pin.Bbv_tool.slice) ->
      let ids = Array.map fst s.Sp_pin.Bbv_tool.bbv in
      let sorted = Array.copy ids in
      Array.sort compare sorted;
      Alcotest.(check bool) "sorted" true (ids = sorted))
    merged

let test_aggregate_identity () =
  let micro = planted_slices ~phases:2 ~per_phase:3 () in
  Alcotest.(check bool) "factor 1 is identity" true
    (Aggregate.merge ~factor:1 micro == micro)

(* ------------------------------------------------------------------ *)
(* Variable-length intervals *)

let test_vli_merges_stable_phases () =
  (* 40 identical slices then 40 different ones: VLI should produce few
     intervals, splitting exactly at the phase change *)
  let micro =
    Array.init 80 (fun i ->
        mk_slice i (i * 100) 100 [| ((if i < 40 then 1 else 50), 100) |])
  in
  let intervals = Sp_simpoint.Vli.segment micro in
  Alcotest.(check bool)
    (Printf.sprintf "few intervals (%d)" (Array.length intervals))
    true
    (Array.length intervals <= 4);
  (* contiguity and mass conservation *)
  let total = ref 0 in
  Array.iter
    (fun (s : Sp_pin.Bbv_tool.slice) ->
      Alcotest.(check int) "contiguous" !total s.Sp_pin.Bbv_tool.start_icount;
      total := !total + s.Sp_pin.Bbv_tool.length)
    intervals;
  Alcotest.(check int) "mass" 8000 !total;
  (* no interval spans the phase boundary *)
  Array.iter
    (fun (s : Sp_pin.Bbv_tool.slice) ->
      Alcotest.(check bool) "no boundary straddle" true
        (s.Sp_pin.Bbv_tool.start_icount + s.Sp_pin.Bbv_tool.length <= 4000
        || s.Sp_pin.Bbv_tool.start_icount >= 4000))
    intervals

let test_vli_max_len () =
  let micro = Array.init 50 (fun i -> mk_slice i (i * 100) 100 [| (1, 100) |]) in
  let intervals = Sp_simpoint.Vli.segment ~max_len:250 micro in
  Array.iter
    (fun (s : Sp_pin.Bbv_tool.slice) ->
      Alcotest.(check bool) "bounded" true (s.Sp_pin.Bbv_tool.length <= 250))
    intervals

let test_vli_select_weights () =
  let micro =
    Array.init 90 (fun i ->
        mk_slice i (i * 100) 100 [| ((10 * (i mod 3)) + 1, 100) |])
  in
  let sel = Sp_simpoint.Vli.select ~micro_len:100 micro in
  Alcotest.(check (float 1e-9)) "instruction weights sum to 1" 1.0
    (Sp_simpoint.Simpoints.total_weight sel.Sp_simpoint.Simpoints.points)

(* ------------------------------------------------------------------ *)
(* Variance *)

let test_variance_decreases_with_k () =
  let slices = planted_slices ~phases:6 ~per_phase:30 ~noise:4 () in
  let sweep = Variance.sweep ~ks:[ 2; 6 ] slices in
  match sweep with
  | [ low_k; high_k ] ->
      Alcotest.(check bool)
        (Printf.sprintf "var(k=2)=%g > var(k=6)=%g" low_k.Variance.avg_variance
           high_k.Variance.avg_variance)
        true
        (low_k.Variance.avg_variance > high_k.Variance.avg_variance)
  | _ -> Alcotest.fail "expected two sweep points"

(* an empty cluster must not count in the average: the fitting sample
   (slices 0, 3, 6, 9 of 12) holds only two distinct BBVs, so at k = 3
   the seeding duplicates a centroid whose cluster stays empty, and
   slice 1's third BBV, outside the sample, gives its cluster a
   nonzero variance *)
let test_variance_skips_empty_cluster () =
  let bbv = function
    | `A -> [| (1, 100) |]
    | `B -> [| (50, 100) |]
    | `C -> [| (1, 50); (50, 50) |]
  in
  let slices =
    Array.init 12 (fun i ->
        mk_slice i (i * 100) 100
          (bbv (if i = 1 then `C else if i mod 2 = 0 then `A else `B)))
  in
  let config = { Simpoints.default_config with sample_cap = 4 } in
  let sel = Simpoints.select_with_k ~config ~slice_len:100 ~k:3 slices in
  let sizes = Array.make sel.Simpoints.chosen_k 0 in
  Array.iter (fun j -> sizes.(j) <- sizes.(j) + 1) sel.Simpoints.assignment;
  Alcotest.(check bool) "one cluster is empty" true (Array.mem 0 sizes);
  let v = Variance.at_k ~config ~k:3 slices in
  let live = List.filter (fun j -> sizes.(j) > 0) (List.init 3 Fun.id) in
  Alcotest.(check int) "two clusters live" 2 (List.length live);
  Alcotest.(check bool) "a live cluster has spread" true (v.Variance.max_variance > 0.0);
  (* one live cluster holds only copies of one BBV (variance 0), so the
     mean over the live clusters is half the maximum *)
  Alcotest.(check (float 1e-12))
    "mean over live clusters" (v.Variance.max_variance /. 2.0)
    v.Variance.avg_variance

(* ------------------------------------------------------------------ *)
(* Systematic design bugfixes *)

(* regression: floor division overshot the budget (10 slices at budget
   4 gave period 2 and 5 samples); sweep the whole small design space *)
let test_design_budget_sweep () =
  for num_slices = 1 to 40 do
    for budget = 1 to num_slices do
      let d = Systematic.design_for_budget ~num_slices ~budget in
      let n = Array.length (Systematic.sample_indices d ~num_slices) in
      if n > budget then
        Alcotest.failf "num_slices=%d budget=%d: %d samples overshoot"
          num_slices budget n;
      if n < 1 then
        Alcotest.failf "num_slices=%d budget=%d: empty design" num_slices
          budget
    done
  done

let test_required_samples_clamp () =
  Alcotest.(check int)
    "cv=0 still needs one measurement" 1
    (Systematic.required_samples ~cv:0.0 ~target_rel_ci:0.03);
  Alcotest.(check bool)
    "positive cv needs more" true
    (Systematic.required_samples ~cv:0.1 ~target_rel_ci:0.03 > 1)

(* subsample indices: strictly increasing, in-bounds, and the final
   pick lands inside the last stride (the float-stride version could
   duplicate indices and never reached the tail) *)
let prop_subsample =
  QCheck.Test.make ~name:"subsample exact integer stride" ~count:200
    QCheck.(pair (int_range 1 5000) (int_range 1 400))
    (fun (n, cap) ->
      let xs = Array.init n Fun.id in
      let sub = Simpoints.subsample cap xs in
      if n <= cap then sub = xs
      else begin
        Array.length sub = cap
        && Array.for_all (fun i -> i >= 0 && i < n) sub
        && (let increasing = ref true in
            for i = 1 to cap - 1 do
              if sub.(i) <= sub.(i - 1) then increasing := false
            done;
            !increasing)
        (* last pick inside the final stride [(cap-1)*n/cap, n) *)
        && sub.(cap - 1) >= (cap - 1) * n / cap
      end)

(* ------------------------------------------------------------------ *)
(* Sampler interface: differential suite over all registered kinds *)

let sampler_slices = planted_slices ~phases:4 ~per_phase:50 ~noise:3 ()

let select_with ?budget ?(jobs = 1) ?(seed = Simpoints.default_config.seed)
    kind =
  let config = { Simpoints.default_config with jobs; seed } in
  Sampler.select ~config ?budget kind ~slice_len:100 sampler_slices

let test_sampler_weights_sum () =
  List.iter
    (fun kind ->
      let out = select_with kind in
      Alcotest.(check (float 1e-6))
        (Sampler.name kind ^ " weights sum to 1")
        1.0
        (Simpoints.total_weight out.Sampler.points))
    Sampler.all_kinds

let test_sampler_points_valid () =
  let n = Array.length sampler_slices in
  List.iter
    (fun kind ->
      let out = select_with kind in
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun (p : Simpoints.point) ->
          if p.slice_index < 0 || p.slice_index >= n then
            Alcotest.failf "%s: slice index %d out of bounds"
              (Sampler.name kind) p.slice_index;
          if Hashtbl.mem seen p.slice_index then
            Alcotest.failf "%s: duplicate slice %d" (Sampler.name kind)
              p.slice_index;
          Hashtbl.add seen p.slice_index ();
          if p.weight <= 0.0 then
            Alcotest.failf "%s: non-positive weight" (Sampler.name kind);
          let s = sampler_slices.(p.slice_index) in
          if
            p.start_icount <> s.Sp_pin.Bbv_tool.start_icount
            || p.length <> s.Sp_pin.Bbv_tool.length
          then
            Alcotest.failf "%s: point does not match its slice"
              (Sampler.name kind))
        out.Sampler.points)
    Sampler.all_kinds

let test_sampler_budget_respected () =
  List.iter
    (fun kind ->
      List.iter
        (fun budget ->
          let out = select_with ~budget kind in
          let n = Array.length out.Sampler.points in
          if n > budget then
            Alcotest.failf "%s: %d points exceed budget %d"
              (Sampler.name kind) n budget;
          if n < 1 then
            Alcotest.failf "%s: empty selection at budget %d"
              (Sampler.name kind) budget)
        [ 1; 4; 7; 35 ])
    Sampler.all_kinds

let check_same_output kind msg (a : Sampler.output) (b : Sampler.output) =
  Alcotest.(check bool)
    (Sampler.name kind ^ ": " ^ msg)
    true
    (a.Sampler.points = b.Sampler.points
    && a.Sampler.groups = b.Sampler.groups
    && a.Sampler.diagnostics = b.Sampler.diagnostics
    && a.Sampler.bic_curve = b.Sampler.bic_curve)

let test_sampler_jobs_invariant () =
  List.iter
    (fun kind ->
      check_same_output kind "jobs 1 = jobs 4"
        (select_with ~jobs:1 kind)
        (select_with ~jobs:4 kind))
    Sampler.all_kinds

let test_sampler_deterministic () =
  List.iter
    (fun kind ->
      check_same_output kind "fixed seed reproduces" (select_with kind)
        (select_with kind))
    Sampler.all_kinds

(* the refactor's no-regression guarantee: the SimPoint implementation
   behind the Sampler interface returns exactly what the pre-refactor
   direct call returns, on a pinned workload *)
let test_sampler_simpoint_parity () =
  let direct = Simpoints.select ~slice_len:100 sampler_slices in
  let out = select_with Sampler.Simpoint in
  Alcotest.(check bool)
    "points bit-identical" true
    (out.Sampler.points = direct.Simpoints.points);
  Alcotest.(check int)
    "groups = chosen_k" direct.Simpoints.chosen_k out.Sampler.groups;
  Alcotest.(check bool)
    "bic curve identical" true
    (out.Sampler.bic_curve = direct.Simpoints.bic_curve)

(* one [fits] shared by select and the sweep (the pipeline's select
   stage) gives bit-for-bit what the two compute independently, at any
   job count and in either order; the slice count is above the sample
   cap, so the full-set assign runs too *)
let bits_of_output (o : Sampler.output) =
  ( Array.map
      (fun (p : Simpoints.point) ->
        (p.cluster, p.slice_index, p.start_icount, p.length,
         Int64.bits_of_float p.weight))
      o.Sampler.points,
    o.Sampler.groups,
    List.map (fun (k, b) -> (k, Int64.bits_of_float b)) o.Sampler.bic_curve,
    List.map (fun (n, v) -> (n, Int64.bits_of_float v)) o.Sampler.diagnostics )

let bits_of_sweep =
  List.map (fun (v : Variance.sweep_point) ->
      ( v.k,
        Int64.bits_of_float v.avg_variance,
        Int64.bits_of_float v.max_variance,
        Int64.bits_of_float v.distortion ))

let test_shared_fits () =
  let slices = planted_slices ~phases:6 ~per_phase:40 ~noise:4 () in
  let ks = [ 2; 5; 9; 35 ] in
  List.iter
    (fun jobs ->
      let config = { Simpoints.default_config with jobs; sample_cap = 150 } in
      let alone_sel = Sampler.select ~config Sampler.Simpoint ~slice_len:100 slices in
      let alone_var = Variance.sweep ~config ~ks slices in
      let fits = Simpoints.fits ~config slices in
      let sel = Sampler.select ~config ~fits Sampler.Simpoint ~slice_len:100 slices in
      let var = Variance.sweep ~config ~fits ~ks slices in
      let msg = Printf.sprintf "jobs %d: " jobs in
      Alcotest.(check bool) (msg ^ "select shared = alone") true
        (bits_of_output sel = bits_of_output alone_sel);
      Alcotest.(check bool) (msg ^ "sweep shared = alone") true
        (bits_of_sweep var = bits_of_sweep alone_var);
      (* the other order: the sweep fills the memo, select reads it *)
      let fits = Simpoints.fits ~config slices in
      let var' = Variance.sweep ~config ~fits ~ks slices in
      let sel' = Sampler.select ~config ~fits Sampler.Simpoint ~slice_len:100 slices in
      Alcotest.(check bool) (msg ^ "sweep first") true
        (bits_of_sweep var' = bits_of_sweep alone_var
        && bits_of_output sel' = bits_of_output alone_sel))
    [ 1; 3 ]

let test_mismatched_fits_rejected () =
  let slices = planted_slices ~phases:3 ~per_phase:20 () in
  let config = Simpoints.default_config in
  let fits = Simpoints.fits ~config slices in
  let rejects what (other : Simpoints.config) slices =
    (match Sampler.select ~config:other ~fits Sampler.Simpoint ~slice_len:100 slices with
    | _ -> Alcotest.failf "Sampler.select accepted fits with another %s" what
    | exception Invalid_argument _ -> ());
    match Variance.sweep ~config:other ~fits ~ks:[ 2 ] slices with
    | _ -> Alcotest.failf "Variance.sweep accepted fits with another %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "seed" { config with seed = config.seed + 1 } slices;
  rejects "proj_dim" { config with proj_dim = 7 } slices;
  rejects "sample_cap" { config with sample_cap = 10 } slices;
  rejects "kmeans_iters" { config with kmeans_iters = 3 } slices;
  rejects "slice count" config (Array.sub slices 0 10);
  (* another benchmark's slices with the same count *)
  rejects "slice array" config (planted_slices ~phases:4 ~per_phase:15 ());
  (* the knobs that do not change a fit are free to differ *)
  ignore
    (Sampler.select ~config:{ config with jobs = 2; max_k = 4; bic_threshold = 0.5 }
       ~fits Sampler.Simpoint ~slice_len:100 slices)

let test_sampler_names () =
  List.iter
    (fun kind ->
      match Sampler.of_name (Sampler.name kind) with
      | Ok k -> Alcotest.(check bool) "round-trips" true (k = kind)
      | Error e -> Alcotest.fail e)
    Sampler.all_kinds;
  match Sampler.of_name "bogus" with
  | Ok _ -> Alcotest.fail "bogus name accepted"
  | Error _ -> ()

(* stratified diagnostics: the pilot stratification should capture most
   of the auxiliary variance on a cleanly-phased workload *)
let test_stratified_diagnostics () =
  let out = select_with Sampler.Stratified in
  match List.assoc_opt "var_within_frac" out.Sampler.diagnostics with
  | None -> Alcotest.fail "missing var_within_frac diagnostic"
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "within-stratum fraction %g in [0,1]" f)
        true
        (f >= 0.0 && f <= 1.0)

let test_rss_diagnostics () =
  let out = select_with Sampler.Rss in
  List.iter
    (fun key ->
      if not (List.mem_assoc key out.Sampler.diagnostics) then
        Alcotest.failf "missing %s diagnostic" key)
    [ "set_size"; "repeats"; "aux_mean"; "aux_draw_var"; "aux_draw_se" ]

let suite =
  [
    Alcotest.test_case "projection deterministic" `Quick test_projection_deterministic;
    Alcotest.test_case "projection dim" `Quick test_projection_dim;
    Alcotest.test_case "projection scale invariant" `Quick test_projection_scale_invariant;
    Alcotest.test_case "matrix entry range" `Quick test_matrix_entry_range;
    Alcotest.test_case "kmeans k=1" `Quick test_kmeans_k1;
    Alcotest.test_case "kmeans separated blobs" `Quick test_kmeans_separated_blobs;
    Alcotest.test_case "kmeans sizes sum" `Quick test_kmeans_sizes_sum;
    Alcotest.test_case "kmeans k clamped" `Quick test_kmeans_k_clamped;
    QCheck_alcotest.to_alcotest prop_assign_nearest;
    Alcotest.test_case "bic prefers true k" `Quick test_bic_prefers_true_k;
    Alcotest.test_case "bic pick_k" `Quick test_pick_k;
    Alcotest.test_case "select recovers phases" `Quick test_select_recovers_phases;
    Alcotest.test_case "select with forced k" `Quick test_select_with_k;
    Alcotest.test_case "reduce 90th percentile" `Quick test_reduce;
    Alcotest.test_case "select empty" `Quick test_select_empty;
    Alcotest.test_case "aggregate merge" `Quick test_aggregate_merge;
    Alcotest.test_case "aggregate identity" `Quick test_aggregate_identity;
    Alcotest.test_case "variance vs k" `Quick test_variance_decreases_with_k;
    Alcotest.test_case "variance skips empty cluster" `Quick
      test_variance_skips_empty_cluster;
    Alcotest.test_case "vli merges stable phases" `Quick test_vli_merges_stable_phases;
    Alcotest.test_case "vli max length" `Quick test_vli_max_len;
    Alcotest.test_case "vli instruction weights" `Quick test_vli_select_weights;
    Alcotest.test_case "systematic budget sweep" `Quick test_design_budget_sweep;
    Alcotest.test_case "required samples clamp" `Quick test_required_samples_clamp;
    QCheck_alcotest.to_alcotest prop_subsample;
    Alcotest.test_case "sampler weights sum" `Quick test_sampler_weights_sum;
    Alcotest.test_case "sampler points valid" `Quick test_sampler_points_valid;
    Alcotest.test_case "sampler budget respected" `Quick test_sampler_budget_respected;
    Alcotest.test_case "sampler jobs invariant" `Quick test_sampler_jobs_invariant;
    Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
    Alcotest.test_case "sampler simpoint parity" `Quick test_sampler_simpoint_parity;
    Alcotest.test_case "shared fits bit-identical" `Quick test_shared_fits;
    Alcotest.test_case "mismatched fits rejected" `Quick
      test_mismatched_fits_rejected;
    Alcotest.test_case "sampler name round-trip" `Quick test_sampler_names;
    Alcotest.test_case "stratified diagnostics" `Quick test_stratified_diagnostics;
    Alcotest.test_case "rss diagnostics" `Quick test_rss_diagnostics;
  ]
