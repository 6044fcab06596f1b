(* Tests for the multicore execution layer: the Sp_util.Pool domain
   pool itself, and the jobs=1 vs jobs=N equivalence guarantees of the
   parallel pipeline stages (k-means, variance sweep, run_benchmark). *)

open Sp_util

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_empty () =
  let r = Pool.parallel_map ~jobs:4 (fun x -> x + 1) [||] in
  Alcotest.(check int) "empty in, empty out" 0 (Array.length r)

let test_pool_jobs_exceed_n () =
  (* more workers than items: exactly n results, input order *)
  let r = Pool.parallel_map ~jobs:16 (fun x -> x * x) [| 1; 2; 3 |] in
  Alcotest.(check (list int)) "squares" [ 1; 4; 9 ] (Array.to_list r)

let test_pool_order_uneven_work () =
  (* per-item cost decreasing with index: late items finish first, yet
     results must land in input order *)
  let n = 64 in
  let input = Array.init n (fun i -> i) in
  let busy i =
    let acc = ref 0 in
    for _ = 1 to (n - i) * 1000 do
      incr acc
    done;
    ignore !acc;
    2 * i
  in
  let r = Pool.parallel_map ~jobs:4 busy input in
  Alcotest.(check bool) "input order" true
    (r = Array.init n (fun i -> 2 * i))

let test_pool_exception_propagates () =
  let raised =
    try
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i = 5 then failwith "boom" else i)
           (Array.init 32 (fun i -> i)));
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "Failure re-raised" (Some "boom") raised

let test_pool_sequential_fallback () =
  (* jobs=1 must not spawn: run on the calling domain so domain-local
     state is visible *)
  let self = Domain.self () in
  let r =
    Pool.parallel_map ~jobs:1 (fun () -> Domain.self ()) [| (); (); () |]
  in
  Array.iter
    (fun d -> Alcotest.(check bool) "same domain" true (d = self))
    r

let test_parallel_for_covers () =
  let n = 103 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~jobs:4 ~n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_chunk_bounds_partition () =
  List.iter
    (fun (chunks, n) ->
      let b = Pool.chunk_bounds ~chunks ~n in
      let lo0, _ = b.(0) in
      Alcotest.(check int) "starts at 0" 0 lo0;
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "non-empty" true (hi > lo);
          if i > 0 then
            Alcotest.(check int) "contiguous" lo (snd b.(i - 1)))
        b;
      Alcotest.(check int) "ends at n" n (snd b.(Array.length b - 1)))
    [ (1, 10); (3, 10); (4, 103); (16, 8); (7, 7) ]

(* nested batches share the one worker set instead of degrading to
   sequential; three levels deep the results still equal Array.map *)
let nested3 leaf =
  let input = Array.init 4 Fun.id in
  Pool.parallel_map ~jobs:3
    (fun a ->
      Pool.parallel_map ~jobs:3
        (fun b -> Pool.parallel_map ~jobs:3 (fun c -> leaf a b c) input)
        input)
    input

let test_pool_nested () =
  let leaf a b c = (100 * a) + (10 * b) + c in
  let input = Array.init 4 Fun.id in
  let expected =
    Array.map
      (fun a -> Array.map (fun b -> Array.map (fun c -> leaf a b c) input) input)
      input
  in
  Alcotest.(check bool) "3-level nested results" true (nested3 leaf = expected);
  (* a failure two levels down reaches the outermost caller *)
  let raised =
    try
      ignore
        (nested3 (fun a b c ->
             if a = 2 && b = 1 && c = 3 then failwith "deep" else c));
      None
    with Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "nested Failure re-raised" (Some "deep")
    raised

let domains_spawned () =
  Option.value ~default:0.0
    (Sp_obs.Metrics.counter_value (Sp_obs.Metrics.snapshot ())
       "pool.domains_spawned")

(* workers persist across batches: 200 batches cost at most the
   jobs - 1 = 2 workers a jobs:3 batch asks for *)
let test_pool_spawn_bound () =
  let before = domains_spawned () in
  for _ = 1 to 200 do
    ignore (Pool.parallel_map ~jobs:3 (fun x -> x * 2) (Array.init 8 Fun.id))
  done;
  let grew = domains_spawned () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "spawned %.0f domains (at most 2)" grew)
    true (grew <= 2.0)

(* async tasks never run on the caller, and a raising task leaves its
   worker serving the tasks queued behind it *)
let test_pool_async () =
  let m = Mutex.create () in
  let ran = ref [] in
  for _ = 1 to 2 do
    Pool.async ~jobs:2 (fun () -> failwith "async task fails on purpose")
  done;
  for _ = 1 to 4 do
    Pool.async ~jobs:2 (fun () ->
        Mutex.protect m (fun () -> ran := Domain.self () :: !ran))
  done;
  let finished () = Mutex.protect m (fun () -> List.length !ran) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while finished () < 4 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "every task ran" 4 (finished ());
  List.iter
    (fun d ->
      Alcotest.(check bool) "off the caller" true (d <> Domain.self ()))
    !ran

(* the CRC tables are shared by every domain: concurrent first use from
   4 domains must agree with the sequential results *)
let test_crc32_concurrent () =
  let bufs =
    Array.init 4 (fun d ->
        String.init (50_000 + (7 * d)) (fun i -> Char.chr ((i * (d + 3)) land 0xff)))
  in
  let domains =
    Array.map
      (fun s -> Domain.spawn (fun () -> Array.init 20 (fun _ -> Crc32.string s)))
      bufs
  in
  let concurrent = Array.map Domain.join domains in
  Array.iteri
    (fun d s ->
      let expected = Crc32.string s in
      Array.iter (Alcotest.(check int) "concurrent crc" expected) concurrent.(d))
    bufs

(* ------------------------------------------------------------------ *)
(* jobs=1 vs jobs=N equivalence *)

let random_points ~n ~dim seed =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Array.init dim (fun _ -> Rng.float rng 1.0))

let test_kmeans_jobs_equivalence () =
  let points = random_points ~n:500 ~dim:12 9 in
  let a = Sp_simpoint.Kmeans.fit ~seed:3 ~jobs:1 ~k:9 points in
  let b = Sp_simpoint.Kmeans.fit ~seed:3 ~jobs:4 ~k:9 points in
  Alcotest.(check bool) "assignment" true
    (a.Sp_simpoint.Kmeans.assignment = b.Sp_simpoint.Kmeans.assignment);
  Alcotest.(check bool) "centroids bitwise" true
    (a.Sp_simpoint.Kmeans.centroids = b.Sp_simpoint.Kmeans.centroids);
  Alcotest.(check bool) "sizes" true
    (a.Sp_simpoint.Kmeans.sizes = b.Sp_simpoint.Kmeans.sizes);
  Alcotest.(check bool) "distortion bitwise" true
    (Int64.bits_of_float a.Sp_simpoint.Kmeans.distortion
    = Int64.bits_of_float b.Sp_simpoint.Kmeans.distortion)

let test_variance_sweep_jobs_equivalence () =
  let slices =
    Array.init 120 (fun i ->
        {
          Sp_pin.Bbv_tool.index = i;
          start_icount = i * 100;
          length = 100;
          bbv = [| (i mod 4 * 10, 60); ((i mod 4 * 10) + 1, 40) |];
        })
  in
  let at jobs =
    let config = { Sp_simpoint.Simpoints.default_config with jobs } in
    Sp_simpoint.Variance.sweep ~config ~ks:[ 2; 3; 5 ] slices
  in
  Alcotest.(check bool) "sweep identical" true (at 1 = at 4)

let parallel_test_options jobs =
  {
    Specrepro.Pipeline.default_options with
    slices_scale = 0.04;
    variance_ks = [ 3; 5 ];
    collect_variance = true;
    progress = false;
    jobs;
  }

let check_benchmark_equivalence name =
  let spec = Sp_workloads.Suite.find name in
  let open Specrepro in
  let a = Pipeline.run_benchmark ~options:(parallel_test_options 1) spec in
  let b = Pipeline.run_benchmark ~options:(parallel_test_options 4) spec in
  Alcotest.(check int) (name ^ ": chosen k") a.Pipeline.selection.chosen_k
    b.Pipeline.selection.chosen_k;
  Alcotest.(check bool) (name ^ ": points identical") true
    (a.Pipeline.selection.points = b.Pipeline.selection.points);
  Alcotest.(check bool) (name ^ ": bic curve identical") true
    (a.Pipeline.selection.bic_curve = b.Pipeline.selection.bic_curve);
  Alcotest.(check bool) (name ^ ": cold point stats identical") true
    (a.Pipeline.point_stats = b.Pipeline.point_stats);
  Alcotest.(check bool) (name ^ ": warm point stats identical") true
    (a.Pipeline.warm_point_stats = b.Pipeline.warm_point_stats);
  Alcotest.(check bool) (name ^ ": variance sweep identical") true
    (a.Pipeline.variance = b.Pipeline.variance);
  Alcotest.(check bool) (name ^ ": whole stats identical") true
    (a.Pipeline.whole = b.Pipeline.whole)

let test_pipeline_jobs_equivalence_omnetpp () =
  check_benchmark_equivalence "620.omnetpp_s"

let test_pipeline_jobs_equivalence_xz () =
  check_benchmark_equivalence "557.xz_r"

let test_run_suite_jobs_equivalence () =
  let open Specrepro in
  let specs =
    [ Sp_workloads.Suite.find "620.omnetpp_s"; Sp_workloads.Suite.find "557.xz_r" ]
  in
  let options = parallel_test_options 1 in
  let seq = Pipeline.run_suite ~options ~specs () in
  let par = Pipeline.run_suite ~options:{ options with Pipeline.jobs = 4 } ~specs () in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Pipeline.bench_result) (b : Pipeline.bench_result) ->
      Alcotest.(check string) "spec order preserved"
        a.Pipeline.spec.Sp_workloads.Benchspec.name
        b.Pipeline.spec.Sp_workloads.Benchspec.name;
      Alcotest.(check bool) "selection identical" true
        (a.Pipeline.selection.points = b.Pipeline.selection.points);
      Alcotest.(check bool) "cold stats identical" true
        (a.Pipeline.point_stats = b.Pipeline.point_stats))
    seq par

let suite =
  [
    Alcotest.test_case "pool empty array" `Quick test_pool_empty;
    Alcotest.test_case "pool jobs > n" `Quick test_pool_jobs_exceed_n;
    Alcotest.test_case "pool order with uneven work" `Quick
      test_pool_order_uneven_work;
    Alcotest.test_case "pool exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool jobs=1 stays on caller" `Quick
      test_pool_sequential_fallback;
    Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_covers;
    Alcotest.test_case "chunk bounds partition" `Quick
      test_chunk_bounds_partition;
    Alcotest.test_case "nested fan-out shares workers" `Quick test_pool_nested;
    Alcotest.test_case "pool spawn bound" `Quick test_pool_spawn_bound;
    Alcotest.test_case "pool async off the caller" `Quick test_pool_async;
    Alcotest.test_case "crc32 concurrent domains" `Quick test_crc32_concurrent;
    Alcotest.test_case "kmeans jobs equivalence" `Quick
      test_kmeans_jobs_equivalence;
    Alcotest.test_case "variance sweep jobs equivalence" `Quick
      test_variance_sweep_jobs_equivalence;
    Alcotest.test_case "pipeline jobs equivalence (omnetpp)" `Slow
      test_pipeline_jobs_equivalence_omnetpp;
    Alcotest.test_case "pipeline jobs equivalence (xz)" `Slow
      test_pipeline_jobs_equivalence_xz;
    Alcotest.test_case "run_suite jobs equivalence" `Slow
      test_run_suite_jobs_equivalence;
  ]
