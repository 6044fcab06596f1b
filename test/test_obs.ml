(* Tests for the observability layer (Sp_obs): the JSON codec, the
   metrics registry's cross-domain merge and its stable-metrics
   guarantee across job counts, the span tracer, and the trace-report
   aggregation behind `specrepro report`. *)

module J = Sp_obs.Json
module M = Sp_obs.Metrics
module T = Sp_obs.Tracer
module R = Sp_obs.Trace_report

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Num 1.0);
        ("b", J.List [ J.Str "x\"\n\t\\"; J.Bool true; J.Null; J.Bool false ]);
        ("empty_obj", J.Obj []);
        ("empty_list", J.List []);
        ("neg", J.Num (-0.125));
        ("big", J.Num 1.5e300);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_numbers () =
  Alcotest.(check string) "integral prints plain" "42" (J.to_string (J.Num 42.0));
  Alcotest.(check string) "negative integral" "-7" (J.to_string (J.Num (-7.0)));
  Alcotest.(check string) "nan degrades to null" "null"
    (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "infinity degrades to null" "null"
    (J.to_string (J.Num Float.infinity));
  match J.parse "2.5e-3" with
  | Ok (J.Num x) -> Alcotest.(check (float 1e-12)) "scientific" 0.0025 x
  | _ -> Alcotest.fail "number parse"

let test_json_strings () =
  Alcotest.(check string) "control chars escape" {|"\u0001\t\\"|}
    (J.to_string (J.Str "\x01\t\\"));
  (match J.parse {|"Aé"|} with
  | Ok (J.Str s) -> Alcotest.(check string) "unicode to UTF-8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode parse");
  (* surrogate pair: U+1F600 *)
  match J.parse {|"😀"|} with
  | Ok (J.Str s) ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate parse"

let test_json_rejects () =
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [
      "tru";
      "1 2";
      "\"unterminated";
      "{\"a\":}";
      "[1,]";
      "{\"a\":1,}";
      "";
      "{1:2}";
    ]

(* ------------------------------------------------------------------ *)
(* metrics *)

let test_counter_merge_across_domains () =
  let c = M.counter "test.obs.xdomain" in
  M.reset ();
  (* record from several pool domains; the snapshot must sum all shards *)
  let per_item = 500 in
  let items = Array.init 8 (fun i -> i) in
  ignore
    (Sp_util.Pool.parallel_map ~jobs:4
       (fun _ ->
         for _ = 1 to per_item do
           M.incr c
         done)
       items);
  M.add c 17;
  Alcotest.(check (option (float 0.0)))
    "summed over domains"
    (Some (float_of_int ((8 * per_item) + 17)))
    (M.counter_value (M.snapshot ()) "test.obs.xdomain")

let test_gauge_last_write_wins () =
  let g = M.gauge "test.obs.gauge" in
  M.reset ();
  M.set g 1.0;
  M.set g 42.0;
  match M.find "test.obs.gauge" (M.snapshot ()) with
  | Some { M.value = M.Gauge_value v; _ } ->
      Alcotest.(check (float 0.0)) "last write" 42.0 v
  | _ -> Alcotest.fail "gauge missing from snapshot"

let test_histogram_quantiles () =
  let h = M.histogram "test.obs.hist" in
  M.reset ();
  (* a point mass: every quantile must collapse to the single value *)
  for _ = 1 to 1000 do
    M.observe h 3.5
  done;
  let snap =
    match M.find "test.obs.hist" (M.snapshot ()) with
    | Some { M.value = M.Histogram_value hs; _ } -> hs
    | _ -> Alcotest.fail "histogram missing"
  in
  Alcotest.(check int) "count" 1000 snap.M.count;
  Alcotest.(check (float 1e-9)) "sum" 3500.0 snap.M.sum;
  Alcotest.(check (float 0.0)) "min" 3.5 snap.M.min;
  Alcotest.(check (float 0.0)) "max" 3.5 snap.M.max;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g collapses" (q *. 100.))
        3.5 (M.quantile snap q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_histogram_quantile_spread () =
  let h = M.histogram "test.obs.hist2" in
  M.reset ();
  (* 1..100: octave buckets bound each quantile to its containing
     power-of-two interval, and min/max clamp the extremes exactly *)
  for i = 1 to 100 do
    M.observe h (float_of_int i)
  done;
  let snap =
    match M.find "test.obs.hist2" (M.snapshot ()) with
    | Some { M.value = M.Histogram_value hs; _ } -> hs
    | _ -> Alcotest.fail "histogram missing"
  in
  Alcotest.(check int) "count" 100 snap.M.count;
  Alcotest.(check (float 1e-9)) "sum" 5050.0 snap.M.sum;
  Alcotest.(check (float 0.0)) "q0 is min" 1.0 (M.quantile snap 0.0);
  Alcotest.(check (float 0.0)) "q1 is max" 100.0 (M.quantile snap 1.0);
  let p50 = M.quantile snap 0.5 in
  (* the 50th observation (=50) lies in the [32,64) bucket *)
  Alcotest.(check bool) "median in its octave" true (p50 >= 32.0 && p50 <= 64.0);
  let p90 = M.quantile snap 0.9 in
  Alcotest.(check bool) "p90 in its octave" true (p90 >= 64.0 && p90 <= 100.0);
  Alcotest.(check bool) "monotone" true (p50 <= p90)

let test_histogram_empty_quantile () =
  let h = M.histogram "test.obs.hist3" in
  M.reset ();
  ignore h;
  match M.find "test.obs.hist3" (M.snapshot ()) with
  | Some { M.value = M.Histogram_value hs; _ } ->
      Alcotest.(check bool) "nan on empty" true
        (Float.is_nan (M.quantile hs 0.5))
  | _ -> Alcotest.fail "histogram missing"

let test_register_dedup_and_mismatch () =
  let a = M.counter "test.obs.dedup" in
  let b = M.counter "test.obs.dedup" in
  M.reset ();
  M.incr a;
  M.incr b;
  Alcotest.(check (option (float 0.0)))
    "same underlying metric" (Some 2.0)
    (M.counter_value (M.snapshot ()) "test.obs.dedup");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Sp_obs.Metrics: \"test.obs.dedup\" already registered with another \
        kind")
    (fun () -> ignore (M.gauge "test.obs.dedup"))

let test_metrics_json_shape () =
  let c = M.counter "test.obs.jsonc" in
  M.reset ();
  M.add c 3;
  let j = M.to_json (M.snapshot ()) in
  match j with
  | J.List entries ->
      let found =
        List.exists
          (fun e ->
            J.member "name" e = Some (J.Str "test.obs.jsonc")
            && J.member "value" e = Some (J.Num 3.0))
          entries
      in
      Alcotest.(check bool) "counter rendered" true found
  | _ -> Alcotest.fail "to_json not a list"

(* ------------------------------------------------------------------ *)
(* stable metrics across job counts *)

let pipeline_options jobs =
  {
    Specrepro.Pipeline.default_options with
    slices_scale = 0.04;
    progress = false;
    jobs;
  }

let stable_fingerprint jobs =
  M.reset ();
  List.iter
    (fun name ->
      let spec = Sp_workloads.Suite.find name in
      ignore
        (Specrepro.Pipeline.run_benchmark ~options:(pipeline_options jobs) spec))
    [ "620.omnetpp_s"; "557.xz_r" ];
  List.filter_map
    (fun (s : M.sample) ->
      match s.M.value with
      | M.Counter_value v -> Some (s.M.name, v)
      | _ -> None)
    (M.stable_snapshot ())

let test_stable_metrics_jobs_equivalence () =
  let seq = stable_fingerprint 1 in
  let par = stable_fingerprint 4 in
  Alcotest.(check bool) "some work counted" true
    (List.exists (fun (_, v) -> v > 0.0) seq);
  Alcotest.(check bool) "vm.instructions counted" true
    (match List.assoc_opt "vm.instructions" seq with
    | Some v -> v > 1000.0
    | None -> false);
  (* the logging pass captures each program's initial state: the
     snapshot counter is in the compared set *)
  Alcotest.(check bool) "vm.snapshots counted" true
    (match List.assoc_opt "vm.snapshots" seq with
    | Some v -> v >= 2.0
    | None -> false);
  List.iter
    (fun (name, v1) ->
      match List.assoc_opt name par with
      | None -> Alcotest.fail (name ^ " missing under jobs=4")
      | Some v4 ->
          Alcotest.(check (float 0.0)) (name ^ " identical across jobs") v1 v4)
    seq;
  Alcotest.(check int) "same metric set" (List.length seq) (List.length par)

(* ------------------------------------------------------------------ *)
(* tracer + trace report *)

let with_tracing f =
  T.clear ();
  T.enable ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.clear ())
    f

let test_tracer_disabled_is_passthrough () =
  T.clear ();
  T.disable ();
  let r = T.with_span "unrecorded" (fun () -> 7) in
  Alcotest.(check int) "result" 7 r;
  Alcotest.(check int) "no spans" 0 (T.span_count ())

let test_tracer_records_nested_and_exn () =
  with_tracing @@ fun () ->
  let r =
    T.with_span ~cat:"outer" "a" @@ fun () ->
    T.with_span ~cat:"inner" "b" (fun () -> ());
    (try T.with_span ~cat:"inner" "boom" (fun () -> failwith "x")
     with Failure _ -> ());
    41 + 1
  in
  Alcotest.(check int) "result through spans" 42 r;
  Alcotest.(check int) "three spans (incl. the raising one)" 3 (T.span_count ())

let test_trace_json_valid_and_balanced () =
  with_tracing @@ fun () ->
  T.with_span ~cat:"stage" ~args:[ ("bench", "demo") ] "build" (fun () ->
      T.with_span ~cat:"stage" "select" (fun () -> ()));
  T.with_span ~cat:"pipeline" ~args:[ ("bench", "demo") ] "benchmark"
    (fun () -> ());
  (* serialise and re-parse: the emitted document must be valid JSON
     with balanced, properly nested B/E pairs *)
  let doc =
    match J.parse (J.to_string (T.to_json ())) with
    | Ok d -> d
    | Error e -> Alcotest.fail ("trace not valid JSON: " ^ e)
  in
  match R.of_json doc with
  | Error e -> Alcotest.fail ("trace did not balance: " ^ e)
  | Ok r ->
      Alcotest.(check int) "events = 2 * spans" (2 * r.R.spans) r.R.events;
      Alcotest.(check int) "three spans" 3 r.R.spans;
      let stage_names = List.map (fun s -> s.R.label) r.R.stages in
      Alcotest.(check bool) "stages grouped" true
        (List.mem "build" stage_names && List.mem "select" stage_names);
      let bench_names = List.map (fun s -> s.R.label) r.R.benches in
      Alcotest.(check (list string)) "benchmark grouped by args.bench"
        [ "demo" ] bench_names

let test_trace_report_rejects_malformed () =
  (match R.of_json (J.Obj [ ("noTraceEvents", J.List []) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a document without traceEvents");
  let ev ph name ts =
    J.Obj
      [
        ("name", J.Str name);
        ("ph", J.Str ph);
        ("ts", J.Num ts);
        ("pid", J.Num 1.0);
        ("tid", J.Num 0.0);
      ]
  in
  (* unmatched begin *)
  (match R.of_json (J.Obj [ ("traceEvents", J.List [ ev "B" "a" 0.0 ]) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unclosed span");
  (* end without begin *)
  (match R.of_json (J.Obj [ ("traceEvents", J.List [ ev "E" "a" 1.0 ]) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a stray end");
  (* mismatched nesting *)
  match
    R.of_json
      (J.Obj
         [
           ( "traceEvents",
             J.List [ ev "B" "a" 0.0; ev "B" "b" 1.0; ev "E" "a" 2.0 ] );
         ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted crossed spans"

let test_pipeline_trace_stage_containment () =
  (* run a real (tiny) pipeline under tracing and check the structural
     invariants `specrepro report` relies on: stages balance, every
     stage appears once, and sequential child stages sum to no more
     than their enclosing benchmark span *)
  let r =
    with_tracing @@ fun () ->
    let spec = Sp_workloads.Suite.find "657.xz_s" in
    ignore
      (Specrepro.Pipeline.run_benchmark ~options:(pipeline_options 1) spec);
    match R.of_json (T.to_json ()) with
    | Ok r -> r
    | Error e -> Alcotest.fail ("pipeline trace invalid: " ^ e)
  in
  List.iter
    (fun stage ->
      match List.find_opt (fun s -> s.R.label = stage) r.R.stages with
      | Some s -> Alcotest.(check int) (stage ^ " ran once") 1 s.R.count
      | None -> Alcotest.fail ("missing stage span: " ^ stage))
    [ "build"; "log+profile"; "select"; "variance"; "cold-replay";
      "warm-replay" ];
  let stage_sum =
    List.fold_left (fun acc s -> acc +. s.R.total_us) 0.0 r.R.stages
  in
  let bench_total =
    match r.R.benches with
    | [ b ] -> b.R.total_us
    | _ -> Alcotest.fail "expected exactly one benchmark span"
  in
  Alcotest.(check bool) "stages nest inside the benchmark span" true
    (stage_sum <= bench_total +. 1e-6);
  Alcotest.(check bool) "benchmark span within the trace wall" true
    (bench_total <= r.R.wall_us +. 1e-6)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    Alcotest.test_case "json strings" `Quick test_json_strings;
    Alcotest.test_case "json rejects malformed" `Quick test_json_rejects;
    Alcotest.test_case "counter merge across domains" `Quick
      test_counter_merge_across_domains;
    Alcotest.test_case "gauge last write wins" `Quick
      test_gauge_last_write_wins;
    Alcotest.test_case "histogram point mass quantiles" `Quick
      test_histogram_quantiles;
    Alcotest.test_case "histogram quantile spread" `Quick
      test_histogram_quantile_spread;
    Alcotest.test_case "histogram empty quantile" `Quick
      test_histogram_empty_quantile;
    Alcotest.test_case "register dedup and kind mismatch" `Quick
      test_register_dedup_and_mismatch;
    Alcotest.test_case "metrics to_json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "tracer disabled passthrough" `Quick
      test_tracer_disabled_is_passthrough;
    Alcotest.test_case "tracer nested and exception spans" `Quick
      test_tracer_records_nested_and_exn;
    Alcotest.test_case "trace json valid and balanced" `Quick
      test_trace_json_valid_and_balanced;
    Alcotest.test_case "trace report rejects malformed" `Quick
      test_trace_report_rejects_malformed;
    Alcotest.test_case "stable metrics jobs equivalence" `Slow
      test_stable_metrics_jobs_equivalence;
    Alcotest.test_case "pipeline trace stage containment" `Slow
      test_pipeline_trace_stage_containment;
  ]
