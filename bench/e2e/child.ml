(* The processes a pass runs in.  Each is a fresh [e2e.exe] that drives
   the public API the CLI drives ([Pipeline.run_suite] for [suite],
   [Sp_serve.Server.run] for [serve]), so a pass pays what a user pays:
   process start, lazy set-up, a cold in-memory cache and disk I/O.
   A child prints one JSON line on stdout and exits 0. *)

open Specrepro
module Json = Sp_obs.Json
module Metrics = Sp_obs.Metrics
module P = Pipeline

let flag k j = Json.member k j = Some (Json.Bool true)

let options cfg =
  let sampler =
    match Sp_simpoint.Sampler.of_name (Util.str "sampler" cfg) with
    | Ok s -> s
    | Error e -> failwith e
  in
  P.normalize
    {
      P.default_options with
      P.slices_scale = Util.num "scale" cfg;
      sampler;
      jobs = int_of_float (Util.num "jobs" cfg);
      progress = false;
      profile_cache = Some (Util.str "cache" cfg);
      simpoint_config =
        {
          P.default_options.P.simpoint_config with
          Sp_simpoint.Simpoints.seed = int_of_float (Util.num "seed" cfg);
        };
    }

(* The counters the driver reads back; all are pure functions of the
   executed work except the pool ones, which depend on scheduling. *)
let counter_names =
  [
    "vm.instructions";
    "select.points";
    "warm.points";
    "pbcache.hits";
    "pbcache.mem_hits";
    "profcache.hits";
    "pool.batches";
    "pool.tasks";
    "pool.domains_spawned";
    "results.appends";
  ]

let counters snap =
  Util.obj_of_floats
    (List.map
       (fun n -> (n, Option.value (Metrics.counter_value snap n) ~default:0.0))
       counter_names)

(* Per-span-name count, total and self time (duration minus the part
   covered by child spans) of everything the tracer recorded, plus
   whether the trace is well formed by [specrepro report]'s rules. *)
let spans () =
  let doc = Sp_obs.Tracer.to_json () in
  let ok = Result.is_ok (Sp_obs.Trace_report.of_json doc) in
  let per_tid = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let tid = Util.num "tid" e in
      Hashtbl.replace per_tid tid
        (e :: Option.value (Hashtbl.find_opt per_tid tid) ~default:[]))
    (Util.list "traceEvents" doc);
  let sums = Hashtbl.create 32 in
  let add name total self =
    let n, t, s = Option.value (Hashtbl.find_opt sums name) ~default:(0, 0.0, 0.0) in
    Hashtbl.replace sums name (n + 1, t +. total, s +. self)
  in
  Hashtbl.iter
    (fun _ events ->
      let events =
        List.sort (fun a b -> compare (Util.num "ts" a) (Util.num "ts" b)) events
      in
      ignore
        (List.fold_left
           (fun stack e ->
             match (Util.str "ph" e, stack) with
             | "B", _ -> (Util.str "name" e, Util.num "ts" e, ref 0.0) :: stack
             | "E", (name, t0, kids) :: rest ->
                 let d = Util.num "ts" e -. t0 in
                 (match rest with (_, _, up) :: _ -> up := !up +. d | [] -> ());
                 add name (d /. 1e6) ((d -. !kids) /. 1e6);
                 rest
             | _ -> stack)
           [] events))
    per_tid;
  let rows =
    Hashtbl.fold (fun name (n, t, s) acc -> (name, n, t, s) :: acc) sums []
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  [
    ("trace_ok", Json.Bool ok);
    ( "spans",
      Json.List
        (List.map
           (fun (name, n, t, s) ->
             Json.Obj
               [
                 ("name", Json.Str name);
                 ("count", Json.Num (float_of_int n));
                 ("total_s", Json.Num t);
                 ("self_s", Json.Num s);
               ])
           rows) );
  ]

(* The paper's accuracy axes, read from the rows [specrepro suite]
   prints rather than recomputed here. *)
let accuracy results =
  let rows = Experiments.headlines results in
  let value metric =
    match List.find_opt (fun (h : Experiments.headline) -> h.metric = metric) rows with
    | None -> failwith ("no headline row " ^ metric)
    | Some h ->
        (* "15.38%", "+81.14%", "0.07pp", "699.3x" *)
        let s = h.measured in
        let s =
          if String.starts_with ~prefix:"+" s then String.sub s 1 (String.length s - 1)
          else s
        in
        let len = ref 0 in
        while !len < String.length s && Util.is_num_char s.[!len] do
          incr len
        done;
        float_of_string (String.sub s 0 !len)
  in
  [
    ("cpi_err_pct", value "Avg CPI error, native vs Sniper Regional");
    ("l3_err_pct", Float.abs (value "L3 miss-rate error, Warmup Regional (pooled)"));
    ("mix_err_pp", value "Instruction-distribution error, Regional (largest class)");
    ("insn_reduction_x", value "Instruction reduction, Whole -> Regional");
  ]

let stage_sums results =
  let timings =
    List.concat_map (fun (r : P.bench_result) -> r.P.report.P.stages) results
  in
  List.sort_uniq compare (List.map (fun (t : P.stage_timing) -> t.stage) timings)
  |> List.map (fun stage ->
         ( stage,
           Sp_util.Stats.fsum
             (fun (t : P.stage_timing) -> if t.stage = stage then t.seconds else 0.0)
             timings ))

let suite cfg =
  let trace = flag "trace" cfg in
  if trace then Sp_obs.Tracer.enable ();
  let options = options cfg in
  let specs =
    List.map
      (fun v ->
        match Json.to_str v with
        | Some b -> Sp_workloads.Suite.find b
        | None -> failwith "benches: expected names")
      (Util.list "benches" cfg)
  in
  let results, wall = Util.timed (fun () -> P.run_suite ~options ~specs ()) in
  let snap = Metrics.snapshot () in
  let rss = Util.peak_rss_mb () in
  let envelopes =
    List.map (fun r -> Util.norm (Json.to_string (Api.run_envelope r))) results
  in
  let name (r : P.bench_result) = r.P.spec.Sp_workloads.Benchspec.name in
  let fields =
    [
      ("wall_s", Json.Num wall);
      ("digest", Json.Str (Util.digest (List.map (Util.norm ~jobs:true) envelopes)));
      ( "job_ms",
        Json.List
          (List.map
             (fun (r : P.bench_result) -> Json.Num (1000.0 *. r.P.wall_seconds))
             results) );
      ("stages", Util.obj_of_floats (stage_sums results));
      ( "whole_insns",
        Json.Num
          (Sp_util.Stats.fsum
             (fun (r : P.bench_result) -> float_of_int r.P.whole_insns)
             results) );
      ("counters", counters snap);
      ("accuracy", Util.obj_of_floats (accuracy results));
      ("rss_mb", Json.Num rss);
    ]
    @ (if flag "envelopes" cfg then
         [
           ( "envelopes",
             Json.Obj (List.map2 (fun r e -> (name r, Json.Str e)) results envelopes) );
         ]
       else [])
    @ (if flag "probes" cfg then
         [ ("probes", Util.obj_of_floats (Probes.run options results)) ]
       else [])
    @ if trace then spans () else []
  in
  print_endline (Json.to_string (Json.Obj fields))

let serve cfg =
  if flag "trace" cfg then Sp_obs.Tracer.enable ();
  let base = options cfg in
  Sp_serve.Server.run
    {
      Sp_serve.Server.socket_path = Util.str "socket" cfg;
      results_path = Some (Util.str "results" cfg);
      queue_capacity = 64;
      parallel = base.P.jobs;
      job_timeout = 0.0;
      base_options = base;
      quiet = true;
    };
  let snap = Metrics.snapshot () in
  let p50_ms name =
    match Metrics.find name snap with
    | Some { Metrics.value = Metrics.Histogram_value h; _ } when h.Metrics.count > 0 ->
        1000.0 *. Metrics.quantile h 0.5
    | _ -> 0.0
  in
  let fields =
    [
      ("rss_mb", Json.Num (Util.peak_rss_mb ()));
      ("counters", counters snap);
      ("job_ms_p50", Json.Num (p50_ms "serve.job_seconds"));
      ("queue_wait_ms_p50", Json.Num (p50_ms "serve.queue_wait_seconds"));
    ]
    @ if flag "trace" cfg then spans () else []
  in
  print_endline (Json.to_string (Json.Obj fields))

let main role config =
  (* Sp_util.Crc32 builds its tables in a [lazy] that raises
     CamlinternalLazy.Undefined when two domains force it at once, as
     two --jobs 2 workers reading the warm cache can on their first
     lookup.  Forcing it here keeps that library race out of the
     measurements; README.md records it as a known issue. *)
  ignore (Sp_util.Crc32.string "");
  match Json.parse config with
  | Error e -> failwith ("child config: " ^ e)
  | Ok cfg -> (
      match role with
      | "suite" -> suite cfg
      | "serve" -> serve cfg
      | r -> failwith ("unknown child role " ^ r))
