(* The end-to-end benchmark.

     dune exec bench/e2e/e2e.exe -- [--workload NAME]... [--seed N]
       [--seconds S] [--trace [0|1]] [--json] [--smoke]

   Each workload sets up [setups] times (setup_s is the median), then
   runs timed passes for --seconds, each in a fresh child process (see
   child.ml), and checks every output against the set-up's reference.
   The last stdout line per workload is one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics, or
   with --trace the per-layer ones.  Exit 0 when every check passes, 2
   when one fails, 1 on bad input.  README.md describes the workloads,
   the metrics and what each should move. *)

open Specrepro
module Json = Sp_obs.Json
module Client = Sp_serve.Client

(* memory- and compute-bound, few and many phases, skewed and flat
   weights *)
let benchmarks =
  [
    "505.mcf_r";
    "620.omnetpp_s";
    "623.xalancbmk_s";
    "503.bwaves_r";
    "541.leela_r";
    "557.xz_r";
    "519.lbm_r";
    "548.exchange2_r";
  ]

type kind =
  | Suite of { sampler : string; cold : bool; jobs_check : bool }
  | Daemon

let workloads =
  [
    ("suite-cold", Suite { sampler = "simpoint"; cold = true; jobs_check = false });
    ("suite-warm", Suite { sampler = "simpoint"; cold = false; jobs_check = true });
    ( "stratified-warm",
      Suite { sampler = "stratified"; cold = false; jobs_check = false } );
    ("daemon-2c", Daemon);
  ]

type size = {
  benches : string list;
  suite_scale : float;
  daemon_scale : float;
  setups : int;  (** set-up repeats; setup_s is their median *)
  min_passes : int;  (** suite passes run at least this many *)
  min_rounds : int;  (** daemon rounds run at least this many *)
}

(* Sized for a 2-core host: batch passes run --jobs 1; the daemon runs
   --jobs 2 with 2 client connections. *)
let daemon_jobs = 2
let clients = 2

let full =
  {
    benches = benchmarks;
    suite_scale = 0.15;
    daemon_scale = 0.05;
    setups = 3;
    min_passes = 3;
    min_rounds = 7;
  }

(* the same code path on 2 benchmarks: 1 pass, 2 x 4 daemon submits *)
let smoke =
  {
    benches = [ "620.omnetpp_s"; "557.xz_r" ];
    suite_scale = 0.05;
    daemon_scale = 0.05;
    setups = 1;
    min_passes = 1;
    min_rounds = 2;
  }

let e2e_metrics = [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MiB") ]

let layer_metrics =
  [
    ("stage.log_profile_s", "s");
    ("stage.select_s", "s");
    ("stage.variance_s", "s");
    ("stage.cold_replay_s", "s");
    ("stage.warm_replay_s", "s");
    ("vm.insns", "count");
    ("vm.nil_ns_per_insn", "ns/insn");
    ("pin.profile_ns_per_insn", "ns/insn");
    ("cache.allcache_ns_per_insn", "ns/insn");
    ("cache.accesses", "count");
    ("cache.ns_per_access", "ns");
    ("cpu.interval_ns_per_insn", "ns/insn");
    ("profile.combined_ns_per_insn", "ns/insn");
    ("profile.interaction_frac", "ratio");
    ("pinball.encode_s", "s");
    ("pinball.bytes", "bytes");
    ("pinball.decode_s", "s");
    ("profstore.find_s", "s");
    ("pinball.capture_warm_s", "s");
    ("pbcache.mem_hit_frac", "ratio");
    ("simpoint.projection_s", "s");
    ("simpoint.select_s", "s");
    ("simpoint.variance_s", "s");
    ("select.points", "count");
    ("replay.warm_ns_per_insn", "ns/insn");
    ("warm.points", "count");
    ("pool.batches", "count");
    ("pool.tasks_per_batch", "ratio");
    ("pool.domains_spawned", "count");
    ("serve.job_ms_p50", "ms");
    ("serve.queue_wait_ms_p50", "ms");
    ("serve.overhead_ms_p50", "ms");
    ("serve.submit_p50_ms", "ms");
    ("serve.submit_p90_ms", "ms");
    ("results.appends", "count");
    ("trace.overhead_frac", "ratio");
    ("cpi_err_pct", "%");
    ("l3_err_pct", "%");
    ("mix_err_pp", "pp");
    ("insn_reduction_x", "x");
  ]

type run = {
  size : size;
  seed : int;
  seconds : float;
  trace : bool;
  perturb : bool;  (** test hook: corrupt the reference digest *)
  work : string;  (** scratch directory of this workload *)
}

type outcome = {
  e2e : (string * float) list;
  layers : (string * float) list;
  digest : string;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* output checks: each is one attempted operation *)

type checks = { mutable attempted : int; mutable failed : int; lock : Mutex.t }

let check c label ok =
  Mutex.protect c.lock (fun () ->
      c.attempted <- c.attempted + 1;
      if not ok then begin
        c.failed <- c.failed + 1;
        Printf.eprintf "e2e: check failed: %s\n%!" label
      end)

(* a child or request that fails is a failed operation; its sample is
   dropped *)
let attempt c label f =
  match f () with
  | v -> Some v
  | exception (Failure msg | Sys_error msg) ->
      check c (label ^ ": " ^ msg) false;
      None

let reference r digest = if r.perturb then "perturbed-" ^ digest else digest

(* ------------------------------------------------------------------ *)
(* shared pieces *)

let pass_config r ~scale ~sampler ~jobs ~cache ?(trace = false) ?(probes = false)
    ?(envelopes = false) () =
  Json.Obj
    [
      ("scale", Json.Num scale);
      ("sampler", Json.Str sampler);
      ("jobs", Json.Num (float_of_int jobs));
      ("seed", Json.Num (float_of_int r.seed));
      ("cache", Json.Str cache);
      ("benches", Json.List (List.map (fun b -> Json.Str b) r.size.benches));
      ("trace", Json.Bool trace);
      ("probes", Json.Bool probes);
      ("envelopes", Json.Bool envelopes);
    ]

let run_pass cfg =
  Util.timed (fun () -> Util.finish (Util.spawn (Util.child_args "suite" cfg)))

(* [f i] for i = 0, 1, ... until --seconds have passed and [min] calls
   were made; failed calls ([None]) are dropped *)
let timed_loop r ~min f =
  let t_end = Util.now_s () +. r.seconds in
  let rec go i acc =
    if i >= min && Util.now_s () >= t_end then List.rev acc
    else go (i + 1) (match f i with Some v -> v :: acc | None -> acc)
  in
  match go 0 [] with [] -> failwith "no timed pass succeeded" | l -> l

(* the numeric fields of object [k] of a child reply *)
let floats_of k j =
  let o = Util.field k j in
  List.map (fun (name, _) -> (name, Util.num name o)) (Util.pairs k j)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let quartiles xs =
  Printf.sprintf "median %.4f (p25 %.4f, p75 %.4f), n=%d" (Util.median xs)
    (Sp_util.Stats.percentile xs 25.0) (Sp_util.Stats.percentile xs 75.0)
    (Array.length xs)

(* a timing's median and the highest percentile with 10 samples beyond *)
let tail xs =
  let highest =
    List.find_map
      (fun q -> Option.map (fun v -> Printf.sprintf "p%d %.2f" q v) (Util.percentile xs q))
      [ 99; 95; 90; 75; 50 ]
  in
  Printf.sprintf "median %.2f, %s, n=%d" (Util.median xs)
    (Option.value highest ~default:"no percentile has 10 samples beyond it")
    (Array.length xs)

(* the traced child's spans with the most self time *)
let span_notes reply =
  List.filteri (fun i _ -> i < 12) (Util.list "spans" reply)
  |> List.map (fun s ->
         Printf.sprintf "span %-22s self %.4f s of %.4f s (%d)" (Util.str "name" s)
           (Util.num "self_s" s) (Util.num "total_s" s)
           (int_of_float (Util.num "count" s)))

(* The per-layer list both kinds of workload report.  [stage] and
   [count] are per suite of [benches]; layers a workload does not
   exercise (the daemon's, on batch workloads) read 0. *)
let layers ~stage ~count ~probes ~serve ~overhead ~accuracy =
  let job_p50, queue_p50, submit_p50, submit_p90 = serve in
  [
    ("stage.log_profile_s", stage "log+profile");
    ("stage.select_s", stage "select");
    ("stage.variance_s", stage "variance");
    ("stage.cold_replay_s", stage "cold-replay");
    ("stage.warm_replay_s", stage "warm-replay");
    ("vm.insns", count "vm.instructions");
    ("select.points", count "select.points");
    ("warm.points", count "warm.points");
    (* a lookup is served from memory, or from disk by one of the two
       stores, or missed *)
    ( "pbcache.mem_hit_frac",
      ratio (count "pbcache.mem_hits")
        (count "pbcache.mem_hits" +. count "pbcache.hits" +. count "profcache.hits") );
    ("pool.batches", count "pool.batches");
    ("pool.tasks_per_batch", ratio (count "pool.tasks") (count "pool.batches"));
    ("pool.domains_spawned", count "pool.domains_spawned");
    ("serve.job_ms_p50", job_p50);
    ("serve.queue_wait_ms_p50", queue_p50);
    ("serve.overhead_ms_p50", submit_p50 -. job_p50);
    ("serve.submit_p50_ms", submit_p50);
    ("serve.submit_p90_ms", submit_p90);
    ("results.appends", count "results.appends");
    ("trace.overhead_frac", overhead);
  ]
  @ probes @ accuracy

(* ------------------------------------------------------------------ *)
(* suite-cold, suite-warm, stratified-warm *)

let suite_workload r c ~sampler ~cold ~jobs_check =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let cfg = pass_config r ~scale:r.size.suite_scale ~sampler in
  let dir name = Filename.concat r.work name in
  (* set-up: one cold pass fills a fresh profile cache; its digest is
     the reference every later pass must reproduce *)
  let fills =
    List.init r.size.setups (fun i ->
        run_pass (cfg ~jobs:1 ~cache:(dir (Printf.sprintf "fill%d" i)) ()))
  in
  let first = fst (List.hd fills) in
  let expected = reference r (Util.str "digest" first) in
  List.iter
    (fun (f, _) ->
      check c "set-up pass reproduces the reference digest"
        (Util.str "digest" f = expected))
    fills;
  List.iteri (fun i _ -> if i > 0 then Util.rm_rf (dir (Printf.sprintf "fill%d" i))) fills;
  let warm = dir "fill0" in
  let passes =
    timed_loop r ~min:r.size.min_passes (fun i ->
        let cache = if cold then dir (Printf.sprintf "cold%d" i) else warm in
        let pass = attempt c "pass" (fun () -> run_pass (cfg ~jobs:1 ~cache ())) in
        if cold then Util.rm_rf cache;
        Option.iter
          (fun (reply, _) ->
            check c "pass reproduces the reference digest"
              (Util.str "digest" reply = expected))
          pass;
        pass)
  in
  if jobs_check then
    ignore
      (attempt c "--jobs 2 pass" (fun () ->
           let reply, _ = run_pass (cfg ~jobs:2 ~cache:warm ()) in
           check c "--jobs 2 reproduces --jobs 1" (Util.str "digest" reply = expected)));
  let replies = List.map fst passes in
  let walls = Array.of_list (List.map snd passes) in
  let setups = Array.of_list (List.map snd fills) in
  let med f = Util.median (Array.of_list (List.map f replies)) in
  let jobs_ms = Array.concat (List.map (Util.floats "job_ms") replies) in
  note "set-up (cold pass filling a profile cache): %s s" (quartiles setups);
  note "pass wall: %s, fastest %.4f s" (quartiles walls) (Util.fastest walls);
  note "pass peak RSS: %s MiB"
    (quartiles (Array.of_list (List.map (Util.num "rss_mb") replies)));
  note "benchmark job: %s ms" (tail jobs_ms);
  let e2e =
    [
      ("setup_s", Util.median setups);
      ("wall_s", Util.fastest walls);
      ("peak_rss_mb", med (Util.num "rss_mb"));
    ]
  in
  let traced =
    if not r.trace then None
    else
      attempt c "traced pass" (fun () ->
          let cache = if cold then dir "traced" else warm in
          let reply, _ = run_pass (cfg ~jobs:1 ~cache ~trace:true ~probes:true ()) in
          check c "traced pass reproduces the reference digest"
            (Util.str "digest" reply = expected);
          check c "trace is balanced" (Json.member "trace_ok" reply = Some (Json.Bool true));
          reply)
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
        let stage name = med (fun j -> Util.num name (Util.field "stages" j)) in
        let probes = floats_of "probes" t in
        (* accounting: the stages explain the pass, and the probes
           reproduce the stage they claim to measure *)
        List.iter
          (fun j ->
            let covered =
              List.fold_left (fun a (_, v) -> a +. v) 0.0 (floats_of "stages" j)
            in
            let wall = Util.num "wall_s" j in
            if covered < 0.95 *. wall then
              note "warning: stages cover only %.1f%% of a pass" (100.0 *. covered /. wall))
          replies;
        (if cold then
           let predicted =
             List.assoc "profile.combined_ns_per_insn" probes
             *. Util.num "whole_insns" t /. 1e9
           in
           let measured = stage "log+profile" in
           let off = (predicted -. measured) /. measured in
           note
             "%s: combined-tools probe predicts %.3f s of log+profile, stage took \
              %.3f s (%+.1f%%)"
             (if Float.abs off <= 0.15 then "accounting ok" else "warning")
             predicted measured (100.0 *. off));
        List.iter (note "%s") (span_notes t);
        let overhead = Util.num "wall_s" t /. med (Util.num "wall_s") -. 1.0 in
        layers ~stage
          ~count:(fun name -> med (fun j -> Util.num name (Util.field "counters" j)))
          ~probes ~serve:(0.0, 0.0, 0.0, 0.0) ~overhead
          ~accuracy:(floats_of "accuracy" first)
  in
  { e2e; layers; digest = Util.str "digest" first; notes = List.rev !notes }

(* ------------------------------------------------------------------ *)
(* daemon-2c *)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let concurrently n f = List.iter Thread.join (List.init n (fun k -> Thread.create f k))

let daemon_workload r c =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let scale = r.size.daemon_scale and jobs = daemon_jobs in
  let n_benches = List.length r.size.benches in
  let request_options = { Pipeline.default_options with Pipeline.slices_scale = scale; jobs } in
  let config d ~trace =
    pass_config r ~scale ~sampler:"simpoint" ~jobs ~cache:(Filename.concat d "cache") ~trace
  in
  let start d socket ~trace =
    let socket = Filename.concat d socket in
    let extra =
      [ ("socket", Json.Str socket); ("results", Json.Str (Filename.concat d "results.bin")) ]
    in
    let cfg = match config d ~trace () with Json.Obj f -> Json.Obj (f @ extra) | j -> j in
    let child = Util.spawn (Util.child_args "serve" cfg) in
    let deadline = Util.now_s () +. 30.0 in
    while not (Sys.file_exists socket) do
      if Util.now_s () > deadline then failwith "the daemon did not open its socket";
      Unix.sleepf 0.005
    done;
    (child, socket)
  in
  let connect socket =
    match Client.connect socket with Ok cl -> cl | Error e -> failwith e
  in
  (* one closed-loop walk over the benchmarks in a seeded order; the
     replies that match the reference, with their round-trip times *)
  let walk refs cl rng =
    List.filter_map
      (fun bench ->
        let res, dt =
          Util.timed (fun () ->
              Client.request cl (Client.submit ~benchmark:bench request_options))
        in
        match res with
        | Error e ->
            check c (Printf.sprintf "submit %s: %s" bench e) false;
            None
        | Ok (raw, reply) ->
            let ok = Util.norm raw = Hashtbl.find refs bench in
            check c (Printf.sprintf "daemon reply for %s equals run --json" bench) ok;
            if ok then Some (dt, reply) else None)
      (shuffle rng r.size.benches)
  in
  let warm_up refs socket =
    let cl = connect socket in
    ignore (walk refs cl (Random.State.make [| r.seed; -1 |]));
    Client.close cl
  in
  let stop (child, socket) =
    let cl = connect socket in
    (match Client.request cl Client.status with
    | Ok (_, reply) ->
        let status = Util.field "result" reply in
        List.iter
          (fun k -> check c ("daemon " ^ k ^ " = 0") (Util.num k status = 0.0))
          [ "rejected"; "timed_out"; "bad_frames" ]
    | Error e -> check c ("status: " ^ e) false);
    ignore (Client.request cl Client.shutdown);
    Client.close cl;
    Util.finish child
  in
  (* set-up: fill a fresh profile cache at --jobs 2 while recording the
     normalised [run --json] envelope of every benchmark, start the
     daemon over that cache, and warm it with one walk *)
  let setup i =
    let d = Filename.concat r.work (Printf.sprintf "daemon%d" i) in
    let fill, _ = run_pass (config d ~trace:false ~envelopes:true ()) in
    let refs = Hashtbl.create 8 in
    List.iter
      (fun b ->
        Hashtbl.replace refs b
          (if r.perturb then "perturbed" else Util.str b (Util.field "envelopes" fill)))
      r.size.benches;
    let daemon = start d "s.sock" ~trace:false in
    warm_up refs (snd daemon);
    (d, fill, refs, daemon)
  in
  let units = List.init r.size.setups (fun i -> Util.timed (fun () -> setup i)) in
  let first_fill = match units with ((_, f, _, _), _) :: _ -> f | [] -> assert false in
  List.iteri
    (fun i ((d, fill, _, daemon), _) ->
      check c "set-up pass reproduces the reference digest"
        (Util.str "digest" fill = Util.str "digest" first_fill);
      if i < r.size.setups - 1 then begin
        ignore (stop daemon);
        Util.rm_rf d
      end)
    units;
  let (d, _, refs, daemon), _ = List.nth units (r.size.setups - 1) in
  let lock = Mutex.create () in
  let latencies = ref [] and stages = Hashtbl.create 8 in
  let record replies =
    Mutex.protect lock (fun () ->
        List.iter
          (fun (dt, reply) ->
            latencies := (1000.0 *. dt) :: !latencies;
            List.iter
              (fun s ->
                let k = Util.str "stage" s in
                let prev = Option.value (Hashtbl.find_opt stages k) ~default:0.0 in
                Hashtbl.replace stages k (prev +. Util.num "seconds" s))
              (Util.list "stages" (Util.field "report" (Util.field "result" reply))))
          replies)
  in
  (* A round: every client walks the benchmarks once in its own seeded
     order, sending each request when the previous one returns.  The
     round ends when the last client is done, so every round runs under
     the same contention. *)
  let connections socket =
    Array.init clients (fun k -> (connect socket, Random.State.make [| r.seed; k |]))
  in
  let round ?(record = record) conns =
    snd
      (Util.timed (fun () ->
           concurrently clients (fun k ->
               let cl, rng = conns.(k) in
               ignore (attempt c "client" (fun () -> record (walk refs cl rng))))))
  in
  let conns = connections (snd daemon) in
  (* The daemon's resident set grows with every round it serves, so its
     peak is read after a fixed number of rounds, not at the end of a
     window whose round count depends on speed. *)
  let rss = ref nan in
  let walls =
    timed_loop r ~min:r.size.min_rounds (fun i ->
        let w = round conns in
        if i = r.size.min_rounds - 1 then rss := Util.peak_rss_mb ~pid:(fst (fst daemon)) ();
        Some w)
    |> Array.of_list
  in
  Array.iter (fun (cl, _) -> Client.close cl) conns;
  let final = stop daemon in
  let latencies = Array.of_list !latencies in
  let timed_jobs = Array.length latencies in
  let count name = Util.num name (Util.field "counters" final) in
  check c "the results store holds one record per completed submit"
    (count "results.appends" = float_of_int (n_benches + timed_jobs));
  note "set-up (fill + start + warm-up walk): %s s"
    (quartiles (Array.of_list (List.map snd units)));
  note "round of %d x %d submits: %s, fastest %.4f s" clients n_benches
    (quartiles walls) (Util.fastest walls);
  note "submit round trip: %s ms" (tail latencies);
  note "daemon peak RSS: %.1f MiB after %d rounds, %.1f MiB at exit" !rss
    r.size.min_rounds (Util.num "rss_mb" final);
  let e2e =
    [
      ("setup_s", Util.median (Array.of_list (List.map snd units)));
      ("wall_s", Util.fastest walls);
      ("peak_rss_mb", if Float.is_nan !rss then Util.num "rss_mb" final else !rss);
    ]
  in
  let layers =
    if not r.trace then []
    else begin
      (* a second, traced daemon over the same cache: a warm-up walk,
         then one round *)
      let traced = start d "t.sock" ~trace:true in
      warm_up refs (snd traced);
      let conns = connections (snd traced) in
      let traced_wall = round ~record:ignore conns in
      Array.iter (fun (cl, _) -> Client.close cl) conns;
      let treply = stop traced in
      check c "trace is balanced" (Json.member "trace_ok" treply = Some (Json.Bool true));
      List.iter (note "%s") (span_notes treply);
      let probe, _ = run_pass (config d ~trace:true ~probes:true ()) in
      check c "probe pass reproduces the reference digest"
        (Util.str "digest" probe = Util.str "digest" first_fill);
      let suites = float_of_int (n_benches + timed_jobs) /. float_of_int n_benches in
      let stage k =
        Option.value (Hashtbl.find_opt stages k) ~default:0.0
        *. float_of_int n_benches /. float_of_int timed_jobs
      in
      let per_suite name =
        if name = "results.appends" then count name else count name /. suites
      in
      (* a percentile without 10 samples beyond it is reported as 0 *)
      let pct q =
        match Util.percentile latencies q with
        | Some v -> v
        | None ->
            note "warning: serve.submit_p%d_ms needs more than %d submits" q timed_jobs;
            0.0
      in
      let p50 = pct 50 in
      let p90 = pct 90 in
      layers ~stage ~count:per_suite
        ~probes:(floats_of "probes" probe)
        ~serve:(Util.num "job_ms_p50" final, Util.num "queue_wait_ms_p50" final, p50, p90)
        ~overhead:((traced_wall /. Util.median walls) -. 1.0)
        ~accuracy:(floats_of "accuracy" first_fill)
    end
  in
  { e2e; layers; digest = Util.str "digest" first_fill; notes = List.rev !notes }

(* ------------------------------------------------------------------ *)
(* command line *)

type cli = {
  names : string list;
  seed : int;
  seconds : float;
  trace : bool;
  json : bool;
  smoke : bool;
  perturb : bool;
}

let usage =
  "usage: e2e.exe [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]\n\
  \               [--json] [--smoke]\n\
   workloads: " ^ String.concat ", " (List.map fst workloads)

let parse args =
  let rec go o = function
    | [] -> Ok o
    | "--workload" :: w :: rest ->
        if List.mem_assoc w workloads then go { o with names = o.names @ [ w ] } rest
        else Error (Printf.sprintf "unknown workload %S" w)
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some seed -> go { o with seed } rest
        | None -> Error ("--seed: not an integer: " ^ n))
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some seconds when seconds >= 0.0 -> go { o with seconds } rest
        | _ -> Error ("--seconds: not a non-negative number: " ^ s))
    | "--trace" :: (("0" | "1") as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--json" :: rest -> go { o with json = true } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--perturb" :: rest -> go { o with perturb = true } rest
    | a :: _ -> Error ("unexpected argument " ^ a)
  in
  go
    {
      names = [];
      seed = Sp_simpoint.Simpoints.default_config.Sp_simpoint.Simpoints.seed;
      seconds = 15.0;
      trace = false;
      json = false;
      smoke = false;
      perturb = false;
    }
    args

(* Print the workload's report (unless --json) and its result line. *)
let report (o : cli) name c res =
  let declared, values =
    if o.trace then (layer_metrics, res.layers) else (e2e_metrics, res.e2e)
  in
  let metrics = List.map (fun (m, unit) -> (m, List.assoc m values, unit)) declared in
  let out = if o.json then stderr else stdout in
  Printf.fprintf out "e2e %s (seed %d%s)\n" name o.seed (if o.smoke then ", smoke" else "");
  List.iter (Printf.fprintf out "  %s\n") res.notes;
  Printf.fprintf out "  result digest %s\n  checks: %d attempted, %d failed\n" res.digest
    c.attempted c.failed;
  if not o.json then
    List.iter (fun (m, v, unit) -> Printf.printf "  %-30s %14.6g %s\n" m v unit) metrics;
  flush out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (c.failed = 0));
            ("attempted", Json.Num (float_of_int c.attempted));
            ("failed", Json.Num (float_of_int c.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m, v, unit) ->
                     (m, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

(* Every run ends well inside the 180 s a run may take. *)
let watchdog seconds =
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf seconds;
         prerr_endline "e2e: time limit reached; stopping";
         Util.kill_all ();
         Unix._exit 2)
       ())

let main (o : cli) =
  let size = if o.smoke then smoke else full in
  let names = if o.names = [] then List.map fst workloads else o.names in
  let work = Filename.concat ".bench_build/e2e" (string_of_int (Unix.getpid ())) in
  Sp_pinball.Store.mkdir_p work;
  at_exit (fun () ->
      Util.kill_all ();
      Util.rm_rf work);
  watchdog (170.0 *. float_of_int (List.length names));
  List.fold_left
    (fun code name ->
      let c = { attempted = 0; failed = 0; lock = Mutex.create () } in
      let r =
        {
          size;
          seed = o.seed;
          seconds = (if o.smoke then 0.0 else o.seconds);
          trace = o.trace;
          perturb = o.perturb;
          work = Filename.concat work name;
        }
      in
      let res =
        match List.assoc name workloads with
        | Suite { sampler; cold; jobs_check } -> suite_workload r c ~sampler ~cold ~jobs_check
        | Daemon -> daemon_workload r c
      in
      Util.rm_rf r.work;
      report o name c res;
      if c.failed > 0 then 2 else code)
    0 names

let () =
  match Array.to_list Sys.argv with
  | [ _; "--child"; role; config ] -> Child.main role config
  | _ :: args -> (
      match parse args with
      | Error e ->
          Printf.eprintf "e2e: %s\n%s\n" e usage;
          exit 1
      | Ok o -> (
          match main o with
          | code -> exit code
          | exception (Failure msg | Sys_error msg | Unix.Unix_error (_, msg, _)) ->
              Printf.eprintf "e2e: %s\n" msg;
              exit 2))
  | [] -> exit 1
