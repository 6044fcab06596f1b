(* The specrepro command-line interface.

   Subcommands mirror the stages of the paper's methodology:
     list          the synthetic SPEC CPU2017 suite
     profile       whole-run profiling of one benchmark
     simpoints     simulation-point selection (optionally saving pinballs)
     replay        replay stored pinballs under pintools
     run           the full pipeline for one benchmark
     suite         the full pipeline for the whole suite (Table II + headlines)
     experiment    regenerate a table or figure of the paper, or all of them
     report        aggregate a --trace-out file into per-stage totals
     serve         benchmark-as-a-service daemon over a Unix socket
     submit        send a job to (or query / drain) a running daemon
     query         inspect the daemon's append-only results store
     bench-regress gate a stored run against its history (exit 2 on fail)

   Pipeline-driving subcommands share one options surface (the [common]
   term group below): --scale, --quiet, --jobs, --sampler,
   --profile-cache, --mem-cache-mb, --warmup-insns, --slice-insns and
   --trace-out mean the same thing everywhere they appear.

   Reporting subcommands all take --json and emit one specrepro/v2
   envelope ({schema, command, options, result} — see Specrepro.Api),
   the same envelope the serve daemon speaks on the wire.

   Exit codes follow one convention everywhere:
     0  success
     1  bad input or a corrupt artifact (unknown benchmark, malformed
        trace/pinball/store, unreachable daemon, daemon-side errors)
     2  a quality gate failed (bench-regress past its ratio gate;
        bench/main.exe --gate / --gate-all) *)

open Cmdliner
open Specrepro

(* ------------------------------------------------------------------ *)
(* the shared options surface *)

type common = {
  scale : float;
  quiet : bool;
  jobs : int;
  sampler : Sp_simpoint.Sampler.kind;
  profile_cache : string option;
  mem_cache_mb : int option;
  warmup_insns : int option;
  slice_insns : int option;
  trace_out : string option;
}

let scale_arg =
  let doc =
    "Scale factor for the whole-run length (1.0 = the calibrated paper-like \
     length; tests and demos use less)."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let quiet_arg =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel stages (suite fan-out, k-means, \
     variance sweep).  1 runs fully sequentially; 0 picks the hardware's \
     recommended parallelism.  Any value produces identical results — only \
     wall-clock changes."
  in
  let env = Cmd.Env.info "SPECREPRO_JOBS" ~doc:"Default for $(b,--jobs)." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc ~env)

let sampler_arg =
  let doc =
    "Simulation-point sampling methodology for the select stage: \
     $(b,simpoint) (k-means phase clustering with BIC-guided k, the \
     default), $(b,systematic) (periodic SMARTS-style design), \
     $(b,stratified) (two-phase stratified sampling with Neyman \
     allocation) or $(b,rss) (ranked-set sampling with repeated \
     subsampling).  Replay and warm-replay are sampler-agnostic."
  in
  let env = Cmd.Env.info "SPECREPRO_SAMPLER" ~doc:"Default for $(b,--sampler)." in
  Arg.(
    value
    & opt (enum Sp_simpoint.Sampler.kind_enum) Sp_simpoint.Sampler.Simpoint
    & info [ "sampler" ] ~docv:"SAMPLER" ~doc ~env)

let profile_cache_arg =
  let doc =
    "Content-addressed cache directory.  The log+profile stage stores two \
     entries per benchmark: its outputs (BBV slices, instruction mix, \
     whole-run cache and timing statistics) and the whole pinball.  A later \
     invocation with the same benchmark, slice length, scale and warmup \
     decodes both and executes no whole program; otherwise it logs and \
     profiles once and stores both.  Corrupt or stale entries are \
     quarantined and recomputed, and a failed write only warns.  Inspect \
     the directory with $(b,specrepro pinballs)."
  in
  let env =
    Cmd.Env.info "SPECREPRO_PROFILE_CACHE"
      ~doc:"Default for $(b,--profile-cache)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-cache" ] ~docv:"DIR" ~doc ~env)

let mem_cache_mb_arg =
  let doc =
    "Budget (MiB) of the in-memory decoded-artifact cache fronting the \
     $(b,--profile-cache) directory: a hit skips the disk read, checksum \
     sweep and decode.  Strictly a performance knob — results are \
     bit-identical regardless.  0 disables; default 64."
  in
  let env =
    Cmd.Env.info "SPECREPRO_MEM_CACHE_MB"
      ~doc:"Default for $(b,--mem-cache-mb)."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-cache-mb" ] ~docv:"MB" ~doc ~env)

let warmup_insns_arg =
  let doc =
    "Warmup window per simulation point, in simulated instructions: each \
     warm regional replay trains the caches and predictor on this many \
     instructions preceding the point (clamped to the previous point's \
     end) before measuring.  Default: 150000, sized against the scaled \
     L3 as the paper sizes its 500M-cycle warmup against the real one."
  in
  let env =
    Cmd.Env.info "SPECREPRO_WARMUP_INSNS"
      ~doc:"Default for $(b,--warmup-insns)."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "warmup-insns" ] ~docv:"N" ~doc ~env)

let slice_insns_arg =
  let doc =
    "Override the profiling slice length in simulated instructions \
     (default: the calibrated 30 paper-Minsn equivalent)."
  in
  Arg.(
    value & opt (some int) None & info [ "slice-insns" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc =
    "Record a span trace of the run and write it to $(docv) as Chrome \
     trace-event JSON (open in chrome://tracing or Perfetto, or summarise \
     with $(b,specrepro report))."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let common_term =
  let make scale quiet jobs sampler profile_cache mem_cache_mb warmup_insns
      slice_insns trace_out =
    {
      scale;
      quiet;
      jobs;
      sampler;
      profile_cache;
      mem_cache_mb;
      warmup_insns;
      slice_insns;
      trace_out;
    }
  in
  Term.(
    const make $ scale_arg $ quiet_arg $ jobs_arg $ sampler_arg
    $ profile_cache_arg $ mem_cache_mb_arg $ warmup_insns_arg
    $ slice_insns_arg $ trace_out_arg)

let resolve_jobs jobs = if jobs <= 0 then Sp_util.Pool.default_jobs () else jobs

let options_of c =
  let base = Pipeline.default_options in
  Pipeline.normalize
    {
      base with
      Pipeline.slices_scale = c.scale;
      sampler = c.sampler;
      slice_insns =
        Option.value ~default:base.Pipeline.slice_insns c.slice_insns;
      warmup_insns =
        Option.value ~default:base.Pipeline.warmup_insns c.warmup_insns;
      progress = not c.quiet;
      jobs = resolve_jobs c.jobs;
      profile_cache = c.profile_cache;
      mem_cache_mb =
        Option.value ~default:base.Pipeline.mem_cache_mb c.mem_cache_mb;
    }

(* Run [f] with span tracing enabled when --trace-out was given; the
   trace file is written even when [f] raises.  Argument validation
   (and its [exit 1]s) must happen before entering — [Stdlib.exit]
   does not unwind the stack, so it would skip the trace write. *)
let with_trace c f =
  match c.trace_out with
  | None -> f ()
  | Some path ->
      Sp_obs.Tracer.enable ();
      Fun.protect
        ~finally:(fun () ->
          Sp_obs.Tracer.write path;
          if not c.quiet then
            Sp_obs.Log.printf "wrote %d spans to %s\n"
              (Sp_obs.Tracer.span_count ()) path)
        f

let find_bench name =
  match Sp_workloads.Suite.find name with
  | spec -> Ok spec
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown benchmark %S; try `specrepro list'" name)

let bench_arg =
  let doc = "Benchmark name (e.g. 505.mcf_r or mcf_r)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

(* ------------------------------------------------------------------ *)
(* the --json reporting surface: one flag, one schema *)

let json_arg =
  let doc =
    "Emit machine-readable JSON on stdout instead of the text report: \
     one $(b,specrepro/v2) envelope \
     ({schema, command, options, result}), byte-compatible with the \
     serve daemon's wire replies."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let num x = Sp_obs.Json.Num x
let str s = Sp_obs.Json.Str s
let numi i = Sp_obs.Json.Num (float_of_int i)
let run_stats_json = Api.run_stats_json
let mix_json = Api.mix_json
let bench_result_json r = Sp_obs.Json.Obj (Api.bench_result_fields r)
let table_json = Api.table_json
let metrics_json = Api.metrics_json
let emit_json = Api.emit

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd =
  let run json =
    if json then
      emit_json ~command:"list" ~options:Api.no_options
        ~result:
          (Sp_obs.Json.Obj
             [
               ( "benchmarks",
            Sp_obs.Json.List
              (List.map
                 (fun (s : Sp_workloads.Benchspec.t) ->
                   Sp_obs.Json.Obj
                     [
                       ("name", str s.Sp_workloads.Benchspec.name);
                       ( "class",
                         str
                           (Sp_workloads.Benchspec.suite_class_name
                              s.Sp_workloads.Benchspec.suite_class) );
                       ( "paper_points",
                         numi s.Sp_workloads.Benchspec.planted_phases );
                       ("paper_n90", numi s.Sp_workloads.Benchspec.planted_n90);
                       ( "kernels",
                         Sp_obs.Json.List
                           (List.map
                              (fun (k : Sp_workloads.Kernel.t) ->
                                str k.Sp_workloads.Kernel.name)
                              s.Sp_workloads.Benchspec.palette) );
                     ])
                 Sp_workloads.Suite.all) );
             ])
    else begin
      let t =
        Sp_util.Table.create ~title:"Synthetic SPEC CPU2017 suite"
          [
            ("Benchmark", Sp_util.Table.Left);
            ("Class", Sp_util.Table.Left);
            ("Sim points (paper)", Sp_util.Table.Right);
            ("90th-pct (paper)", Sp_util.Table.Right);
            ("Kernels", Sp_util.Table.Left);
          ]
      in
      List.iter
        (fun (s : Sp_workloads.Benchspec.t) ->
          Sp_util.Table.add_row t
            [
              s.Sp_workloads.Benchspec.name;
              Sp_workloads.Benchspec.suite_class_name
                s.Sp_workloads.Benchspec.suite_class;
              string_of_int s.Sp_workloads.Benchspec.planted_phases;
              string_of_int s.Sp_workloads.Benchspec.planted_n90;
              String.concat ","
                (List.map
                   (fun (k : Sp_workloads.Kernel.t) ->
                     k.Sp_workloads.Kernel.name)
                   s.Sp_workloads.Benchspec.palette);
            ])
        Sp_workloads.Suite.all;
      Sp_util.Table.print t
    end
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the synthetic SPEC CPU2017 benchmarks.")
    Term.(const run $ json_arg)

(* ------------------------------------------------------------------ *)
(* profile *)

let profile_cmd =
  let run bench common json =
    match find_bench bench with
    | Error e -> prerr_endline e; exit 1
    | Ok spec ->
        with_trace common @@ fun () ->
        let options = options_of common in
        let profile = Pipeline.profile_for_sweep ~options spec in
        let w = profile.Pipeline.sweep_whole_stats in
        let imix = profile.Pipeline.sweep_imix in
        if json then
          emit_json ~command:"profile"
            ~options:
              (Api.options_json ~benchmark:spec.Sp_workloads.Benchspec.name
                 options)
            ~result:
              (Sp_obs.Json.Obj
                 [
                   ("benchmark", str spec.Sp_workloads.Benchspec.name);
                   ( "slices",
                     numi (Array.length profile.Pipeline.sweep_slices) );
                   ("whole", run_stats_json w);
                   ( "imix",
                     Sp_obs.Json.Obj
                       (Array.to_list
                          (Array.map (fun (name, c) -> (name, numi c)) imix))
                   );
                 ])
        else begin
          Printf.printf "%s: %.0f instructions, %d slices\n"
            spec.Sp_workloads.Benchspec.name w.Runstats.insns
            (Array.length profile.Pipeline.sweep_slices);
          Printf.printf "instruction mix: %s\n"
            (Format.asprintf "%a" Sp_pin.Mix.pp w.Runstats.mix);
          Printf.printf "by kind:%s\n"
            (String.concat ""
               (List.filter_map
                  (fun (name, c) ->
                    if c = 0 then None
                    else Some (Printf.sprintf " %s=%d" name c))
                  (Array.to_list imix)));
          Printf.printf
            "cache miss rates (Table I hierarchy, capacity-scaled): L1D \
             %.2f%% L2 %.2f%% L3 %.2f%%\n"
            (w.Runstats.l1d_miss *. 100.0)
            (w.Runstats.l2_miss *. 100.0)
            (w.Runstats.l3_miss *. 100.0);
          Printf.printf "timing model CPI: %.3f\n" w.Runstats.cpi
        end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one benchmark to completion under the profiling pintools.")
    Term.(const run $ bench_arg $ common_term $ json_arg)

(* ------------------------------------------------------------------ *)
(* simpoints *)

let simpoints_cmd =
  let out_arg =
    let doc = "Directory to save Whole and Regional Pinballs into." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR" ~doc)
  in
  let max_k_arg =
    let doc = "Maximum number of clusters (the paper uses 35)." in
    Arg.(value & opt int 35 & info [ "max-k" ] ~docv:"K" ~doc)
  in
  let run bench common json max_k out =
    match find_bench bench with
    | Error e -> prerr_endline e; exit 1
    | Ok spec ->
        (* a failed save exits 1 once the trace is written *)
        Result.iter_error (fun e -> prerr_endline e; exit 1)
        @@ with_trace common @@ fun () ->
        let options = options_of common in
        let options =
          {
            options with
            Pipeline.simpoint_config =
              { options.Pipeline.simpoint_config with max_k };
          }
        in
        let profile = Pipeline.profile_for_sweep ~options spec in
        let sel =
          Sp_simpoint.Sampler.select ~config:options.Pipeline.simpoint_config
            options.Pipeline.sampler ~slice_len:options.Pipeline.slice_insns
            profile.Pipeline.sweep_slices
        in
        if json then
          emit_json ~command:"simpoints"
            ~options:
              (Api.options_json ~benchmark:spec.Sp_workloads.Benchspec.name
                 ~extra:[ ("max_k", numi max_k) ]
                 options)
            ~result:
              (Sp_obs.Json.Obj
                 [
                   ("benchmark", str spec.Sp_workloads.Benchspec.name);
                   ( "sampler",
                     str (Sp_simpoint.Sampler.name options.Pipeline.sampler)
                   );
                   ("chosen_k", numi sel.Sp_simpoint.Sampler.groups);
                   ( "num_slices",
                     numi (Array.length profile.Pipeline.sweep_slices) );
                   ( "diagnostics",
                     Sp_obs.Json.Obj
                       (List.map
                          (fun (k, v) -> (k, num v))
                          sel.Sp_simpoint.Sampler.diagnostics) );
                   ( "points",
                     Sp_obs.Json.List
                       (Array.to_list sel.Sp_simpoint.Sampler.points
                       |> List.map (fun (p : Sp_simpoint.Simpoints.point) ->
                              Sp_obs.Json.Obj
                                [
                                  ( "cluster",
                                    numi p.Sp_simpoint.Simpoints.cluster );
                                  ( "weight",
                                    num p.Sp_simpoint.Simpoints.weight );
                                  ( "start_icount",
                                    numi p.Sp_simpoint.Simpoints.start_icount
                                  );
                                  ( "length",
                                    numi p.Sp_simpoint.Simpoints.length );
                                ])) );
                 ])
        else begin
          Printf.printf "%s: %d simulation points over %d slices (%s)\n"
            spec.Sp_workloads.Benchspec.name
            (Array.length sel.Sp_simpoint.Sampler.points)
            (Array.length profile.Pipeline.sweep_slices)
            (Sp_simpoint.Sampler.name options.Pipeline.sampler);
          Array.iter
            (fun p ->
              Printf.printf "  %s\n"
                (Format.asprintf "%a" Sp_simpoint.Simpoints.pp_point p))
            sel.Sp_simpoint.Sampler.points
        end;
        match out with
        | None -> Ok ()
        | Some dir -> (
            let saved = ref 1 in
            try
              ignore
                (Sp_pinball.Store.save ~dir
                   profile.Pipeline.sweep_whole.Sp_pinball.Logger.pinball);
              Sp_pinball.Logger.walk ~warmup_insns:0
                profile.Pipeline.sweep_whole sel.Sp_simpoint.Sampler.points
                (fun _ c ->
                  let pb = Sp_pinball.Logger.region c in
                  ignore (Sp_pinball.Store.save ~dir pb);
                  incr saved);
              if not json then
                Printf.printf "saved %d pinballs under %s\n" !saved dir;
              Ok ()
            with Sys_error m | Failure m ->
              Error
                (Printf.sprintf "could not save pinballs under %s (%s)" dir m))
  in
  Cmd.v
    (Cmd.info "simpoints"
       ~doc:"Select simulation points for a benchmark (optionally saving \
             pinballs).")
    Term.(
      const run $ bench_arg $ common_term $ json_arg $ max_k_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* replay *)

let replay_cmd =
  let files_arg =
    let doc = "Pinball files (.pb) to replay." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PINBALL" ~doc)
  in
  let replay_one ~json path =
    match Sp_pinball.Store.load path with
    | Error e ->
        Printf.eprintf "specrepro replay: %s\n"
          (Sp_pinball.Store.error_message e);
        None
    | Ok pb ->
        let prog = pb.Sp_pinball.Pinball.program in
        let mixt = Sp_pin.Ldstmix.create prog in
        let cache =
          Sp_pin.Allcache_tool.create ~config:Sp_cache.Config.allcache_sim prog
        in
        let core =
          Sp_cpu.Interval_core.create ~config:Sp_cpu.Core_config.i7_3770_sim
            prog
        in
        let r =
          Sp_pinball.Replayer.replay
            ~tools:
              [
                Sp_pin.Ldstmix.hooks mixt;
                Sp_pin.Allcache_tool.hooks cache;
                Sp_cpu.Interval_core.hooks core;
              ]
            pb
        in
        let stats = Sp_pin.Allcache_tool.stats cache in
        if json then
          Some
            (Sp_obs.Json.Obj
               [
                 ("file", str path);
                 ("pinball", str (Sp_pinball.Pinball.describe pb));
                 ("retired", numi r.Sp_pinball.Replayer.retired);
                 ("mix", mix_json (Sp_pin.Ldstmix.mix mixt));
                 ("l3_miss", num stats.Sp_cache.Hierarchy.l3.miss_rate);
                 ("cpi", num (Sp_cpu.Interval_core.cpi core));
               ])
        else begin
          Printf.printf "%s (%s): %d insns  %s  L3 miss %.2f%%  CPI %.3f\n"
            path
            (Sp_pinball.Pinball.describe pb)
            r.Sp_pinball.Replayer.retired
            (Format.asprintf "%a" Sp_pin.Mix.pp (Sp_pin.Ldstmix.mix mixt))
            (stats.Sp_cache.Hierarchy.l3.miss_rate *. 100.0)
            (Sp_cpu.Interval_core.cpi core);
          Some Sp_obs.Json.Null
        end
  in
  let run files json =
    let results = List.map (replay_one ~json) files in
    let ok = List.for_all Option.is_some results in
    if json then
      emit_json ~command:"replay" ~options:Api.no_options
        ~result:
          (Sp_obs.Json.Obj
             [
               ( "replays",
                 Sp_obs.Json.List (List.filter_map Fun.id results) );
             ]);
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay stored pinballs under the pintools.")
    Term.(const run $ files_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* exec *)

let exec_cmd =
  let file_arg =
    let doc = "Program text file (one instruction per line; # comments)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let fuel_arg =
    let doc = "Maximum instructions to execute." in
    Arg.(value & opt int 100_000_000 & info [ "fuel" ] ~docv:"N" ~doc)
  in
  let run file fuel =
    match Sp_vm.Progtext.load file with
    | Error e -> Printf.eprintf "%s: %s\n" file e; exit 1
    | Ok prog ->
        let mixt = Sp_pin.Ldstmix.create prog in
        let cache =
          Sp_pin.Allcache_tool.create ~config:Sp_cache.Config.allcache_sim prog
        in
        let core =
          Sp_cpu.Interval_core.create ~config:Sp_cpu.Core_config.i7_3770_sim
            prog
        in
        let machine = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
        let r =
          Sp_pin.Pin.run
            ~tools:
              [
                Sp_pin.Ldstmix.hooks mixt;
                Sp_pin.Allcache_tool.hooks cache;
                Sp_cpu.Interval_core.hooks core;
              ]
            ~fuel prog machine
        in
        Printf.printf "%s: %s after %d instructions\n" file
          (match r.Sp_pin.Pin.status with
          | Sp_vm.Interp.Halted -> "halted"
          | Sp_vm.Interp.Out_of_fuel -> "out of fuel")
          r.Sp_pin.Pin.retired;
        Printf.printf "registers: %s\n"
          (String.concat " "
             (List.mapi
                (fun i v -> Printf.sprintf "r%d=%d" i v)
                (Array.to_list machine.Sp_vm.Interp.regs)));
        Printf.printf "mix: %s\n"
          (Format.asprintf "%a" Sp_pin.Mix.pp (Sp_pin.Ldstmix.mix mixt));
        let s = Sp_pin.Allcache_tool.stats cache in
        Printf.printf
          "caches: L1D %.2f%%  L2 %.2f%%  L3 %.2f%% miss;  CPI %.3f\n"
          (s.Sp_cache.Hierarchy.l1d.miss_rate *. 100.)
          (s.Sp_cache.Hierarchy.l2.miss_rate *. 100.)
          (s.Sp_cache.Hierarchy.l3.miss_rate *. 100.)
          (Sp_cpu.Interval_core.cpi core)
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Execute a hand-written program text file under the pintools.")
    Term.(const run $ file_arg $ fuel_arg)

(* ------------------------------------------------------------------ *)
(* disasm *)

let disasm_cmd =
  let run bench =
    match find_bench bench with
    | Error e -> prerr_endline e; exit 1
    | Ok spec ->
        let built = Sp_workloads.Benchspec.build ~slices_scale:0.01 spec in
        Format.printf "%a@." Sp_vm.Program.pp_listing
          built.Sp_workloads.Benchspec.program
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Print a benchmark's full disassembly with basic-block \
             boundaries.")
    Term.(const run $ bench_arg)

(* ------------------------------------------------------------------ *)
(* trace (instruction event stream, distinct from --trace-out spans) *)

let trace_cmd =
  let out_arg =
    let doc = "Output trace file." in
    Arg.(
      required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let limit_arg =
    let doc = "Maximum number of events to record." in
    Arg.(value & opt int 1_000_000 & info [ "limit"; "n" ] ~docv:"N" ~doc)
  in
  let run bench common out limit =
    match find_bench bench with
    | Error e -> prerr_endline e; exit 1
    | Ok spec ->
        let options = options_of common in
        let built =
          Sp_workloads.Benchspec.build
            ~slice_insns:options.Pipeline.slice_insns
            ~slices_scale:options.Pipeline.slices_scale spec
        in
        let prog = built.Sp_workloads.Benchspec.program in
        let oc = open_out_bin out in
        let w = Sp_pin.Trace_io.Writer.create ~limit oc in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            ignore
              (Sp_pin.Pin.run_fresh
                 ~tools:[ Sp_pin.Trace_io.Writer.hooks w prog ]
                 prog));
        Printf.printf "%s: wrote %d events to %s%s\n"
          spec.Sp_workloads.Benchspec.name
          (Sp_pin.Trace_io.Writer.events_written w)
          out
          (if Sp_pin.Trace_io.Writer.truncated w then " (truncated)" else "")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Export a benchmark's instrumented event stream as a text trace.")
    Term.(const run $ bench_arg $ common_term $ out_arg $ limit_arg)

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let run bench common json =
    match find_bench bench with
    | Error e -> prerr_endline e; exit 1
    | Ok spec ->
        with_trace common @@ fun () ->
        let options = options_of common in
        let r = Pipeline.run_benchmark ~options spec in
        if json then
          (* the complete envelope comes from Api.run_envelope — the
             exact code path the serve daemon replies with, so this
             output is byte-identical to a daemon submit reply *)
          print_endline (Sp_obs.Json.to_string (Api.run_envelope r))
        else begin
          Printf.printf "%s: %d points (paper %d), %d cover 90%% (paper %d)\n\n"
            spec.Sp_workloads.Benchspec.name
            (Array.length r.Pipeline.selection.points)
            spec.Sp_workloads.Benchspec.planted_phases
            (Pipeline.reduced_count r) spec.Sp_workloads.Benchspec.planted_n90;
          let show (s : Runstats.run_stats) =
            Printf.printf
              "%-22s %12.0f insns  %s\n\
               %-22s L1D %5.2f%%  L2 %5.2f%%  L3 %6.2f%%  CPI %.3f\n"
              s.Runstats.label s.Runstats.insns
              (Format.asprintf "%a" Sp_pin.Mix.pp s.Runstats.mix)
              ""
              (s.Runstats.l1d_miss *. 100.0)
              (s.Runstats.l2_miss *. 100.0)
              (s.Runstats.l3_miss *. 100.0)
              s.Runstats.cpi
          in
          show r.Pipeline.whole;
          show (Pipeline.regional r);
          show (Pipeline.reduced r);
          show (Pipeline.warmup_regional r);
          Printf.printf "\nnative (perf) CPI: %.3f\n"
            (Sp_perf.Perf_counters.cpi r.Pipeline.native)
        end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the full pipeline for one benchmark.")
    Term.(const run $ bench_arg $ common_term $ json_arg)

(* ------------------------------------------------------------------ *)
(* suite *)

let print_outputs =
  List.iter (fun o -> print_string (Experiments.render o))

let suite_cmd =
  let extended_arg =
    let doc = "Also run the 14 extended (non-Table II) workloads." in
    Arg.(value & flag & info [ "extended" ] ~doc)
  in
  let only_arg =
    let doc =
      "Comma-separated benchmark names: run only these (useful for smoke \
       tests and CI)."
    in
    Arg.(
      value
      & opt (some (list ~sep:',' string)) None
      & info [ "only" ] ~docv:"NAMES" ~doc)
  in
  let run common json extended only =
    let specs =
      match only with
      | Some names ->
          List.map
            (fun n ->
              match find_bench n with
              | Ok s -> s
              | Error e -> prerr_endline e; exit 1)
            names
      | None ->
          if extended then Sp_workloads.Suite.full else Sp_workloads.Suite.all
    in
    with_trace common @@ fun () ->
    let options = options_of common in
    let results = Pipeline.run_suite ~options ~specs () in
    if json then
      emit_json ~command:"suite" ~options:(Api.options_json options)
        ~result:
          (Sp_obs.Json.Obj
             [
               ( "results",
                 Sp_obs.Json.List (List.map bench_result_json results) );
               ("table2", table_json (Experiments.table2 results));
               ("metrics", metrics_json ());
             ])
    else
      let ctx =
        { Experiments.options; specs = Some specs; suite = Lazy.from_val results }
      in
      List.iter
        (fun name -> print_outputs ((Option.get (Experiments.find name)).run ctx))
        [ "table2"; "headlines" ]
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Run the pipeline over all 29 benchmarks and print Table II plus \
             the headline comparisons.")
    Term.(const run $ common_term $ json_arg $ extended_arg $ only_arg)

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let names = List.map (fun (e : Experiments.entry) -> e.name) Experiments.registry in
  let name_arg =
    let doc =
      Printf.sprintf
        "Experiment to regenerate: %s; or $(b,all) for every one, in this \
         order."
        (String.concat ", " names)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let csv_arg =
    let doc =
      "Also write each table as CSV under $(docv): $(i,NAME).csv for an \
       experiment's first table, $(i,NAME)-2.csv for its second."
    in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let write_csv dir name outputs =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.filter_map
      (function Experiments.Table t -> Some t | Experiments.Text _ -> None)
      outputs
    |> List.iteri (fun i t ->
           let file =
             if i = 0 then name ^ ".csv" else Printf.sprintf "%s-%d.csv" name (i + 1)
           in
           let oc = open_out (Filename.concat dir file) in
           output_string oc (Sp_util.Table.to_csv t);
           close_out oc)
  in
  let output_json = function
    | Experiments.Table t -> ("table", table_json t)
    | Experiments.Text s -> ("text", str s)
  in
  let run name common json csv =
    let entries =
      if name = "all" then Experiments.registry
      else
        match Experiments.find name with
        | Some e -> [ e ]
        | None ->
            Printf.eprintf "unknown experiment %S (one of: %s, all)\n" name
              (String.concat " " names);
            exit 1
    in
    with_trace common @@ fun () ->
    let options = options_of common in
    let ctx = Experiments.context options in
    List.iteri
      (fun i (e : Experiments.entry) ->
        Sp_obs.Tracer.with_span ~cat:"experiment" e.name @@ fun () ->
        let outputs = e.run ctx in
        Option.iter (fun dir -> write_csv dir e.name outputs) csv;
        if json then
          emit_json ~command:"experiment"
            ~options:(Api.options_json ~extra:[ ("name", str e.name) ] options)
            ~result:
              (Sp_obs.Json.Obj
                 (("name", str e.name)
                 ::
                 (match outputs with
                 | [ o ] -> [ output_json o ]
                 | os ->
                     [
                       ( "outputs",
                         Sp_obs.Json.List
                           (List.map (fun o -> Sp_obs.Json.Obj [ output_json o ]) os)
                       );
                     ])))
        else begin
          if i > 0 then print_newline ();
          print_outputs outputs
        end)
      entries
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one of the paper's tables or figures, or all of them.")
    Term.(const run $ name_arg $ common_term $ json_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* report: aggregate a --trace-out file *)

let report_cmd =
  let trace_arg =
    let doc = "Chrome trace-event file written by --trace-out." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let run trace json =
    match Sp_obs.Trace_report.of_file trace with
    | Error e ->
        Printf.eprintf "specrepro report: %s: %s\n" trace e;
        exit 1
    | Ok r ->
        if json then
          emit_json ~command:"report" ~options:Api.no_options
            ~result:
              (Sp_obs.Json.Obj
                 [
                   ("trace", str trace);
                   ("report", Sp_obs.Trace_report.to_json r);
                 ])
        else print_string (Sp_obs.Trace_report.render r)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Validate and summarise a span trace: per-stage, per-benchmark \
             and per-category totals.  Exits 1 if the trace is malformed or \
             has unbalanced spans.")
    Term.(const run $ trace_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* pinballs: inspect / verify / gc a store or cache directory *)

let pinballs_cmd =
  let module Cache = Sp_pinball.Artifact_cache in
  let dir_arg =
    let doc = "Pinball store or cache directory." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let plural n = if n = 1 then "entry" else "entries" in
  let list_cmd =
    let run dir json =
      let rows =
        List.map
          (fun path ->
            let size =
              try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> -1
            in
            match Cache.inspect path with
            | Ok i -> (path, size, i.benchmark, i.kind, i.length, "ok")
            | Error e -> (path, size, "-", "-", "-", e))
          (Cache.entries ~dir)
      in
      if json then
        emit_json ~command:"pinballs-list" ~options:Api.no_options
          ~result:
            (Sp_obs.Json.Obj
               [
                 ("dir", str dir);
                 ( "pinballs",
                   Sp_obs.Json.List
                     (List.map
                        (fun (path, size, benchmark, kind, length, status) ->
                          Sp_obs.Json.Obj
                            [
                              ("file", str (Filename.basename path));
                              ("bytes", numi size);
                              ("benchmark", str benchmark);
                              ("kind", str kind);
                              ("length", str length);
                              ("status", str status);
                            ])
                        rows) );
               ])
      else begin
        let t =
          Sp_util.Table.create ~title:(Printf.sprintf "Entries under %s" dir)
            [
              ("File", Sp_util.Table.Left);
              ("Bytes", Sp_util.Table.Right);
              ("Benchmark", Sp_util.Table.Left);
              ("Kind", Sp_util.Table.Left);
              ("Length", Sp_util.Table.Right);
              ("Status", Sp_util.Table.Left);
            ]
        in
        List.iter
          (fun (path, size, benchmark, kind, length, status) ->
            Sp_util.Table.add_row t
              [
                Filename.basename path;
                (if size < 0 then "?" else string_of_int size);
                benchmark;
                kind;
                length;
                status;
              ])
          rows;
        Sp_util.Table.print t
      end
    in
    Cmd.v
      (Cmd.info "list"
         ~doc:"List the pinballs and profile entries in a directory.")
      Term.(const run $ dir_arg $ json_arg)
  in
  let verify_cmd =
    let run dir =
      let files = Cache.entries ~dir in
      let bad =
        List.fold_left
          (fun bad path ->
            match Cache.inspect path with
            | Ok _ ->
                Printf.printf "%s: ok\n" path;
                bad
            | Error e ->
                Printf.printf "%s\n" e;
                bad + 1)
          0 files
      in
      Printf.printf "%d %s, %d corrupt\n" (List.length files)
        (plural (List.length files))
        bad;
      if bad > 0 then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Fully validate every pinball and profile entry in a directory \
               (framing, checksums, all fields); exits 1 if any is corrupt.")
      Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let run dir =
      let r = Cache.gc ~dir in
      Printf.printf "%s: kept %d %s; removed %d corrupt, %d quarantined, %d \
                     temporary\n"
        dir r.Cache.kept (plural r.Cache.kept) r.removed_corrupt
        r.removed_quarantined r.removed_tmp
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Garbage-collect a directory: drop corrupt pinballs and profile \
               entries, quarantined entries and stale temporaries.  Valid \
               entries are never touched.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "pinballs"
       ~doc:"Inspect, verify and garbage-collect a pinball store or cache \
             directory.")
    [ list_cmd; verify_cmd; gc_cmd ]

(* ------------------------------------------------------------------ *)
(* serve: the benchmark-as-a-service daemon *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  let env = Cmd.Env.info "SPECREPRO_SOCKET" ~doc:"Default for $(b,--socket)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc ~env)

let results_opt_arg =
  let doc =
    "Append-only results store file: every completed job's report, \
     fidelity metrics and sampler diagnostics are appended as a \
     checksummed record (inspect with $(b,specrepro query), gate with \
     $(b,specrepro bench-regress))."
  in
  Arg.(value & opt (some string) None & info [ "results" ] ~docv:"FILE" ~doc)

let results_req_arg =
  let doc = "Results store file written by $(b,specrepro serve --results)." in
  Arg.(
    required
    & opt (some string) None
    & info [ "results" ] ~docv:"FILE" ~doc)

let serve_cmd =
  let queue_cap_arg =
    let doc =
      "Bound on queued (not yet running) jobs; a submit past the bound is \
       refused immediately with a $(b,backpressure) error instead of \
       buffering without limit."
    in
    Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-job timeout in seconds, measured from submission; an expired \
       job is answered with a $(b,timeout) error.  0 disables the limit."
    in
    Arg.(value & opt float 0.0 & info [ "job-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run common socket results queue_cap job_timeout =
    if queue_cap < 1 then begin
      prerr_endline "specrepro serve: --queue-cap must be at least 1";
      exit 1
    end;
    with_trace common @@ fun () ->
    let base = options_of common in
    Sp_serve.Server.run
      {
        Sp_serve.Server.socket_path = socket;
        results_path = results;
        queue_capacity = queue_cap;
        parallel = base.Pipeline.jobs;
        job_timeout;
        base_options = base;
        quiet = common.quiet;
      }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the benchmark-as-a-service daemon: accept jobs over a \
          Unix-domain socket, schedule them across the domain pool with \
          fair per-client queueing, and append every result to the \
          results store.  SIGTERM drains gracefully: in-flight and queued \
          jobs finish and are answered, new submissions are refused.  \
          The shared options below become the defaults a request's \
          options object starts from; --jobs is the daemon's parallelism.")
    Term.(
      const run $ common_term $ socket_arg $ results_opt_arg $ queue_cap_arg
      $ timeout_arg)

(* ------------------------------------------------------------------ *)
(* submit: client for a running daemon *)

let submit_cmd =
  let bench_opt_arg =
    let doc = "Benchmark to submit (omit with --status or --shutdown)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let status_flag =
    let doc = "Ask the daemon for its status instead of submitting a job." in
    Arg.(value & flag & info [ "status" ] ~doc)
  in
  let shutdown_flag =
    let doc = "Ask the daemon to drain and exit instead of submitting." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let render_human reply =
    let member name json =
      Option.bind (Sp_obs.Json.member name json) Sp_obs.Json.to_str
    in
    let result =
      Option.value
        (Sp_obs.Json.member "result" reply)
        ~default:(Sp_obs.Json.Obj [])
    in
    match member "command" reply with
    | Some "error" ->
        let get name =
          Option.value (Option.bind (Sp_obs.Json.member name result)
             Sp_obs.Json.to_str) ~default:"?"
        in
        Printf.eprintf "specrepro submit: daemon error [%s]: %s\n"
          (get "code") (get "message");
        true
    | Some "run" ->
        let fget obj name =
          Option.bind (Sp_obs.Json.member name obj) Sp_obs.Json.to_float
        in
        let bench =
          Option.value
            (Option.bind (Sp_obs.Json.member "benchmark" result)
               Sp_obs.Json.to_str)
            ~default:"?"
        in
        let cpi label =
          match
            Option.bind (Sp_obs.Json.member label result) (fun s ->
                fget s "cpi")
          with
          | Some v -> Printf.sprintf "%.3f" v
          | None -> "?"
        in
        Printf.printf
          "%s: whole CPI %s, warm-regional CPI %s (%d points, %.2fs)\n"
          bench (cpi "whole") (cpi "warmup_regional")
          (int_of_float (Option.value (fget result "points") ~default:0.0))
          (Option.value (fget result "wall_seconds") ~default:0.0);
        false
    | Some cmd ->
        Printf.printf "%s: %s\n" cmd (Sp_obs.Json.to_string result);
        false
    | None ->
        Printf.eprintf "specrepro submit: unrecognised reply\n";
        true
  in
  let run bench common socket json status shutdown =
    let request =
      if status then Ok Sp_serve.Client.status
      else if shutdown then Ok Sp_serve.Client.shutdown
      else
        match bench with
        | None ->
            Error
              "specrepro submit: name a BENCHMARK (or pass --status / \
               --shutdown)"
        | Some b -> (
            match find_bench b with
            | Error e -> Error e
            | Ok spec ->
                Ok
                  (Sp_serve.Client.submit
                     ~benchmark:spec.Sp_workloads.Benchspec.name
                     (options_of common)))
    in
    match request with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok request -> (
        match Sp_serve.Client.connect socket with
        | Error e ->
            Printf.eprintf "specrepro submit: %s\n" e;
            exit 1
        | Ok client ->
            Fun.protect
              ~finally:(fun () -> Sp_serve.Client.close client)
              (fun () ->
                match Sp_serve.Client.request client request with
                | Error e ->
                    Printf.eprintf "specrepro submit: %s\n" e;
                    exit 1
                | Ok (raw, reply) ->
                    let is_error =
                      Option.bind (Sp_obs.Json.member "command" reply)
                        Sp_obs.Json.to_str
                      = Some "error"
                    in
                    if json then
                      (* the daemon's reply bytes, verbatim — printing
                         the raw payload (not a re-rendering) is what
                         makes this byte-identical to `run --json` *)
                      print_endline raw
                    else ignore (render_human reply);
                    if is_error then exit 1))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one benchmark job to a running $(b,specrepro serve) \
          daemon and wait for the reply, which with $(b,--json) is \
          printed byte-for-byte as received (identical to what \
          $(b,specrepro run --json) prints for the same options).  \
          Daemon-side errors (bad request, backpressure, timeout, \
          draining) exit 1.")
    Term.(
      const run $ bench_opt_arg $ common_term $ socket_arg $ json_arg
      $ status_flag $ shutdown_flag)

(* ------------------------------------------------------------------ *)
(* query: inspect the results store *)

let query_cmd =
  let bench_opt_arg =
    let doc = "Restrict to one benchmark's history." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let run bench results json =
    match Sp_serve.Results_store.read_file results with
    | Error msg ->
        Printf.eprintf "specrepro query: %s: %s\n" results msg;
        exit 1
    | Ok (all_records, tail) ->
        (match Sp_serve.Results_store.tail_message tail with
        | Some m -> Printf.eprintf "specrepro query: warning: %s: %s\n" results m
        | None -> ());
        let bench_name =
          match bench with
          | None -> None
          | Some b -> (
              match find_bench b with
              | Error e ->
                  prerr_endline e;
                  exit 1
              | Ok spec -> Some spec.Sp_workloads.Benchspec.name)
        in
        let records =
          match bench_name with
          | None -> all_records
          | Some b -> Sp_serve.Results_store.history all_records ~benchmark:b
        in
        if records = [] then begin
          Printf.eprintf "specrepro query: no stored runs%s in %s\n"
            (match bench_name with
            | Some b -> " for " ^ b
            | None -> "")
            results;
          exit 1
        end;
        if json then
          emit_json ~command:"query"
            ~options:
              (match bench_name with
              | Some b -> Sp_obs.Json.Obj [ ("benchmark", str b) ]
              | None -> Api.no_options)
            ~result:
              (Sp_obs.Json.Obj
                 [
                   ("store", str results);
                   ("runs", numi (List.length records));
                   ( "tail",
                     match Sp_serve.Results_store.tail_message tail with
                     | None -> str "clean"
                     | Some m -> str m );
                   ("records", Sp_obs.Json.List records);
                 ])
        else begin
          let t =
            Sp_util.Table.create
              ~title:(Printf.sprintf "Stored runs in %s" results)
              [
                ("Benchmark", Sp_util.Table.Left);
                ("Client", Sp_util.Table.Left);
                ("Points", Sp_util.Table.Right);
                ("CPI err%", Sp_util.Table.Right);
                ("L3 err%", Sp_util.Table.Right);
                ("Wall s", Sp_util.Table.Right);
              ]
          in
          let fmt record name =
            match Sp_serve.Results_store.metric record name with
            | Some v -> Printf.sprintf "%.3f" v
            | None -> "-"
          in
          List.iter
            (fun record ->
              let field name =
                Option.value
                  (Option.bind (Sp_obs.Json.member name record)
                     Sp_obs.Json.to_str)
                  ~default:"-"
              in
              let points =
                match
                  Option.bind (Sp_obs.Json.member "points" record)
                    Sp_obs.Json.to_float
                with
                | Some v -> Printf.sprintf "%.0f" v
                | None -> "-"
              in
              Sp_util.Table.add_row t
                [
                  field "benchmark";
                  field "client";
                  points;
                  fmt record "cpi_err_pct";
                  fmt record "l3_err_pct";
                  fmt record "wall_seconds";
                ])
            records;
          Sp_util.Table.print t
        end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "List the runs recorded in a daemon results store (optionally one \
          benchmark's history).  Warns about a torn or corrupt store tail; \
          exits 1 when the store is unreadable or has no matching runs.")
    Term.(const run $ bench_opt_arg $ results_req_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* bench-regress: gate the latest stored run against its history *)

let bench_regress_cmd =
  let metric_arg =
    let doc =
      "Metric to gate, by its name in the stored record's metrics object \
       (e.g. cpi_err_pct, l3_err_pct, warm_cpi, wall_seconds)."
    in
    Arg.(
      value & opt string "cpi_err_pct" & info [ "metric" ] ~docv:"NAME" ~doc)
  in
  let gate_arg =
    let doc =
      "Fail (exit 2) when latest/baseline exceeds this ratio, where the \
       baseline is the mean of all prior stored runs."
    in
    Arg.(value & opt float 1.25 & info [ "gate" ] ~docv:"RATIO" ~doc)
  in
  let run bench results metric gate json =
    match find_bench bench with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok spec -> (
        let benchmark = spec.Sp_workloads.Benchspec.name in
        match Sp_serve.Results_store.read_file results with
        | Error msg ->
            Printf.eprintf "specrepro bench-regress: %s: %s\n" results msg;
            exit 1
        | Ok (records, tail) -> (
            (match Sp_serve.Results_store.tail_message tail with
            | Some m ->
                Printf.eprintf "specrepro bench-regress: warning: %s: %s\n"
                  results m
            | None -> ());
            let options_json =
              Sp_obs.Json.Obj
                [
                  ("benchmark", str benchmark);
                  ("metric", str metric);
                  ("gate", num gate);
                ]
            in
            match
              Sp_serve.Regress.evaluate ~records ~benchmark ~metric ~gate
            with
            | Error msg ->
                Printf.eprintf "specrepro bench-regress: %s: %s\n" results
                  msg;
                exit 1
            | Ok None ->
                if json then
                  emit_json ~command:"bench-regress" ~options:options_json
                    ~result:
                      (Sp_obs.Json.Obj
                         [
                           ("runs", numi 1);
                           ("regressed", Sp_obs.Json.Bool false);
                           ("baseline", Sp_obs.Json.Null);
                         ])
                else
                  Printf.printf
                    "%s %s: first stored run — no baseline to regress \
                     against yet\n"
                    benchmark metric
            | Ok (Some v) ->
                if json then
                  emit_json ~command:"bench-regress" ~options:options_json
                    ~result:
                      (Sp_obs.Json.Obj
                         [
                           ("runs", numi v.Sp_serve.Regress.runs);
                           ("latest", num v.Sp_serve.Regress.latest);
                           ("baseline", num v.Sp_serve.Regress.baseline);
                           ("ratio", num v.Sp_serve.Regress.ratio);
                           ( "regressed",
                             Sp_obs.Json.Bool v.Sp_serve.Regress.regressed );
                         ])
                else
                  Printf.printf
                    "%s %s: latest %.4f vs baseline %.4f over %d runs \
                     (ratio %.3f, gate %.3f) — %s\n"
                    benchmark metric v.Sp_serve.Regress.latest
                    v.Sp_serve.Regress.baseline v.Sp_serve.Regress.runs
                    v.Sp_serve.Regress.ratio gate
                    (if v.Sp_serve.Regress.regressed then "REGRESSED"
                     else "ok");
                if v.Sp_serve.Regress.regressed then exit 2))
  in
  Cmd.v
    (Cmd.info "bench-regress"
       ~doc:
         "Compare a benchmark's latest stored run against the mean of its \
          history in the results store.  Exits 0 when within the gate (or \
          when only one run is stored), 1 on bad input or a corrupt \
          store, 2 when the metric regressed past the gate — wire it \
          into CI after a daemon soak.")
    Term.(
      const run $ bench_arg $ results_req_arg $ metric_arg $ gate_arg
      $ json_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "reproduction of 'Efficacy of Statistical Sampling on Contemporary \
     Workloads: The Case of SPEC CPU2017' (IISWC 2019)"
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "All subcommands follow one convention: $(b,0) success; $(b,1) \
         bad input or a corrupt artifact (unknown benchmark, malformed \
         trace, pinball or results store, unreachable daemon, \
         daemon-side request errors); $(b,2) a quality gate failed \
         ($(b,bench-regress) past its ratio gate).";
    ]
  in
  let info = Cmd.info "specrepro" ~version:"2.0.0" ~doc ~man in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            profile_cmd;
            simpoints_cmd;
            replay_cmd;
            pinballs_cmd;
            trace_cmd;
            disasm_cmd;
            exec_cmd;
            run_cmd;
            suite_cmd;
            experiment_cmd;
            report_cmd;
            serve_cmd;
            submit_cmd;
            query_cmd;
            bench_regress_cmd;
          ]))
