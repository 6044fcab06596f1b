open Sp_util
open Sp_workloads

let pct x = Table.fmt_pct (x *. 100.0)

let mix_cells (m : Sp_pin.Mix.t) =
  [ pct m.no_mem; pct m.mem_r; pct m.mem_w; pct m.mem_rw ]

(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Table.create ~title:"Table I: ALLCACHE simulator configuration"
      [ ("Level", Table.Left); ("Configuration", Table.Left) ]
  in
  let h = Sp_cache.Config.allcache_table1 in
  List.iter
    (fun (l : Sp_cache.Config.level) ->
      Table.add_row t
        [ l.name; Format.asprintf "%a" Sp_cache.Config.pp_level l ])
    [ h.l1i; h.l1d; h.l2; h.l3 ];
  t

let table3 () =
  "Table III: system configuration (Sniper model of the native machine)\n"
  ^ Format.asprintf "%a" Sp_cpu.Core_config.pp Sp_cpu.Core_config.i7_3770

let table2 results =
  let t =
    Table.create
      ~title:
        "Table II: SPEC CPU2017 simulation points (measured vs paper; MaxK \
         35, slice 30M)"
      [
        ("Benchmark", Table.Left);
        ("Sim points", Table.Right);
        ("(paper)", Table.Right);
        ("90th-pct points", Table.Right);
        ("(paper)", Table.Right);
      ]
  in
  let totals = ref (0, 0, 0, 0) in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let points = Array.length r.selection.points in
      let n90 = Pipeline.reduced_count r in
      let a, b, c, d = !totals in
      totals :=
        ( a + points,
          b + r.spec.Benchspec.planted_phases,
          c + n90,
          d + r.spec.Benchspec.planted_n90 );
      Table.add_row t
        [
          r.spec.Benchspec.name;
          string_of_int points;
          string_of_int r.spec.Benchspec.planted_phases;
          string_of_int n90;
          string_of_int r.spec.Benchspec.planted_n90;
        ])
    results;
  Table.add_rule t;
  let n = float_of_int (max 1 (List.length results)) in
  let a, b, c, d = !totals in
  Table.add_row t
    [
      "Average";
      Table.fmt_f (float_of_int a /. n);
      Table.fmt_f (float_of_int b /. n);
      Table.fmt_f (float_of_int c /. n);
      Table.fmt_f (float_of_int d /. n);
    ];
  t

let table2_extended ?(options = Pipeline.default_options) () =
  let options = { options with Pipeline.collect_variance = false } in
  let t =
    Table.create
      ~title:
        "Table II extension: simulation points for the 14 CPU2017 workloads \
         the paper left as future work (no reference values exist)"
      [
        ("Benchmark", Table.Left);
        ("Class", Table.Left);
        ("Sim points", Table.Right);
        ("90th-pct points", Table.Right);
        ("Whole insns", Table.Right);
      ]
  in
  (* fourteen independent pipeline runs: compute rows through the
     domain pool (input order preserved), then lay them down in order *)
  Sp_util.Pool.parallel_map ~jobs:options.Pipeline.jobs
    (fun (spec : Benchspec.t) ->
      let r = Pipeline.run_benchmark ~options spec in
      [
        spec.Benchspec.name;
        Benchspec.suite_class_name spec.Benchspec.suite_class;
        string_of_int (Array.length r.Pipeline.selection.points);
        string_of_int (Pipeline.reduced_count r);
        Format.asprintf "%a" Scale.pp_paper_insns
          (Pipeline.paper_insns r r.Pipeline.whole);
      ])
    (Array.of_list Suite.extended)
  |> Array.iter (Table.add_row t);
  t

(* ------------------------------------------------------------------ *)
(* Figure 3: sensitivity sweeps on 623.xalancbmk_s *)

let sweep_row t label (stats : Runstats.run_stats) =
  Table.add_row t
    ([ label ] @ mix_cells stats.mix
    @ [ pct stats.l1d_miss; pct stats.l2_miss; pct stats.l3_miss ])

let sweep_columns =
  [
    ("Run", Table.Left);
    ("NO_MEM", Table.Right);
    ("MEM_R", Table.Right);
    ("MEM_W", Table.Right);
    ("MEM_RW", Table.Right);
    ("L1D miss", Table.Right);
    ("L2 miss", Table.Right);
    ("L3 miss", Table.Right);
  ]

let fig3a ?(options = Pipeline.default_options) ?(max_ks = [ 15; 20; 25; 30; 35 ])
    () =
  let profile = Pipeline.profile_for_sweep ~options (Suite.find "623.xalancbmk_s") in
  let t =
    Table.create
      ~title:
        "Figure 3(a): MaxK sensitivity, 623.xalancbmk_s (slice 30M; weighted \
         Regional statistics vs the full run)"
      sweep_columns
  in
  sweep_row t "Full Run" profile.Pipeline.sweep_whole_stats;
  Table.add_rule t;
  List.iter
    (fun max_k ->
      let config = { options.Pipeline.simpoint_config with max_k } in
      let sel =
        Sp_simpoint.Simpoints.select ~config ~slice_len:options.slice_insns
          profile.Pipeline.sweep_slices
      in
      let points =
        Pipeline.replay_points options profile.Pipeline.sweep_whole
          sel.Sp_simpoint.Simpoints.points
      in
      let stats =
        Runstats.of_points ~label:(Printf.sprintf "MaxK %d" max_k) points
      in
      sweep_row t
        (Printf.sprintf "MaxK %d (k=%d)" max_k sel.Sp_simpoint.Simpoints.chosen_k)
        stats)
    max_ks;
  t

let fig3b ?(options = Pipeline.default_options)
    ?(slice_minsns = [ 15; 25; 30; 50; 100 ]) () =
  let micro = Scale.of_minsn Scale.micro_slice_minsn in
  let profile =
    Pipeline.profile_for_sweep ~options ~slice_insns:micro
      (Suite.find "623.xalancbmk_s")
  in
  let t =
    Table.create
      ~title:
        "Figure 3(b): slice-size sensitivity, 623.xalancbmk_s (MaxK 35; \
         weighted Regional statistics vs the full run)"
      sweep_columns
  in
  sweep_row t "Full Run" profile.Pipeline.sweep_whole_stats;
  Table.add_rule t;
  List.iter
    (fun minsn ->
      let factor = minsn / Scale.micro_slice_minsn in
      let slices =
        Sp_simpoint.Aggregate.merge ~factor profile.Pipeline.sweep_slices
      in
      let sel =
        Sp_simpoint.Simpoints.select ~config:options.Pipeline.simpoint_config
          ~slice_len:(Scale.of_minsn minsn) slices
      in
      let points =
        Pipeline.replay_points options profile.Pipeline.sweep_whole
          sel.Sp_simpoint.Simpoints.points
      in
      let stats =
        Runstats.of_points ~label:(Printf.sprintf "%dM" minsn) points
      in
      sweep_row t
        (Printf.sprintf "slice %dM (k=%d)" minsn
           sel.Sp_simpoint.Simpoints.chosen_k)
        stats)
    slice_minsns;
  t

(* ------------------------------------------------------------------ *)

let fig4 results =
  let ks =
    match results with
    | [] -> []
    | (r : Pipeline.bench_result) :: _ ->
        List.map (fun (v : Sp_simpoint.Variance.sweep_point) -> v.k) r.variance
  in
  let t =
    Table.create
      ~title:
        "Figure 4: average within-cluster variance vs number of clusters \
         (projected-BBV space, x1000)"
      (("Benchmark", Table.Left)
      :: List.map (fun k -> (Printf.sprintf "k=%d" k, Table.Right)) ks)
  in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      Table.add_row t
        (r.spec.Benchspec.name
        :: List.map
             (fun (v : Sp_simpoint.Variance.sweep_point) ->
               Table.fmt_f ~dec:3 (v.avg_variance *. 1000.0))
             r.variance))
    results;
  t

(* ------------------------------------------------------------------ *)

let fig5 results =
  let t =
    Table.create
      ~title:
        "Figure 5: dynamic instruction count and execution time (paper-scale \
         equivalents via the calibrated rate model)"
      [
        ("Benchmark", Table.Left);
        ("Whole insns", Table.Right);
        ("Regional", Table.Right);
        ("Reduced", Table.Right);
        ("Whole time", Table.Right);
        ("Regional time", Table.Right);
        ("Reduced time", Table.Right);
        ("Insn red.", Table.Right);
        ("Insn red. (90th)", Table.Right);
      ]
  in
  let sum_w = ref 0.0 and sum_r = ref 0.0 and sum_d = ref 0.0 in
  let fmt_insns x = Format.asprintf "%a" Scale.pp_paper_insns x in
  let fmt_time kind x =
    Format.asprintf "%a" Timemodel.pp_duration
      (Timemodel.seconds kind ~paper_insns:x)
  in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let whole = Pipeline.paper_insns r r.whole in
      let reg = Pipeline.paper_insns r (Pipeline.regional r) in
      let red = Pipeline.paper_insns r (Pipeline.reduced r) in
      sum_w := !sum_w +. whole;
      sum_r := !sum_r +. reg;
      sum_d := !sum_d +. red;
      Table.add_row t
        [
          r.spec.Benchspec.name;
          fmt_insns whole;
          fmt_insns reg;
          fmt_insns red;
          fmt_time Timemodel.Whole whole;
          fmt_time Timemodel.Regional reg;
          fmt_time Timemodel.Regional red;
          Table.fmt_x (whole /. reg);
          Table.fmt_x (whole /. red);
        ])
    results;
  Table.add_rule t;
  let time kind x = Timemodel.seconds kind ~paper_insns:x in
  Table.add_row t
    [
      "Suite total";
      fmt_insns !sum_w;
      fmt_insns !sum_r;
      fmt_insns !sum_d;
      fmt_time Timemodel.Whole !sum_w;
      fmt_time Timemodel.Regional !sum_r;
      fmt_time Timemodel.Regional !sum_d;
      Table.fmt_x (!sum_w /. !sum_r);
      Table.fmt_x (!sum_w /. !sum_d);
    ];
  Table.add_row t
    [
      "Time reduction";
      "";
      "";
      "";
      "1.0x";
      Table.fmt_x (time Timemodel.Whole !sum_w /. time Timemodel.Regional !sum_r);
      Table.fmt_x (time Timemodel.Whole !sum_w /. time Timemodel.Regional !sum_d);
      "";
      "";
    ];
  t

(* ------------------------------------------------------------------ *)

let fig6 results =
  let t =
    Table.create
      ~title:
        "Figure 6: simulation-point weights (descending; '|' marks the 90th \
         percentile cut)"
      [
        ("Benchmark", Table.Left);
        ("Points", Table.Right);
        ("n90", Table.Right);
        ("Top-1", Table.Right);
        ("Top-3", Table.Right);
        ("Weights (%)", Table.Left);
      ]
  in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let weights =
        Array.map
          (fun (p : Sp_simpoint.Simpoints.point) -> p.weight)
          r.selection.points
      in
      Array.sort (fun a b -> compare b a) weights;
      let n90 = Pipeline.reduced_count r in
      let cum n =
        let acc = ref 0.0 in
        Array.iteri (fun i w -> if i < n then acc := !acc +. w) weights;
        !acc
      in
      let cells =
        Array.to_list weights
        |> List.mapi (fun i w ->
               let s = Printf.sprintf "%.1f" (w *. 100.0) in
               if i = n90 then "| " ^ s else s)
      in
      let shown, rest =
        if List.length cells > 12 then
          (List.filteri (fun i _ -> i < 12) cells, " ...")
        else (cells, "")
      in
      Table.add_row t
        [
          r.spec.Benchspec.name;
          string_of_int (Array.length weights);
          string_of_int n90;
          pct (cum 1);
          pct (cum 3);
          String.concat " " shown ^ rest;
        ])
    results;
  t

(* ------------------------------------------------------------------ *)

let fig7 results =
  let t =
    Table.create
      ~title:
        "Figure 7: instruction distribution — Whole (W) vs Regional (R) vs \
         Reduced Regional (RR); err = largest class deviation"
      [
        ("Benchmark", Table.Left);
        ("NO_MEM W/R/RR", Table.Left);
        ("MEM_R W/R/RR", Table.Left);
        ("MEM_W W/R/RR", Table.Left);
        ("MEM_RW W/R/RR", Table.Left);
        ("err R", Table.Right);
        ("err RR", Table.Right);
      ]
  in
  let err_reg = ref [] and err_red = ref [] in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let reg = Pipeline.regional r and red = Pipeline.reduced r in
      let cell f =
        Printf.sprintf "%4.1f /%4.1f /%4.1f"
          (f r.whole.Runstats.mix *. 100.0)
          (f reg.Runstats.mix *. 100.0)
          (f red.Runstats.mix *. 100.0)
      in
      let e_reg = Runstats.mix_error_pp ~reference:r.whole reg in
      let e_red = Runstats.mix_error_pp ~reference:r.whole red in
      err_reg := e_reg :: !err_reg;
      err_red := e_red :: !err_red;
      Table.add_row t
        [
          r.spec.Benchspec.name;
          cell (fun m -> m.Sp_pin.Mix.no_mem);
          cell (fun m -> m.Sp_pin.Mix.mem_r);
          cell (fun m -> m.Sp_pin.Mix.mem_w);
          cell (fun m -> m.Sp_pin.Mix.mem_rw);
          Printf.sprintf "%.2fpp" e_reg;
          Printf.sprintf "%.2fpp" e_red;
        ])
    results;
  Table.add_rule t;
  Table.add_row t
    [
      "Average";
      "";
      "";
      "";
      "";
      Printf.sprintf "%.2fpp" (Stats.mean (Array.of_list !err_reg));
      Printf.sprintf "%.2fpp" (Stats.mean (Array.of_list !err_red));
    ];
  t

(* ------------------------------------------------------------------ *)

let signed_err ref x =
  if ref = 0.0 then 0.0 else (x -. ref) /. ref *. 100.0

(* Pooled (suite-as-one-workload) miss rate for one level of one run
   kind: per-benchmark miss/access densities per instruction, averaged
   with equal benchmark weight, then ratioed.  Robust against the
   per-benchmark relative errors that explode when a benchmark's rate
   rides on a handful of accesses. *)
let pooled_rate stats_list ~accesses ~rate =
  let acc_d (s : Runstats.run_stats) =
    if s.Runstats.insns <= 0.0 then 0.0 else accesses s /. s.Runstats.insns
  in
  let miss_d s = rate s *. acc_d s in
  let sum f = Stats.fsum f stats_list in
  let a = sum acc_d in
  if a <= 0.0 then 0.0 else sum miss_d /. a

let pooled_errors whole_list run_list =
  List.map
    (fun (label, accesses, rate) ->
      let w = pooled_rate whole_list ~accesses ~rate in
      let r = pooled_rate run_list ~accesses ~rate in
      (label, signed_err w r))
    [
      ("L1D", (fun (s : Runstats.run_stats) -> s.Runstats.l1d_accesses),
       fun (s : Runstats.run_stats) -> s.Runstats.l1d_miss);
      ("L2", (fun (s : Runstats.run_stats) -> s.Runstats.l2_accesses), fun s -> s.Runstats.l2_miss);
      ("L3", (fun s -> s.Runstats.l3_accesses), fun s -> s.Runstats.l3_miss);
    ]

let fig8 results =
  let t =
    Table.create
      ~title:
        "Figure 8: cache miss rates — Whole (W) / Regional (R) / Reduced \
         (RR) / Warmup Regional (WR)"
      [
        ("Benchmark", Table.Left);
        ("L1D W/R/RR/WR", Table.Left);
        ("L2 W/R/RR/WR", Table.Left);
        ("L3 W/R/RR/WR", Table.Left);
      ]
  in
  let acc = Hashtbl.create 16 in
  let note kind level v =
    let key = (kind, level) in
    Hashtbl.replace acc key (v :: Option.value ~default:[] (Hashtbl.find_opt acc key))
  in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let reg = Pipeline.regional r in
      let red = Pipeline.reduced r in
      let warm = Pipeline.warmup_regional r in
      let cell f =
        Printf.sprintf "%5.2f /%5.2f /%5.2f /%5.2f"
          (f r.whole *. 100.0) (f reg *. 100.0) (f red *. 100.0)
          (f warm *. 100.0)
      in
      let levels =
        [
          ("L1D", fun (s : Runstats.run_stats) -> s.l1d_miss);
          ("L2", fun s -> s.l2_miss);
          ("L3", fun s -> s.l3_miss);
        ]
      in
      List.iter
        (fun (level, f) ->
          note "R" level (signed_err (f r.whole) (f reg));
          note "RR" level (signed_err (f r.whole) (f red));
          note "WR" level (signed_err (f r.whole) (f warm)))
        levels;
      Table.add_row t
        [
          r.spec.Benchspec.name;
          cell (fun s -> s.Runstats.l1d_miss);
          cell (fun s -> s.Runstats.l2_miss);
          cell (fun s -> s.Runstats.l3_miss);
        ])
    results;
  Table.add_rule t;
  let avg kind level =
    match Hashtbl.find_opt acc (kind, level) with
    | Some vs -> Stats.mean (Array.of_list vs)
    | None -> 0.0
  in
  let summary kind =
    Printf.sprintf "L1D %+.2f%%  L2 %+.2f%%  L3 %+.2f%%" (avg kind "L1D")
      (avg kind "L2") (avg kind "L3")
  in
  Table.add_row t [ "Avg err Regional"; summary "R"; ""; "" ];
  Table.add_row t [ "Avg err Reduced"; summary "RR"; ""; "" ];
  Table.add_row t [ "Avg err Warmup"; summary "WR"; ""; "" ];
  (* pooled summaries (suite treated as one workload) *)
  let wholes = List.map (fun (r : Pipeline.bench_result) -> r.whole) results in
  let pooled_row label runs =
    let errs = pooled_errors wholes runs in
    let cells =
      List.map (fun (l, e) -> Printf.sprintf "%s %+.2f%%" l e) errs
    in
    Table.add_row t [ label; String.concat "  " cells; ""; "" ]
  in
  pooled_row "Pooled err Regional" (List.map Pipeline.regional results);
  pooled_row "Pooled err Reduced" (List.map (fun r -> Pipeline.reduced r) results);
  pooled_row "Pooled err Warmup" (List.map Pipeline.warmup_regional results);
  t

(* ------------------------------------------------------------------ *)

let fig9 ?(percentiles = [ 100; 90; 80; 70; 60; 50; 40; 30; 20; 10 ]) results =
  let t =
    Table.create
      ~title:
        "Figure 9: suite error vs percentile of simulation points kept (y1: \
         mix in pp, cache errors pooled over the suite, CPI from warmed \
         replays), with modelled execution time (y2)"
      [
        ("Percentile", Table.Right);
        ("Mix err (pp)", Table.Right);
        ("L1D err", Table.Right);
        ("L2 err", Table.Right);
        ("L3 err", Table.Right);
        ("CPI err", Table.Right);
        ("Avg exec time", Table.Right);
      ]
  in
  let wholes = List.map (fun (r : Pipeline.bench_result) -> r.Pipeline.whole) results in
  List.iter
    (fun p ->
      let coverage = float_of_int p /. 100.0 in
      let cold r =
        if p >= 100 then Pipeline.regional r else Pipeline.reduced ~coverage r
      in
      let warm r =
        if p >= 100 then Pipeline.warmup_regional r
        else Pipeline.reduced_warm ~coverage r
      in
      let mix_err =
        Stats.mean
          (Array.of_list
             (List.map
                (fun r ->
                  Runstats.mix_error_pp ~reference:r.Pipeline.whole (cold r))
                results))
      in
      let cpi_err =
        Stats.mean
          (Array.of_list
             (List.map
                (fun r ->
                  Stats.rel_error_pct ~reference:r.Pipeline.whole.Runstats.cpi
                    (warm r).Runstats.cpi)
                results))
      in
      let pooled = pooled_errors wholes (List.map cold results) in
      let pooled_cell level =
        match List.assoc_opt level pooled with
        | Some e -> Printf.sprintf "%+.1f%%" e
        | None -> "-"
      in
      let secs =
        Stats.mean
          (Array.of_list
             (List.map
                (fun r ->
                  Timemodel.seconds Timemodel.Regional
                    ~paper_insns:(Pipeline.paper_insns r (cold r)))
                results))
      in
      Table.add_row t
        [
          string_of_int p;
          Table.fmt_f mix_err;
          pooled_cell "L1D";
          pooled_cell "L2";
          pooled_cell "L3";
          Table.fmt_pct cpi_err;
          Format.asprintf "%a" Timemodel.pp_duration secs;
        ])
    percentiles;
  t

(* ------------------------------------------------------------------ *)

let fig10 results =
  let t =
    Table.create
      ~title:"Figure 10: L3 cache accesses (simulated counts)"
      [
        ("Benchmark", Table.Left);
        ("Whole", Table.Right);
        ("Regional", Table.Right);
        ("Reduced", Table.Right);
        ("W/R", Table.Right);
        ("W/RR", Table.Right);
      ]
  in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let reg = Pipeline.regional r and red = Pipeline.reduced r in
      let ratio a b = if b = 0.0 then "-" else Table.fmt_x (a /. b) in
      Table.add_row t
        [
          r.spec.Benchspec.name;
          Table.fmt_int (int_of_float r.whole.Runstats.l3_accesses);
          Table.fmt_int (int_of_float reg.Runstats.l3_accesses);
          Table.fmt_int (int_of_float red.Runstats.l3_accesses);
          ratio r.whole.Runstats.l3_accesses reg.Runstats.l3_accesses;
          ratio r.whole.Runstats.l3_accesses red.Runstats.l3_accesses;
        ])
    results;
  t

(* ------------------------------------------------------------------ *)

let fig12 results =
  let natives =
    List.map (fun (r : Pipeline.bench_result) ->
        Sp_perf.Perf_counters.cpi r.native)
      results
  in
  let sniper_cpis =
    List.map (fun r -> (Pipeline.warmup_regional r).Runstats.cpi) results
  in
  let pearson =
    Stats.pearson (Array.of_list natives) (Array.of_list sniper_cpis)
  in
  let t =
    Table.create
      ~title:
        "Figure 12: CPI — native execution (perf) vs Sniper on Regional and \
         Reduced Regional Pinballs"
      [
        ("Benchmark", Table.Left);
        ("Native CPI", Table.Right);
        ("Sniper Regional", Table.Right);
        ("Sniper Reduced", Table.Right);
        ("err Regional", Table.Right);
        ("err Reduced", Table.Right);
      ]
  in
  let e_reg = ref [] and e_red = ref [] in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let native_cpi = Sp_perf.Perf_counters.cpi r.native in
      (* Sniper's PinPoints flow warms before timing each region *)
      let reg = (Pipeline.warmup_regional r).Runstats.cpi in
      let red = (Pipeline.reduced_warm r).Runstats.cpi in
      let er = Stats.rel_error_pct ~reference:native_cpi reg in
      let ed = Stats.rel_error_pct ~reference:native_cpi red in
      e_reg := er :: !e_reg;
      e_red := ed :: !e_red;
      Table.add_row t
        [
          r.spec.Benchspec.name;
          Table.fmt_f native_cpi;
          Table.fmt_f reg;
          Table.fmt_f red;
          Table.fmt_pct er;
          Table.fmt_pct ed;
        ])
    results;
  Table.add_rule t;
  Table.add_row t
    [
      "Average";
      "";
      "";
      "";
      Table.fmt_pct (Stats.mean (Array.of_list !e_reg));
      Table.fmt_pct (Stats.mean (Array.of_list !e_red));
    ];
  Table.add_row t
    [ "Pearson r (native vs Regional)"; Table.fmt_f ~dec:3 pearson; ""; ""; ""; "" ];
  t

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_bic ?(options = Pipeline.default_options)
    ?(thresholds = [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ]) () =
  let profile = Pipeline.profile_for_sweep ~options (Suite.find "623.xalancbmk_s") in
  let t =
    Table.create
      ~title:
        "Ablation: BIC threshold vs chosen k (623.xalancbmk_s; paper \
         SimPoint default 0.9, project calibration 0.7)"
      [
        ("Threshold", Table.Right);
        ("Chosen k", Table.Right);
        ("n90", Table.Right);
      ]
  in
  List.iter
    (fun th ->
      let config = { options.Pipeline.simpoint_config with bic_threshold = th } in
      let sel =
        Sp_simpoint.Simpoints.select ~config ~slice_len:options.slice_insns
          profile.Pipeline.sweep_slices
      in
      let n90 =
        Array.length (Sp_simpoint.Simpoints.reduce sel ~coverage:0.9)
      in
      Table.add_row t
        [
          Table.fmt_f th;
          string_of_int sel.Sp_simpoint.Simpoints.chosen_k;
          string_of_int n90;
        ])
    thresholds;
  t

let ablation_projection ?(options = Pipeline.default_options)
    ?(dims = [ 2; 4; 8; 15; 25; 40 ]) () =
  let profile = Pipeline.profile_for_sweep ~options (Suite.find "623.xalancbmk_s") in
  let t =
    Table.create
      ~title:
        "Ablation: random-projection dimensionality vs chosen k \
         (623.xalancbmk_s; SimPoint default 15)"
      [
        ("Dimensions", Table.Right);
        ("Chosen k", Table.Right);
        ("n90", Table.Right);
      ]
  in
  List.iter
    (fun dim ->
      let config = { options.Pipeline.simpoint_config with proj_dim = dim } in
      let sel =
        Sp_simpoint.Simpoints.select ~config ~slice_len:options.slice_insns
          profile.Pipeline.sweep_slices
      in
      let n90 =
        Array.length (Sp_simpoint.Simpoints.reduce sel ~coverage:0.9)
      in
      Table.add_row t
        [
          string_of_int dim;
          string_of_int sel.Sp_simpoint.Simpoints.chosen_k;
          string_of_int n90;
        ])
    dims;
  t

let ablation_warmup ?(options = Pipeline.default_options)
    ?(windows_minsn = [ 0; 50; 125; 250; 500; 1000 ]) results =
  (* re-profile a representative subset (the suite pass does not retain
     whole pinballs) and sweep the warmup window *)
  let subset =
    List.filteri (fun i _ -> i mod 7 = 0) results
    |> List.map (fun (r : Pipeline.bench_result) -> r.spec)
  in
  let t =
    Table.create
      ~title:
        "Ablation: warmup-window length vs suite L3 miss-rate error \
         (signed, vs Whole Run; subset of benchmarks)"
      [
        ("Warmup (Minsn)", Table.Right);
        ("L1D err", Table.Right);
        ("L2 err", Table.Right);
        ("L3 err", Table.Right);
      ]
  in
  let profiles =
    (* one profiling pass per workload, fanned out across the pool *)
    Sp_util.Pool.parallel_map ~jobs:options.Pipeline.jobs
      (fun spec ->
        let p = Pipeline.profile_for_sweep ~options spec in
        let sel =
          Sp_simpoint.Simpoints.select ~config:options.Pipeline.simpoint_config
            ~slice_len:options.slice_insns p.Pipeline.sweep_slices
        in
        (p, sel))
      (Array.of_list subset)
    |> Array.to_list
  in
  List.iter
    (fun minsn ->
      let errs =
        List.map
          (fun ((p : Pipeline.sweep_profile), sel) ->
            let points =
              Pipeline.warm_replay_points options
                ~warmup_insns:(Scale.of_minsn minsn) p.Pipeline.sweep_whole
                sel.Sp_simpoint.Simpoints.points
            in
            let stats = Runstats.of_points ~label:"warm" points in
            let w = p.Pipeline.sweep_whole_stats in
            ( signed_err w.Runstats.l1d_miss stats.Runstats.l1d_miss,
              signed_err w.Runstats.l2_miss stats.Runstats.l2_miss,
              signed_err w.Runstats.l3_miss stats.Runstats.l3_miss ))
          profiles
      in
      let avg f = Stats.mean (Array.of_list (List.map f errs)) in
      Table.add_row t
        [
          string_of_int minsn;
          Printf.sprintf "%+.2f%%" (avg (fun (a, _, _) -> a));
          Printf.sprintf "%+.2f%%" (avg (fun (_, a, _) -> a));
          Printf.sprintf "%+.2f%%" (avg (fun (_, _, a) -> a));
        ])
    windows_minsn;
  t

(* ------------------------------------------------------------------ *)

type headline = { metric : string; paper : string; measured : string }

let headlines results =
  let mean_of f = Stats.mean (Array.of_list (List.map f results)) in
  let sum_of f = Stats.fsum f results in
  let whole_insns = sum_of (fun r -> Pipeline.paper_insns r r.Pipeline.whole) in
  let reg_insns =
    sum_of (fun r -> Pipeline.paper_insns r (Pipeline.regional r))
  in
  let red_insns =
    sum_of (fun r -> Pipeline.paper_insns r (Pipeline.reduced r))
  in
  let time kind x = Timemodel.seconds kind ~paper_insns:x in
  let avg_points =
    mean_of (fun r -> float_of_int (Array.length r.Pipeline.selection.points))
  in
  let avg_n90 = mean_of (fun r -> float_of_int (Pipeline.reduced_count r)) in
  let mix_err =
    mean_of (fun r ->
        Runstats.mix_error_pp ~reference:r.Pipeline.whole (Pipeline.regional r))
  in
  let l3_err kindf =
    (* pooled over the suite: see fig8 *)
    let wholes = List.map (fun (r : Pipeline.bench_result) -> r.Pipeline.whole) results in
    let runs = List.map kindf results in
    match pooled_errors wholes runs with
    | [ _; _; ("L3", e) ] -> e
    | _ -> assert false
  in
  let cpi_err pick =
    mean_of (fun r ->
        Stats.rel_error_pct
          ~reference:(Sp_perf.Perf_counters.cpi r.Pipeline.native)
          (pick r).Runstats.cpi)
  in
  [
    {
      metric = "Avg simulation points per benchmark";
      paper = "19.75";
      measured = Table.fmt_f avg_points;
    };
    {
      metric = "Avg 90th-percentile simulation points";
      paper = "11.31";
      measured = Table.fmt_f avg_n90;
    };
    {
      metric = "Instruction reduction, Whole -> Regional";
      paper = "~650x";
      measured = Table.fmt_x (whole_insns /. reg_insns);
    };
    {
      metric = "Time reduction, Whole -> Regional";
      paper = "~750x";
      measured =
        Table.fmt_x
          (time Timemodel.Whole whole_insns /. time Timemodel.Regional reg_insns);
    };
    {
      metric = "Instruction reduction, Whole -> Reduced Regional";
      paper = "~1225x";
      measured = Table.fmt_x (whole_insns /. red_insns);
    };
    {
      metric = "Time reduction, Whole -> Reduced Regional";
      paper = "~1297x";
      measured =
        Table.fmt_x
          (time Timemodel.Whole whole_insns /. time Timemodel.Regional red_insns);
    };
    {
      metric = "Instruction-distribution error, Regional (largest class)";
      paper = "<1%";
      measured = Printf.sprintf "%.2fpp" mix_err;
    };
    {
      metric = "L3 miss-rate error, Regional (pooled)";
      paper = "+25.16%";
      measured = Printf.sprintf "%+.2f%%" (l3_err Pipeline.regional);
    };
    {
      metric = "L3 miss-rate error, Warmup Regional (pooled)";
      paper = "+9.08%";
      measured = Printf.sprintf "%+.2f%%" (l3_err Pipeline.warmup_regional);
    };
    {
      metric = "Avg CPI error, native vs Sniper Regional";
      paper = "2.59%";
      measured = Table.fmt_pct (cpi_err Pipeline.warmup_regional);
    };
    {
      metric = "Avg CPI deviation, Reduced Regional";
      paper = "13.9%";
      measured = Table.fmt_pct (cpi_err (fun r -> Pipeline.reduced_warm r));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Extensions: related-work methodologies on the same substrates *)

let default_extension_specs () =
  List.map Suite.find
    [
      "505.mcf_r"; "641.leela_s"; "623.xalancbmk_s"; "519.lbm_r";
      "648.exchange2_s"; "503.bwaves_r";
    ]

let sampling ?(options = Pipeline.default_options) ?specs () =
  let specs =
    match specs with Some s -> s | None -> default_extension_specs ()
  in
  let t =
    Table.create
      ~title:
        "Extension: SimPoint vs systematic (SMARTS/SimFlex-style) sampling \
         of per-slice CPI"
      [
        ("Benchmark", Table.Left);
        ("Whole CPI", Table.Right);
        ("SP points", Table.Right);
        ("SP est", Table.Right);
        ("SP err", Table.Right);
        ("SYS n", Table.Right);
        ("SYS est +- CI95", Table.Right);
        ("SYS err", Table.Right);
      ]
  in
  List.iter
    (fun (spec : Benchspec.t) ->
      let built =
        Benchspec.build ~slice_insns:options.Pipeline.slice_insns
          ~slices_scale:options.Pipeline.slices_scale spec
      in
      let prog = built.Benchspec.program in
      (* one instrumented pass: BBVs + per-slice CPI series *)
      let bbv =
        Sp_pin.Bbv_tool.create ~slice_len:options.Pipeline.slice_insns prog
      in
      let core =
        Sp_cpu.Interval_core.create ~config:options.Pipeline.core_config prog
      in
      let cpis =
        Sp_cpu.Slice_timer.cpis ~tools:[ Sp_pin.Bbv_tool.hooks bbv ]
          ~slice_len:options.Pipeline.slice_insns core prog
      in
      Sp_pin.Bbv_tool.finish bbv;
      let whole_cpi = Sp_cpu.Interval_core.cpi core in
      (* SimPoint estimator *)
      let sel =
        Sp_simpoint.Simpoints.select ~config:options.Pipeline.simpoint_config
          ~slice_len:options.Pipeline.slice_insns
          (Sp_pin.Bbv_tool.slices bbv)
      in
      let sp_est =
        Array.fold_left
          (fun acc (p : Sp_simpoint.Simpoints.point) ->
            let i = min p.slice_index (Array.length cpis - 1) in
            acc +. (p.weight *. cpis.(i)))
          0.0 sel.Sp_simpoint.Simpoints.points
      in
      let n_points = Array.length sel.Sp_simpoint.Simpoints.points in
      (* systematic estimator with the same measurement budget *)
      let design =
        Sp_simpoint.Systematic.design_for_budget
          ~num_slices:(Array.length cpis) ~budget:n_points
      in
      let idx =
        Sp_simpoint.Systematic.sample_indices design
          ~num_slices:(Array.length cpis)
      in
      let est =
        Sp_simpoint.Systematic.estimate (Array.map (fun i -> cpis.(i)) idx)
      in
      Table.add_row t
        [
          spec.Benchspec.name;
          Table.fmt_f ~dec:3 whole_cpi;
          string_of_int n_points;
          Table.fmt_f ~dec:3 sp_est;
          Table.fmt_pct (Stats.rel_error_pct ~reference:whole_cpi sp_est);
          string_of_int est.Sp_simpoint.Systematic.samples;
          Printf.sprintf "%.3f +- %.3f" est.Sp_simpoint.Systematic.mean
            est.Sp_simpoint.Systematic.ci95_half;
          Table.fmt_pct
            (Stats.rel_error_pct ~reference:whole_cpi
               est.Sp_simpoint.Systematic.mean);
        ])
    specs;
  t

let benchmark_features (r : Pipeline.bench_result) =
  let w = r.Pipeline.whole in
  let native = r.Pipeline.native in
  let branch_miss_rate =
    if native.Sp_perf.Perf_counters.branch_instructions = 0 then 0.0
    else
      float_of_int native.Sp_perf.Perf_counters.branch_misses
      /. float_of_int native.Sp_perf.Perf_counters.branch_instructions
  in
  [|
    w.Runstats.mix.Sp_pin.Mix.no_mem;
    w.Runstats.mix.Sp_pin.Mix.mem_r;
    w.Runstats.mix.Sp_pin.Mix.mem_w;
    w.Runstats.l1d_miss;
    w.Runstats.l2_miss;
    w.Runstats.l3_miss;
    w.Runstats.l3_accesses /. Float.max 1.0 w.Runstats.insns;
    w.Runstats.cpi;
    branch_miss_rate;
  |]

let feature_names =
  [
    "NO_MEM"; "MEM_R"; "MEM_W"; "L1D miss"; "L2 miss"; "L3 miss";
    "L3 acc/insn"; "CPI"; "branch miss";
  ]

let subset results =
  let data = Array.of_list (List.map benchmark_features results) in
  let names =
    Array.of_list
      (List.map (fun (r : Pipeline.bench_result) -> r.spec.Benchspec.name) results)
  in
  let pca = Sp_simpoint.Pca.fit ~components:4 data in
  let var_table =
    Table.create
      ~title:
        "Extension: PCA over per-benchmark characterisation vectors \
         (explained variance)"
      [
        ("Component", Table.Left);
        ("Eigenvalue", Table.Right);
        ("Explained", Table.Right);
        ("Cumulative", Table.Right);
        ("Top loadings", Table.Left);
      ]
  in
  let cum = ref 0.0 in
  Array.iteri
    (fun i ev ->
      cum := !cum +. pca.Sp_simpoint.Pca.explained.(i);
      let loadings =
        List.mapi (fun j name -> (Float.abs pca.Sp_simpoint.Pca.components.(i).(j), name))
          feature_names
        |> List.sort (fun (a, _) (b, _) -> compare b a)
        |> fun l -> List.filteri (fun i _ -> i < 3) l
        |> List.map snd |> String.concat ", "
      in
      Table.add_row var_table
        [
          Printf.sprintf "PC%d" (i + 1);
          Table.fmt_f ev;
          pct pca.Sp_simpoint.Pca.explained.(i);
          pct !cum;
          loadings;
        ])
    pca.Sp_simpoint.Pca.eigenvalues;
  let k = min 6 (Array.length data) in
  let steps = Sp_simpoint.Hcluster.linkage pca.Sp_simpoint.Pca.scores in
  let assignment =
    Sp_simpoint.Hcluster.cut ~n:(Array.length data) steps ~k
  in
  let reps = Sp_simpoint.Hcluster.medoids pca.Sp_simpoint.Pca.scores assignment in
  let cl_table =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: benchmark subsets (average-linkage clustering in PCA \
            space, k=%d); the representative stands in for its cluster"
           k)
      [
        ("Subset", Table.Right);
        ("Representative", Table.Left);
        ("Members", Table.Left);
      ]
  in
  for c = 0 to k - 1 do
    let members =
      List.filteri (fun i _ -> assignment.(i) = c) (Array.to_list names)
    in
    Table.add_row cl_table
      [
        string_of_int (c + 1);
        names.(reps.(c));
        String.concat ", " members;
      ]
  done;
  (var_table, cl_table)

let statcache ?(options = Pipeline.default_options) ?specs () =
  let specs =
    match specs with Some s -> s | None -> default_extension_specs ()
  in
  let line_bytes = options.Pipeline.cache_config.Sp_cache.Config.l2.line_bytes in
  let l2_lines = Sp_cache.Config.num_lines options.Pipeline.cache_config.l2 in
  let l3_lines = Sp_cache.Config.num_lines options.Pipeline.cache_config.l3 in
  let t =
    Table.create
      ~title:
        "Extension: StatCache-style miss-rate prediction from a reuse-\
         distance profile vs measured allcache rates (whole runs; L1-\
         filterless fully-associative LRU model)"
      [
        ("Benchmark", Table.Left);
        ("Accesses", Table.Right);
        ("Cold", Table.Right);
        ("Pred L2-size", Table.Right);
        ("Meas L2 MPKA", Table.Right);
        ("Pred L3-size", Table.Right);
        ("Meas L3 MPKA", Table.Right);
      ]
  in
  List.iter
    (fun (spec : Benchspec.t) ->
      let built =
        Benchspec.build ~slice_insns:options.Pipeline.slice_insns
          ~slices_scale:options.Pipeline.slices_scale spec
      in
      let prog = built.Benchspec.program in
      let reuse = Sp_cache.Reuse.create ~line_bytes () in
      let cache =
        Sp_pin.Allcache_tool.create ~config:options.Pipeline.cache_config prog
      in
      ignore
        (Sp_pin.Pin.run_fresh
           ~tools:[ Sp_cache.Reuse.hooks_of reuse; Sp_pin.Allcache_tool.hooks cache ]
           prog);
      let stats = Sp_pin.Allcache_tool.stats cache in
      (* compare misses-per-1000-data-accesses: the reuse model predicts
         misses of a cache of that capacity over the raw access stream,
         which corresponds to (level misses / L1 accesses) measured *)
      let mpka_meas (level : Sp_cache.Hierarchy.level_stats) =
        1000.0 *. float_of_int level.misses
        /. Float.max 1.0 (float_of_int stats.Sp_cache.Hierarchy.l1d.accesses)
      in
      let mpka_pred lines =
        1000.0 *. Sp_cache.Reuse.miss_rate_estimate reuse ~cache_lines:lines
      in
      Table.add_row t
        [
          spec.Benchspec.name;
          Table.fmt_int (Sp_cache.Reuse.total reuse);
          Table.fmt_int (Sp_cache.Reuse.cold reuse);
          Table.fmt_f (mpka_pred l2_lines);
          Table.fmt_f (mpka_meas stats.Sp_cache.Hierarchy.l2);
          Table.fmt_f (mpka_pred l3_lines);
          Table.fmt_f (mpka_meas stats.Sp_cache.Hierarchy.l3);
        ])
    specs;
  t

let ablation_prefetch ?(options = Pipeline.default_options) ?specs () =
  let specs =
    match specs with
    | Some s -> s
    | None -> List.map Suite.find [ "505.mcf_r"; "519.lbm_r"; "623.xalancbmk_s"; "525.x264_r" ]
  in
  let t =
    Table.create
      ~title:
        "Ablation: next-line prefetching vs cold-region LLC error (signed \
         L2/L3 miss-rate error of cold Regional runs vs Whole)"
      [
        ("Benchmark", Table.Left);
        ("L2 err (no PF)", Table.Right);
        ("L2 err (PF)", Table.Right);
        ("L3 err (no PF)", Table.Right);
        ("L3 err (PF)", Table.Right);
      ]
  in
  List.iter
    (fun (spec : Benchspec.t) ->
      let profile = Pipeline.profile_for_sweep ~options spec in
      let sel =
        Sp_simpoint.Simpoints.select ~config:options.Pipeline.simpoint_config
          ~slice_len:options.Pipeline.slice_insns profile.Pipeline.sweep_slices
      in
      let run prefetch =
        let opts = { options with Pipeline.next_line_prefetch = prefetch } in
        Runstats.of_points ~label:"regional"
          (Pipeline.replay_points opts profile.Pipeline.sweep_whole
             sel.Sp_simpoint.Simpoints.points)
      in
      let whole = profile.Pipeline.sweep_whole_stats in
      let off = run false and on = run true in
      let err get s = Printf.sprintf "%+.1f%%" (signed_err (get whole) (get s)) in
      Table.add_row t
        [
          spec.Benchspec.name;
          err (fun (s : Runstats.run_stats) -> s.Runstats.l2_miss) off;
          err (fun s -> s.Runstats.l2_miss) on;
          err (fun s -> s.Runstats.l3_miss) off;
          err (fun s -> s.Runstats.l3_miss) on;
        ])
    specs;
  t

(* ------------------------------------------------------------------ *)

let cpistack results =
  let t =
    Table.create
      ~title:"Extension: whole-run CPI stacks (interval model, Table III)"
      [
        ("Benchmark", Table.Left);
        ("CPI", Table.Right);
        ("Base", Table.Right);
        ("Branch", Table.Right);
        ("Memory", Table.Right);
        ("Mispredict/ki", Table.Right);
      ]
  in
  List.iter
    (fun (r : Pipeline.bench_result) ->
      let s = r.Pipeline.whole_core in
      let total = Float.max 1e-9 s.Sp_cpu.Interval_core.cycles in
      let share x = pct (x /. total) in
      let mpki =
        1000.0
        *. float_of_int s.Sp_cpu.Interval_core.branch_mispredicts
        /. Float.max 1.0 (float_of_int s.Sp_cpu.Interval_core.instructions)
      in
      Table.add_row t
        [
          r.spec.Benchspec.name;
          Table.fmt_f ~dec:3 r.Pipeline.whole.Runstats.cpi;
          share s.Sp_cpu.Interval_core.base_cycles;
          share s.Sp_cpu.Interval_core.branch_stall_cycles;
          share s.Sp_cpu.Interval_core.memory_stall_cycles;
          Table.fmt_f mpki;
        ])
    results;
  t

(* warmed CPIs of an arbitrary timing model (used by [models]): one
   walk, where each point's fresh model warms over its window and
   measures its region in place *)
let warm_cpis_with options ~fresh ~hooks ~set_warming ~cpi whole points =
  let acc = ref [] in
  Sp_pinball.Logger.walk ~warmup_insns:options.Pipeline.warmup_insns whole
    points (fun i c ->
      let model = fresh () in
      let h = hooks model in
      set_warming model true;
      Sp_pinball.Logger.warm c h;
      set_warming model false;
      ignore (Sp_pinball.Logger.measure c h);
      acc := (points.(i).Sp_simpoint.Simpoints.weight, cpi model) :: !acc);
  List.rev !acc

let models ?(options = Pipeline.default_options) ?specs () =
  let specs =
    match specs with
    | Some s -> s
    | None ->
        List.map Suite.find
          [ "505.mcf_r"; "641.leela_s"; "519.lbm_r"; "648.exchange2_s" ]
  in
  let t =
    Table.create
      ~title:
        "Extension: model independence — the same simulation points predict \
         CPI under out-of-order and in-order timing models (warmed replays)"
      [
        ("Benchmark", Table.Left);
        ("OoO whole", Table.Right);
        ("OoO SimPoint", Table.Right);
        ("OoO err", Table.Right);
        ("InO whole", Table.Right);
        ("InO SimPoint", Table.Right);
        ("InO err", Table.Right);
      ]
  in
  List.iter
    (fun (spec : Benchspec.t) ->
      let profile = Pipeline.profile_for_sweep ~options spec in
      let prog = profile.Pipeline.sweep_built.Benchspec.program in
      let sel =
        Sp_simpoint.Simpoints.select ~config:options.Pipeline.simpoint_config
          ~slice_len:options.Pipeline.slice_insns profile.Pipeline.sweep_slices
      in
      let points = sel.Sp_simpoint.Simpoints.points in
      let whole_of hooks cpi =
        let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
        ignore (Sp_vm.Interp.run ~hooks prog m);
        cpi ()
      in
      (* out-of-order *)
      let ooo_core = Sp_cpu.Interval_core.create ~config:options.core_config prog in
      let ooo_whole =
        whole_of (Sp_cpu.Interval_core.hooks ooo_core) (fun () ->
            Sp_cpu.Interval_core.cpi ooo_core)
      in
      let ooo_points =
        warm_cpis_with options
          ~fresh:(fun () ->
            Sp_cpu.Interval_core.create ~config:options.core_config prog)
          ~hooks:Sp_cpu.Interval_core.hooks
          ~set_warming:Sp_cpu.Interval_core.set_warming
          ~cpi:Sp_cpu.Interval_core.cpi profile.Pipeline.sweep_whole points
      in
      (* in-order *)
      let ino_core = Sp_cpu.Inorder_core.create ~config:options.core_config prog in
      let ino_whole =
        whole_of (Sp_cpu.Inorder_core.hooks ino_core) (fun () ->
            Sp_cpu.Inorder_core.cpi ino_core)
      in
      let ino_points =
        warm_cpis_with options
          ~fresh:(fun () ->
            Sp_cpu.Inorder_core.create ~config:options.core_config prog)
          ~hooks:Sp_cpu.Inorder_core.hooks
          ~set_warming:Sp_cpu.Inorder_core.set_warming
          ~cpi:Sp_cpu.Inorder_core.cpi profile.Pipeline.sweep_whole points
      in
      let weighted pts =
        let wsum = Stats.fsum fst pts in
        Stats.fsum (fun (w, c) -> w *. c) pts /. Float.max 1e-9 wsum
      in
      let ooo_est = weighted ooo_points and ino_est = weighted ino_points in
      Table.add_row t
        [
          spec.Benchspec.name;
          Table.fmt_f ~dec:3 ooo_whole;
          Table.fmt_f ~dec:3 ooo_est;
          Table.fmt_pct (Stats.rel_error_pct ~reference:ooo_whole ooo_est);
          Table.fmt_f ~dec:3 ino_whole;
          Table.fmt_f ~dec:3 ino_est;
          Table.fmt_pct (Stats.rel_error_pct ~reference:ino_whole ino_est);
        ])
    specs;
  t

let rate ?(options = Pipeline.default_options) ?specs ?(copies = 4) () =
  let specs =
    match specs with
    | Some s -> s
    | None -> List.map Suite.find [ "505.mcf_r"; "519.lbm_r"; "541.leela_r" ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: SPECrate throughput mode — %d concurrent copies over \
            a shared L3 vs a single copy (steady-state window after a 1.5 M-\
            instruction warm phase per copy)"
           copies)
      [
        ("Benchmark", Table.Left);
        ("L3 APKI (1 copy)", Table.Right);
        ("L3 miss (1 copy)", Table.Right);
        ("L3 APKI (N)", Table.Right);
        ("L3 miss (N)", Table.Right);
        ("Miss-rate delta", Table.Right);
      ]
  in
  let warm_fuel = 1_500_000 and fuel = 3_500_000 in
  List.iter
    (fun (spec : Benchspec.t) ->
      let built =
        Benchspec.build ~slice_insns:options.Pipeline.slice_insns
          ~slices_scale:options.Pipeline.slices_scale spec
      in
      let prog = built.Benchspec.program in
      let run n =
        let shared =
          Sp_cache.Shared_hierarchy.create ~cores:n options.Pipeline.cache_config
        in
        let mk core = (prog, Sp_cache.Shared_hierarchy.hooks shared ~core) in
        let mc = Sp_vm.Multicore.create (List.init n mk) in
        (* warm phase: populate the caches, then measure steady state *)
        Sp_vm.Multicore.run ~quantum:1000 ~fuel:warm_fuel mc;
        Sp_cache.Shared_hierarchy.reset_stats shared;
        Sp_vm.Multicore.run ~quantum:1000 ~fuel mc;
        let insns =
          float_of_int ((Sp_vm.Multicore.retired mc).(0) - warm_fuel)
        in
        let s = Sp_cache.Shared_hierarchy.core_stats shared 0 in
        let apki =
          1000.0 *. float_of_int s.Sp_cache.Shared_hierarchy.l3_accesses /. insns
        in
        let miss_rate =
          if s.Sp_cache.Shared_hierarchy.l3_accesses = 0 then 0.0
          else
            float_of_int s.Sp_cache.Shared_hierarchy.l3_misses
            /. float_of_int s.Sp_cache.Shared_hierarchy.l3_accesses
        in
        (apki, miss_rate)
      in
      let apki1, miss1 = run 1 in
      let apkin, missn = run copies in
      Table.add_row t
        [
          spec.Benchspec.name;
          Table.fmt_f apki1;
          pct miss1;
          Table.fmt_f apkin;
          pct missn;
          Printf.sprintf "%+.1fpp" ((missn -. miss1) *. 100.0);
        ])
    specs;
  t

(* ------------------------------------------------------------------ *)
(* ASCII figure shapes *)

let fig4_chart results =
  match results with
  | [] -> ""
  | first :: _ ->
      let ks =
        List.map (fun (v : Sp_simpoint.Variance.sweep_point) -> v.k)
          first.Pipeline.variance
      in
      let mean_at i =
        Stats.mean
          (Array.of_list
             (List.filter_map
                (fun (r : Pipeline.bench_result) ->
                  List.nth_opt r.Pipeline.variance i
                  |> Option.map (fun (v : Sp_simpoint.Variance.sweep_point) ->
                         v.avg_variance))
                results))
      in
      let values = Array.of_list (List.mapi (fun i _ -> mean_at i) ks) in
      "Figure 4 shape (suite-mean within-cluster variance vs k="
      ^ String.concat "," (List.map string_of_int ks)
      ^ "):\n"
      ^ Chart.series ~height:10 ~width:56 ~labels:[ "avg variance" ] [ values ]

let fig9_chart results =
  let percentiles = [ 100; 90; 80; 70; 60; 50; 40; 30; 20; 10 ] in
  let mix_errs, times =
    List.map
      (fun p ->
        let coverage = float_of_int p /. 100.0 in
        let cold r =
          if p >= 100 then Pipeline.regional r else Pipeline.reduced ~coverage r
        in
        let mix =
          Stats.mean
            (Array.of_list
               (List.map
                  (fun r ->
                    Runstats.mix_error_pp ~reference:r.Pipeline.whole (cold r))
                  results))
        in
        let time =
          Stats.mean
            (Array.of_list
               (List.map
                  (fun r ->
                    Timemodel.seconds Timemodel.Regional
                      ~paper_insns:(Pipeline.paper_insns r (cold r)))
                  results))
        in
        (mix, time))
      percentiles
    |> List.split
  in
  "Figure 9 shape (x: percentile 100 -> 10; errors rise as execution time \
   falls):\n"
  ^ Chart.series ~height:10 ~width:56
      ~labels:[ "mix err (pp)"; "exec time (norm)" ]
      [
        Array.of_list mix_errs;
        (let t = Array.of_list times in
         let m = Array.fold_left Float.max 1e-9 t in
         let e = Array.fold_left Float.max 1e-9 (Array.of_list mix_errs) in
         Array.map (fun x -> x /. m *. e) t);
      ]

let ablation_roi ?(options = Pipeline.default_options) ?specs () =
  let specs =
    match specs with
    | Some s -> s
    | None ->
        List.map Suite.find
          [ "505.mcf_r"; "620.omnetpp_s"; "641.leela_s"; "557.xz_r"; "519.lbm_r" ]
  in
  let t =
    Table.create
      ~title:
        "Ablation: region-of-interest profiling — clusters found over the \
         whole run vs the ROI only (initialisation excluded)"
      [
        ("Benchmark", Table.Left);
        ("Init share", Table.Right);
        ("k (whole)", Table.Right);
        ("n90 (whole)", Table.Right);
        ("k (ROI)", Table.Right);
        ("n90 (ROI)", Table.Right);
      ]
  in
  List.iter
    (fun (spec : Benchspec.t) ->
      let built =
        Benchspec.build ~slice_insns:options.Pipeline.slice_insns
          ~slices_scale:options.Pipeline.slices_scale spec
      in
      let prog = built.Benchspec.program in
      let bbv =
        Sp_pin.Bbv_tool.create ~slice_len:options.Pipeline.slice_insns prog
      in
      let roi = Sp_pin.Roi_tool.create ~target_pc:built.Benchspec.roi_start_pc in
      let run =
        Sp_pin.Pin.run_fresh
          ~tools:[ Sp_pin.Bbv_tool.hooks bbv; Sp_pin.Roi_tool.hooks roi ]
          prog
      in
      Sp_pin.Bbv_tool.finish bbv;
      let slices = Sp_pin.Bbv_tool.slices bbv in
      let init_insns =
        Option.value ~default:0 (Sp_pin.Roi_tool.reached_at roi)
      in
      let select sl =
        let s =
          Sp_simpoint.Simpoints.select ~config:options.Pipeline.simpoint_config
            ~slice_len:options.Pipeline.slice_insns sl
        in
        ( s.Sp_simpoint.Simpoints.chosen_k,
          Array.length (Sp_simpoint.Simpoints.reduce s ~coverage:0.9) )
      in
      let k_whole, n90_whole = select slices in
      let roi_slices =
        Array.of_list
          (List.filter
             (fun (s : Sp_pin.Bbv_tool.slice) ->
               s.Sp_pin.Bbv_tool.start_icount >= init_insns)
             (Array.to_list slices))
      in
      let k_roi, n90_roi = select roi_slices in
      Table.add_row t
        [
          spec.Benchspec.name;
          pct (float_of_int init_insns /. float_of_int run.Sp_pin.Pin.retired);
          string_of_int k_whole;
          string_of_int n90_whole;
          string_of_int k_roi;
          string_of_int n90_roi;
        ])
    specs;
  t

(* ------------------------------------------------------------------ *)

let timevary ?(options = Pipeline.default_options) ?specs () =
  let specs =
    match specs with
    | Some s -> s
    | None -> List.map Suite.find [ "620.omnetpp_s"; "505.mcf_r" ]
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (spec : Benchspec.t) ->
      let built =
        Benchspec.build ~slice_insns:options.Pipeline.slice_insns
          ~slices_scale:options.Pipeline.slices_scale spec
      in
      let prog = built.Benchspec.program in
      let core =
        Sp_cpu.Interval_core.create ~config:options.Pipeline.core_config prog
      in
      let cpis =
        Sp_cpu.Slice_timer.cpis ~slice_len:options.Pipeline.slice_insns core
          prog
      in
      Buffer.add_string buf
        (Printf.sprintf
           "Time-varying behaviour of %s (per-slice CPI over %d slices):\n"
           spec.Benchspec.name (Array.length cpis));
      Buffer.add_string buf
        (Chart.series ~height:10 ~width:72 ~labels:[ "CPI per slice" ] [ cpis ]);
      Buffer.add_char buf '\n')
    specs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let smarts ?(options = Pipeline.default_options) ?specs ?(period = 30) () =
  let specs =
    match specs with Some s -> s | None -> default_extension_specs ()
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: full SMARTS (continuous functional warming, detailed \
            measurement every %d-th slice) vs whole-run truth"
           period)
      [
        ("Benchmark", Table.Left);
        ("Whole CPI", Table.Right);
        ("SMARTS CPI", Table.Right);
        ("CPI err", Table.Right);
        ("Whole L3", Table.Right);
        ("SMARTS L3", Table.Right);
        ("Detailed insns", Table.Right);
      ]
  in
  List.iter
    (fun (spec : Benchspec.t) ->
      let built =
        Benchspec.build ~slice_insns:options.Pipeline.slice_insns
          ~slices_scale:options.Pipeline.slices_scale spec
      in
      let prog = built.Benchspec.program in
      (* ground truth *)
      let truth_core =
        Sp_cpu.Interval_core.create ~config:options.Pipeline.core_config prog
      in
      let truth_cache =
        Sp_pin.Allcache_tool.create ~config:options.Pipeline.cache_config prog
      in
      ignore
        (Sp_pin.Pin.run_fresh
           ~tools:
             [ Sp_cpu.Interval_core.hooks truth_core;
               Sp_pin.Allcache_tool.hooks truth_cache ]
           prog);
      (* SMARTS pass: same tools, run in slice-sized legs; warming
         toggles between legs, and every period-th slice after the
         first is measured *)
      let core =
        Sp_cpu.Interval_core.create ~config:options.Pipeline.core_config prog
      in
      let cache =
        Sp_pin.Allcache_tool.create ~config:options.Pipeline.cache_config prog
      in
      let hooks =
        Sp_vm.Hooks.seq_all
          [ Sp_cpu.Interval_core.hooks core; Sp_pin.Allcache_tool.hooks cache ]
      in
      let m = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
      let rec legs slice =
        let warm = slice = 0 || slice mod period <> 0 in
        Sp_cpu.Interval_core.set_warming core warm;
        Sp_pin.Allcache_tool.set_warming cache warm;
        match
          Sp_vm.Interp.run ~hooks ~fuel:options.Pipeline.slice_insns prog m
        with
        | Sp_vm.Interp.Out_of_fuel -> legs (slice + 1)
        | Sp_vm.Interp.Halted -> ()
      in
      legs 0;
      let whole_cpi = Sp_cpu.Interval_core.cpi truth_core in
      let smarts_cpi = Sp_cpu.Interval_core.cpi core in
      let l3 (tool : Sp_pin.Allcache_tool.t) =
        (Sp_pin.Allcache_tool.stats tool).Sp_cache.Hierarchy.l3.miss_rate
      in
      Table.add_row t
        [
          spec.Benchspec.name;
          Table.fmt_f ~dec:3 whole_cpi;
          Table.fmt_f ~dec:3 smarts_cpi;
          Table.fmt_pct (Stats.rel_error_pct ~reference:whole_cpi smarts_cpi);
          pct (l3 truth_cache);
          pct (l3 cache);
          Table.fmt_int (Sp_cpu.Interval_core.instructions core);
        ])
    specs;
  t

(* ------------------------------------------------------------------ *)

let vli ?(options = Pipeline.default_options) ?specs () =
  let specs =
    match specs with
    | Some s -> s
    | None ->
        List.map Suite.find [ "620.omnetpp_s"; "505.mcf_r"; "641.leela_s" ]
  in
  let micro = Scale.of_minsn Scale.micro_slice_minsn in
  let t =
    Table.create
      ~title:
        "Extension: variable-length intervals (SimPoint 3.0) vs fixed 30M \
         slices — interval counts, points, and Regional mix error"
      [
        ("Benchmark", Table.Left);
        ("Fixed slices", Table.Right);
        ("Fixed k", Table.Right);
        ("Fixed mix err", Table.Right);
        ("VLI intervals", Table.Right);
        ("VLI k", Table.Right);
        ("VLI mix err", Table.Right);
        ("Avg VLI len (M)", Table.Right);
      ]
  in
  List.iter
    (fun (spec : Benchspec.t) ->
      let profile = Pipeline.profile_for_sweep ~options ~slice_insns:micro spec in
      let micro_slices = profile.Pipeline.sweep_slices in
      let whole = profile.Pipeline.sweep_whole_stats in
      let mix_err_of points =
        let stats =
          Runstats.of_points ~label:"r"
            (Pipeline.replay_points options profile.Pipeline.sweep_whole points)
        in
        Runstats.mix_error_pp ~reference:whole stats
      in
      (* fixed 30M slices from the same micro collection *)
      let fixed_slices =
        Sp_simpoint.Aggregate.merge
          ~factor:(Scale.default_slice_minsn / Scale.micro_slice_minsn)
          micro_slices
      in
      let fixed_sel =
        Sp_simpoint.Simpoints.select ~config:options.Pipeline.simpoint_config
          ~slice_len:options.Pipeline.slice_insns fixed_slices
      in
      (* variable-length intervals capped at 4x the fixed slice *)
      let max_len = 4 * options.Pipeline.slice_insns in
      let intervals = Sp_simpoint.Vli.segment ~max_len micro_slices in
      let vli_sel =
        Sp_simpoint.Vli.select ~config:options.Pipeline.simpoint_config
          ~max_len ~micro_len:micro micro_slices
      in
      let avg_len =
        Stats.mean
          (Array.map
             (fun (s : Sp_pin.Bbv_tool.slice) -> float_of_int s.Sp_pin.Bbv_tool.length)
             intervals)
      in
      Table.add_row t
        [
          spec.Benchspec.name;
          string_of_int (Array.length fixed_slices);
          string_of_int fixed_sel.Sp_simpoint.Simpoints.chosen_k;
          Printf.sprintf "%.2fpp" (mix_err_of fixed_sel.Sp_simpoint.Simpoints.points);
          string_of_int (Array.length intervals);
          string_of_int vli_sel.Sp_simpoint.Simpoints.chosen_k;
          Printf.sprintf "%.2fpp" (mix_err_of vli_sel.Sp_simpoint.Simpoints.points);
          Table.fmt_f
            (avg_len /. float_of_int Sp_util.Scale.sim_insns_per_minsn);
        ])
    specs;
  t

(* ------------------------------------------------------------------ *)

let samplers ?(options = Pipeline.default_options) ?specs () =
  let options = Pipeline.normalize options in
  let specs = match specs with Some s -> s | None -> Suite.all in
  let t =
    Table.create
      ~title:
        "Extension: sampler-vs-sampler error/cost (CPI from warm replays, \
         signed pooled L3 error, budget = simulated instructions incl. \
         warmup)"
      [
        ("Sampler", Table.Left);
        ("Avg pts", Table.Right);
        ("Sim Minsns", Table.Right);
        ("% of whole", Table.Right);
        ("CPI err", Table.Right);
        ("L3 err (warm)", Table.Right);
        ("L3 err (cold)", Table.Right);
      ]
  in
  (* build + log + profile each workload once; every registered sampler
     then selects over the same slices and replays only its own points,
     so the comparison isolates the selection methodology *)
  let profiles =
    Sp_util.Pool.parallel_map ~jobs:options.Pipeline.jobs
      (fun spec -> Pipeline.profile_for_sweep ~options spec)
      (Array.of_list specs)
  in
  let wholes =
    Array.to_list
      (Array.map (fun p -> p.Pipeline.sweep_whole_stats) profiles)
  in
  let whole_insns =
    Stats.fsum (fun (w : Runstats.run_stats) -> w.Runstats.insns) wholes
  in
  List.iter
    (fun kind ->
      let runs =
        Array.map
          (fun prof ->
            let sel =
              Sp_simpoint.Sampler.select
                ~config:options.Pipeline.simpoint_config kind
                ~slice_len:options.Pipeline.slice_insns
                prof.Pipeline.sweep_slices
            in
            let pts = sel.Sp_simpoint.Sampler.points in
            let cold, warm =
              Pipeline.replay_cold_warm options
                ~warmup_insns:options.Pipeline.warmup_insns
                prof.Pipeline.sweep_whole pts
            in
            ( prof,
              pts,
              Runstats.of_points ~label:"cold" cold,
              Runstats.of_points ~label:"warm" warm ))
          profiles
      in
      let npts =
        Stats.mean
          (Array.map
             (fun (_, pts, _, _) -> float_of_int (Array.length pts))
             runs)
      in
      (* measured regions plus the windows the walk actually warmed,
         clamped where a point follows closely on the previous one *)
      let budget =
        Stats.fsum
          (fun (_, pts, _, _) ->
            let warmed =
              Sp_pinball.Logger.warm_prefixes
                ~warmup_insns:options.Pipeline.warmup_insns pts
            in
            float_of_int
              (Array.fold_left
                 (fun acc (p : Sp_simpoint.Simpoints.point) -> acc + p.length)
                 (Array.fold_left ( + ) 0 warmed)
                 pts))
          (Array.to_list runs)
      in
      let cpi_err =
        Stats.mean
          (Array.map
             (fun (prof, _, _, warm) ->
               Stats.rel_error_pct
                 ~reference:prof.Pipeline.sweep_whole_stats.Runstats.cpi
                 warm.Runstats.cpi)
             runs)
      in
      let pooled which =
        match
          List.assoc_opt "L3"
            (pooled_errors wholes (Array.to_list (Array.map which runs)))
        with
        | Some e -> Printf.sprintf "%+.1f%%" e
        | None -> "-"
      in
      Table.add_row t
        [
          Sp_simpoint.Sampler.name kind;
          Table.fmt_f ~dec:1 npts;
          Table.fmt_f ~dec:2 (budget /. 1e6);
          Table.fmt_pct (budget /. whole_insns *. 100.0);
          Table.fmt_pct cpi_err;
          pooled (fun (_, _, _, warm) -> warm);
          pooled (fun (_, _, cold, _) -> cold);
        ])
    Sp_simpoint.Sampler.all_kinds;
  t

(* ------------------------------------------------------------------ *)
(* The registry: every experiment, in print order *)

type output = Table of Table.t | Text of string

let render = function
  | Table t -> Table.render t ^ "\n"
  | Text s -> s ^ "\n"

type context = {
  options : Pipeline.options;
  specs : Benchspec.t list option;
  suite : Pipeline.bench_result list Lazy.t;
}

let context ?specs options =
  { options; specs; suite = lazy (Pipeline.run_suite ~options ?specs ()) }

type entry = { name : string; run : context -> output list }

let headline_table results =
  let t =
    Table.create ~title:"Headline claims: paper vs this reproduction"
      [
        ("Metric", Table.Left); ("Paper", Table.Right); ("Measured", Table.Right);
      ]
  in
  List.iter
    (fun h -> Table.add_row t [ h.metric; h.paper; h.measured ])
    (headlines results);
  t

let registry =
  let table name f = { name; run = (fun c -> [ Table (f c) ]) } in
  let suite name f = table name (fun c -> f (Lazy.force c.suite)) in
  [
    table "table1" (fun _ -> table1 ());
    suite "table2" table2;
    table "table2x" (fun c -> table2_extended ~options:c.options ());
    { name = "table3"; run = (fun _ -> [ Text (table3 ()) ]) };
    table "fig3a" (fun c -> fig3a ~options:c.options ());
    table "fig3b" (fun c -> fig3b ~options:c.options ());
    {
      name = "fig4";
      run =
        (fun c ->
          let r = Lazy.force c.suite in
          [ Table (fig4 r); Text (fig4_chart r) ]);
    };
    suite "fig5" fig5;
    suite "fig6" fig6;
    suite "fig7" fig7;
    suite "fig8" fig8;
    {
      name = "fig9";
      run =
        (fun c ->
          let r = Lazy.force c.suite in
          [ Table (fig9 r); Text (fig9_chart r) ]);
    };
    suite "fig10" fig10;
    suite "fig12" fig12;
    table "ablation-bic" (fun c -> ablation_bic ~options:c.options ());
    table "ablation-proj" (fun c -> ablation_projection ~options:c.options ());
    table "ablation-warmup" (fun c ->
        ablation_warmup ~options:c.options (Lazy.force c.suite));
    table "ablation-prefetch" (fun c ->
        ablation_prefetch ~options:c.options ?specs:c.specs ());
    table "ablation-roi" (fun c ->
        ablation_roi ~options:c.options ?specs:c.specs ());
    table "sampling" (fun c -> sampling ~options:c.options ?specs:c.specs ());
    table "samplers" (fun c -> samplers ~options:c.options ?specs:c.specs ());
    table "smarts" (fun c -> smarts ~options:c.options ?specs:c.specs ());
    table "vli" (fun c -> vli ~options:c.options ?specs:c.specs ());
    {
      name = "subset";
      run =
        (fun c ->
          let vars, clusters = subset (Lazy.force c.suite) in
          [ Table vars; Table clusters ]);
    };
    table "statcache" (fun c -> statcache ~options:c.options ?specs:c.specs ());
    suite "cpistack" cpistack;
    {
      name = "timevary";
      run =
        (fun c -> [ Text (timevary ~options:c.options ?specs:c.specs ()) ]);
    };
    table "models" (fun c -> models ~options:c.options ?specs:c.specs ());
    table "rate" (fun c -> rate ~options:c.options ?specs:c.specs ());
    suite "headlines" headline_table;
  ]

let find name = List.find_opt (fun e -> e.name = name) registry
