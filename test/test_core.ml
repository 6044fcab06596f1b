(* Integration tests for the Specrepro pipeline and experiment
   machinery, on a shrunken benchmark so the whole flow stays fast. *)

open Specrepro

let tiny_options =
  {
    Pipeline.default_options with
    slices_scale = 0.05;
    collect_variance = true;
    variance_ks = [ 3; 8 ];
    progress = false;
  }

(* one pipeline run shared by the tests below *)
let result =
  lazy (Pipeline.run_benchmark ~options:tiny_options (Sp_workloads.Suite.find "620.omnetpp_s"))

let test_pipeline_basics () =
  let r = Lazy.force result in
  Alcotest.(check bool) "instructions executed" true (r.Pipeline.whole_insns > 100_000);
  Alcotest.(check bool) "points found" true
    (Array.length r.Pipeline.selection.points > 0);
  Alcotest.(check (float 1e-6)) "weights sum to 1" 1.0
    (Array.fold_left
       (fun acc (p : Sp_simpoint.Simpoints.point) -> acc +. p.weight)
       0.0 r.Pipeline.selection.points);
  Alcotest.(check int) "cold stats per point"
    (Array.length r.Pipeline.selection.points)
    (List.length r.Pipeline.point_stats);
  Alcotest.(check int) "warm stats per point"
    (Array.length r.Pipeline.selection.points)
    (List.length r.Pipeline.warm_point_stats)

let test_regional_mix_matches_whole () =
  let r = Lazy.force result in
  let reg = Pipeline.regional r in
  let err = Runstats.mix_error_pp ~reference:r.Pipeline.whole reg in
  Alcotest.(check bool)
    (Printf.sprintf "mix error %.2fpp < 3pp" err)
    true (err < 3.0)

let test_reduced_subset () =
  let r = Lazy.force result in
  let n = Array.length r.Pipeline.selection.points in
  let n90 = Pipeline.reduced_count r in
  Alcotest.(check bool) "reduced smaller" true (n90 <= n);
  let red = Pipeline.reduced r in
  let reg = Pipeline.regional r in
  Alcotest.(check bool) "fewer instructions" true
    (red.Runstats.insns <= reg.Runstats.insns);
  (* coverage sweep is monotone in kept instructions *)
  let i50 = (Pipeline.reduced ~coverage:0.5 r).Runstats.insns in
  Alcotest.(check bool) "50th percentile smaller" true (i50 <= red.Runstats.insns)

let test_variance_collected () =
  let r = Lazy.force result in
  Alcotest.(check int) "sweep points" 2 (List.length r.Pipeline.variance);
  match r.Pipeline.variance with
  | [ a; b ] ->
      Alcotest.(check bool) "variance decreases in k" true
        (a.Sp_simpoint.Variance.avg_variance >= b.Sp_simpoint.Variance.avg_variance)
  | _ -> Alcotest.fail "expected 2"

let test_native_sample () =
  let r = Lazy.force result in
  let cpi = Sp_perf.Perf_counters.cpi r.Pipeline.native in
  Alcotest.(check bool) "plausible CPI" true (cpi > 0.1 && cpi < 20.0);
  (* native CPI close to the whole-run model CPI (same model + noise) *)
  let err =
    Sp_util.Stats.rel_error_pct ~reference:r.Pipeline.whole.Runstats.cpi cpi
  in
  Alcotest.(check bool) (Printf.sprintf "err %.1f%%" err) true (err < 20.0)

(* ------------------------------------------------------------------ *)
(* Runstats aggregation *)

let mk_point ~cluster ~weight ~insns ~misses ~accesses ~cpi =
  let level ~misses ~accesses =
    {
      Sp_cache.Hierarchy.accesses;
      misses;
      miss_rate =
        (if accesses = 0 then 0.0
         else float_of_int misses /. float_of_int accesses);
    }
  in
  {
    Runstats.cluster;
    weight;
    insns;
    mix = Sp_pin.Mix.zero;
    cache =
      {
        Sp_cache.Hierarchy.l1i = level ~misses:0 ~accesses:0;
        l1d = level ~misses ~accesses;
        l2 = level ~misses ~accesses;
        l3 = level ~misses ~accesses;
      };
    cpi;
  }

let test_of_points_rate_aggregation () =
  (* two equal-weight points: one with many accesses at low miss rate,
     one with few accesses at 100%.  The aggregate must be the
     access-density-weighted ratio, not the average of the two rates. *)
  let p1 = mk_point ~cluster:0 ~weight:0.5 ~insns:1000 ~misses:10 ~accesses:1000 ~cpi:1.0 in
  let p2 = mk_point ~cluster:1 ~weight:0.5 ~insns:1000 ~misses:10 ~accesses:10 ~cpi:3.0 in
  let agg = Runstats.of_points ~label:"t" [ p1; p2 ] in
  (* pooled: (10+10) misses over (1000+10) accesses *)
  Alcotest.(check (float 1e-9)) "pooled rate" (20.0 /. 1010.0) agg.Runstats.l1d_miss;
  Alcotest.(check (float 1e-9)) "cpi weighted" 2.0 agg.Runstats.cpi;
  Alcotest.(check (float 1e-9)) "insns summed" 2000.0 agg.Runstats.insns

let test_of_points_weight_renormalised () =
  (* a 90th-percentile subset keeps absolute weights; aggregation must
     renormalise internally *)
  let p1 = mk_point ~cluster:0 ~weight:0.6 ~insns:100 ~misses:0 ~accesses:100 ~cpi:1.0 in
  let p2 = mk_point ~cluster:1 ~weight:0.3 ~insns:100 ~misses:0 ~accesses:100 ~cpi:2.0 in
  let agg = Runstats.of_points ~label:"t" [ p1; p2 ] in
  Alcotest.(check (float 1e-9)) "renormalised cpi"
    ((0.6 *. 1.0 /. 0.9) +. (0.3 *. 2.0 /. 0.9))
    agg.Runstats.cpi

let test_miss_rate_error () =
  let whole =
    Runstats.of_whole ~label:"w" ~insns:100 ~mix:Sp_pin.Mix.zero
      ~cache:
        {
          Sp_cache.Hierarchy.l1i = { accesses = 0; misses = 0; miss_rate = 0.0 };
          l1d = { accesses = 100; misses = 10; miss_rate = 0.1 };
          l2 = { accesses = 10; misses = 5; miss_rate = 0.5 };
          l3 = { accesses = 5; misses = 1; miss_rate = 0.2 };
        }
      ~cpi:1.0
  in
  let other = { whole with Runstats.l1d_miss = 0.2; l3_miss = 0.3 } in
  let l1d, l2, l3 = Runstats.miss_rate_error_pct ~reference:whole other in
  Alcotest.(check (float 1e-9)) "l1d +100%" 100.0 l1d;
  Alcotest.(check (float 1e-9)) "l2 0%" 0.0 l2;
  Alcotest.(check (float 1e-9)) "l3 +50%" 50.0 l3

(* ------------------------------------------------------------------ *)
(* Experiments (static parts) *)

let test_table1_renders () =
  let s = Sp_util.Table.render (Experiments.table1 ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring_contains.contains s needle))
    [ "L1I"; "L3"; "direct-mapped"; "16384kB" ]

let test_table3_renders () =
  let s = Experiments.table3 () in
  Alcotest.(check bool) "has model" true
    (Astring_contains.contains s "Intel i7-3770")

let test_table2_and_headlines () =
  let r = Lazy.force result in
  let t = Sp_util.Table.render (Experiments.table2 [ r ]) in
  Alcotest.(check bool) "benchmark row" true
    (Astring_contains.contains t "620.omnetpp_s");
  let hs = Experiments.headlines [ r ] in
  Alcotest.(check bool) "headlines populated" true (List.length hs >= 8);
  List.iter
    (fun (h : Experiments.headline) ->
      Alcotest.(check bool) (h.metric ^ " measured") true
        (String.length h.measured > 0))
    hs

let test_fig_tables_render () =
  let r = Lazy.force result in
  List.iter
    (fun (name, table) ->
      let s = Sp_util.Table.render table in
      Alcotest.(check bool) (name ^ " mentions benchmark") true
        (Astring_contains.contains s "620.omnetpp_s"))
    [
      ("fig4", Experiments.fig4 [ r ]);
      ("fig5", Experiments.fig5 [ r ]);
      ("fig6", Experiments.fig6 [ r ]);
      ("fig7", Experiments.fig7 [ r ]);
      ("fig8", Experiments.fig8 [ r ]);
      ("fig10", Experiments.fig10 [ r ]);
      ("fig12", Experiments.fig12 [ r ]);
    ];
  (* the cpistack extension table *)
  let sk = Sp_util.Table.render (Experiments.cpistack [ r ]) in
  Alcotest.(check bool) "cpistack row" true
    (Astring_contains.contains sk "620.omnetpp_s");
  (* figure-shape charts render *)
  Alcotest.(check bool) "fig9 chart" true
    (String.length (Experiments.fig9_chart [ r ]) > 100);
  (* fig9 rows are percentiles, not benchmarks *)
  let s9 =
    Sp_util.Table.render (Experiments.fig9 ~percentiles:[ 100; 50 ] [ r ])
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("fig9 " ^ needle) true
        (Astring_contains.contains s9 needle))
    [ "100"; "50"; "CPI err" ]

let test_pipeline_deterministic () =
  (* bit-for-bit reproducibility: the whole pipeline is seeded *)
  let run () =
    let r =
      Pipeline.run_benchmark ~options:tiny_options
        (Sp_workloads.Suite.find "648.exchange2_s")
    in
    ( r.Pipeline.whole_insns,
      r.Pipeline.selection.chosen_k,
      Array.map (fun (p : Sp_simpoint.Simpoints.point) -> (p.slice_index, p.weight))
        r.Pipeline.selection.points,
      (Pipeline.regional r).Runstats.cpi,
      (Pipeline.warmup_regional r).Runstats.l3_miss )
  in
  Alcotest.(check bool) "identical reruns" true (run () = run ())

(* The cache directory's two outcomes: the log+profile stage decodes a
   clean pair (a valid [.prof] and the whole pinball of the same
   execution), or it measures once and stores both entries.  Every run
   below must be bit-identical to an uncached run. *)
let test_cache_dir_reuse () =
  let dir = Filename.temp_file "spcache" "" in
  Sys.remove dir;
  let spec = Sp_workloads.Suite.find "648.exchange2_s" in
  let options =
    (* mem_cache_mb = 0: this test exercises the on-disk layer
       (quarantine, re-store), which the in-memory cache would mask *)
    {
      tiny_options with
      collect_variance = false;
      profile_cache = Some dir;
      mem_cache_mb = 0;
    }
  in
  let fingerprint (r : Pipeline.bench_result) =
    ( ( r.Pipeline.whole_insns,
        r.Pipeline.whole,
        r.Pipeline.whole_core,
        r.Pipeline.native ),
      ( r.Pipeline.selection.chosen_k,
        r.Pipeline.selection.points,
        r.Pipeline.point_stats,
        r.Pipeline.warm_point_stats ) )
  in
  let uncached options =
    fingerprint
      (Pipeline.run_benchmark ~options:{ options with profile_cache = None }
         spec)
  in
  let baseline = uncached options in
  (* run through the cache; check the result and the named counters *)
  let cached what ?(options = options) ?(baseline = baseline) counters =
    Sp_obs.Metrics.reset ();
    let r = fingerprint (Pipeline.run_benchmark ~options spec) in
    Alcotest.(check bool) (what ^ ": matches uncached") true
      (Stdlib.compare r baseline = 0);
    let snap = Sp_obs.Metrics.stable_snapshot () in
    List.iter
      (fun (name, v) ->
        Alcotest.(check (float 0.0)) (what ^ ": " ^ name) v
          (Option.value ~default:0.0 (Sp_obs.Metrics.counter_value snap name)))
      counters;
    Sp_obs.Metrics.reset ()
  in
  let stored_both =
    [
      ("profcache.stores", 1.0); ("pbcache.stored", 1.0); ("pbcache.hits", 0.0);
    ]
  in
  (* a cold run logs once, stores both entries, and looks up no
     pinball it is about to write *)
  cached "cold" (("pbcache.misses", 0.0) :: stored_both);
  let key =
    Sp_pinball.Artifact_cache.key ~benchmark:"648.exchange2_s"
      ~slice_insns:options.Pipeline.slice_insns
      ~slices_scale:options.Pipeline.slices_scale
  in
  let entry = Sp_pinball.Artifact_cache.whole_path ~dir key in
  Alcotest.(check bool) "cache entry written" true (Sys.file_exists entry);
  (* a warm run decodes both entries and stores nothing *)
  cached "warm"
    [
      ("profcache.hits", 1.0);
      ("pbcache.hits", 1.0);
      ("profcache.stores", 0.0);
      ("pbcache.stored", 0.0);
      ("vm.snapshots", 0.0);
    ];
  (* corrupt the pinball under its valid profile entry: quarantined,
     measured again and both entries stored again — never fatal *)
  let data = In_channel.with_open_bin entry In_channel.input_all in
  let broken = Bytes.of_string data in
  let mid = String.length data / 2 in
  Bytes.set broken mid (Char.chr (Char.code (Bytes.get broken mid) lxor 0x01));
  Out_channel.with_open_bin entry (fun oc -> Out_channel.output_bytes oc broken);
  cached "corrupt pinball" (("pbcache.quarantined", 1.0) :: stored_both);
  Alcotest.(check bool) "entry re-stored" true (Sys.file_exists entry);
  (match Sp_pinball.Store.verify entry with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "re-stored entry invalid: %s"
        (Sp_pinball.Store.error_message e));
  (* a profile entry whose pinball was deleted measures again *)
  Sys.remove entry;
  cached "deleted pinball" (("pbcache.misses", 1.0) :: stored_both);
  Alcotest.(check bool) "entry stored again" true (Sys.file_exists entry);
  (* the warmup keys the profile entry only: a changed warmup misses
     the profile and never looks the pinball up *)
  let options = { options with warmup_insns = 100_000 } in
  cached "changed warmup" ~options ~baseline:(uncached options)
    (("profcache.misses", 1.0) :: ("pbcache.misses", 0.0) :: stored_both);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_profile_cache_reuse () =
  let dir = Filename.temp_file "spprof" "" in
  Sys.remove dir;
  let spec = Sp_workloads.Suite.find "648.exchange2_s" in
  let options =
    (* mem_cache_mb = 0: the disk-layer hit/miss/quarantine counters
       below assume every lookup reaches the files *)
    {
      tiny_options with
      collect_variance = false;
      profile_cache = Some dir;
      mem_cache_mb = 0;
    }
  in
  (* everything the cached entry feeds: whole-run stats, the CPI-stack
     core stats, selection and both replay flavours *)
  let fingerprint (r : Pipeline.bench_result) =
    ( ( r.Pipeline.whole_insns,
        r.Pipeline.whole,
        r.Pipeline.whole_core,
        r.Pipeline.native ),
      ( r.Pipeline.selection.chosen_k,
        r.Pipeline.selection.points,
        r.Pipeline.point_stats,
        r.Pipeline.warm_point_stats ) )
  in
  let counter name =
    Option.value ~default:0.0
      (Sp_obs.Metrics.counter_value (Sp_obs.Metrics.stable_snapshot ()) name)
  in
  let baseline =
    fingerprint
      (Pipeline.run_benchmark
         ~options:{ options with profile_cache = None }
         spec)
  in
  (* a cold cached run profiles, stores, and matches the uncached run *)
  Sp_obs.Metrics.reset ();
  let cold = fingerprint (Pipeline.run_benchmark ~options spec) in
  Alcotest.(check bool) "cold cached run matches uncached" true
    (Stdlib.compare cold baseline = 0);
  Alcotest.(check (float 0.0)) "cold run misses once" 1.0
    (counter "profcache.misses");
  Alcotest.(check (float 0.0)) "cold run stores once" 1.0
    (counter "profcache.stores");
  let key =
    Sp_pinball.Profile_store.key ~benchmark:"648.exchange2_s"
      ~slice_insns:options.Pipeline.slice_insns
      ~slices_scale:options.Pipeline.slices_scale
      ~warmup_insns:options.Pipeline.warmup_insns
  in
  let entry = Sp_pinball.Profile_store.path ~dir ~key in
  Alcotest.(check bool) "profile entry written" true (Sys.file_exists entry);
  (* a warm run decodes the entry instead of re-profiling; every
     downstream statistic stays bit-identical *)
  Sp_obs.Metrics.reset ();
  let warm = fingerprint (Pipeline.run_benchmark ~options spec) in
  Alcotest.(check bool) "profile hit matches uncached" true
    (Stdlib.compare warm baseline = 0);
  Alcotest.(check (float 0.0)) "warm run hits once" 1.0
    (counter "profcache.hits");
  Alcotest.(check (float 0.0)) "warm run stores nothing" 0.0
    (counter "profcache.stores");
  (* corrupt the entry: quarantined, recomputed, re-stored — never
     fatal, still bit-identical *)
  let data = In_channel.with_open_bin entry In_channel.input_all in
  let broken = Bytes.of_string data in
  let mid = String.length data / 2 in
  Bytes.set broken mid (Char.chr (Char.code (Bytes.get broken mid) lxor 0x01));
  Out_channel.with_open_bin entry (fun oc -> Out_channel.output_bytes oc broken);
  Sp_obs.Metrics.reset ();
  let recomputed = fingerprint (Pipeline.run_benchmark ~options spec) in
  Alcotest.(check bool) "corrupt entry recomputed" true
    (Stdlib.compare recomputed baseline = 0);
  Alcotest.(check (float 0.0)) "quarantined once" 1.0
    (counter "profcache.quarantines");
  Alcotest.(check bool) "entry re-stored" true (Sys.file_exists entry);
  (match Sp_pinball.Profile_store.verify entry with
  | Ok () -> ()
  | Error e -> Alcotest.failf "re-stored entry invalid: %s" e);
  (* the shared-directory GC verifies .prof entries alongside .pb ones:
     the quarantined residue goes, valid entries of both kinds stay *)
  let gc = Sp_pinball.Artifact_cache.gc ~dir in
  Alcotest.(check bool) "gc swept the quarantined entry" true
    (gc.Sp_pinball.Artifact_cache.removed_quarantined >= 1);
  Alcotest.(check int) "gc removed nothing valid" 0
    gc.Sp_pinball.Artifact_cache.removed_corrupt;
  Alcotest.(check bool) "entry survives gc" true (Sys.file_exists entry);
  Sp_obs.Metrics.reset ();
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Golden results: the simulated numbers of two full default-option
   pipeline runs, pinned across commits.  Each run's v2 envelope is
   normalised as CI's [norm()] does — wall-clock fields zeroed, the
   metrics snapshot emptied, the [jobs] echo zeroed — and the MD5 of
   the two normalised envelopes (newline-joined) must equal the
   recorded digest.  Performance work must leave it alone; a deliberate
   change to the results must re-pin it, like [test_pinball.ml]'s
   golden bytes. *)
let golden_results_md5 = "ed089428f8aed73c2590c81f5ee5a919"

let rec norm_envelope = function
  | Sp_obs.Json.Obj kvs ->
      Sp_obs.Json.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "wall_seconds" | "seconds" | "jobs" -> (k, Sp_obs.Json.Num 0.0)
             | "metrics" -> (k, Sp_obs.Json.List [])
             | _ -> (k, norm_envelope v))
           kvs)
  | Sp_obs.Json.List vs -> Sp_obs.Json.List (List.map norm_envelope vs)
  | v -> v

(* Golden selection: what the run envelope does not carry — each
   benchmark's chosen k, BIC curve and point identities, and every
   field of its variance sweep — hashed with floats by their bits.
   The two runs above are joined by a [557.xz_r] run whose
   [sample_cap] (500) sits below its 1291 slices, so k-means fits a
   subsample and the full set goes through [Kmeans.assign].  Pinned on
   the commit before the select stage was reworked; a deliberate change
   to the selection must re-pin it, like [golden_results_md5]. *)
let golden_selection_md5 = "b1d95eba9d3b31d49da4873bbc75c7a1"

let selection_fingerprint (r : Pipeline.bench_result) =
  let b = Buffer.create 4096 in
  let int i = Buffer.add_string b (string_of_int i ^ ";") in
  let flt f = Buffer.add_string b (Int64.to_string (Int64.bits_of_float f) ^ ";") in
  let sel = r.Pipeline.selection in
  Buffer.add_string b r.Pipeline.spec.Sp_workloads.Benchspec.name;
  int sel.Pipeline.chosen_k;
  List.iter (fun (k, bic) -> int k; flt bic) sel.Pipeline.bic_curve;
  Array.iter
    (fun (p : Sp_simpoint.Simpoints.point) ->
      int p.slice_index;
      int p.start_icount;
      int p.length;
      flt p.weight)
    sel.Pipeline.points;
  List.iter
    (fun (v : Sp_simpoint.Variance.sweep_point) ->
      int v.k;
      flt v.avg_variance;
      flt v.max_variance;
      flt v.distortion)
    r.Pipeline.variance;
  Buffer.contents b

let test_golden_results () =
  let options =
    { Pipeline.default_options with slices_scale = 0.05; progress = false }
  in
  let results =
    List.map
      (fun name -> Pipeline.run_benchmark ~options (Sp_workloads.Suite.find name))
      [ "620.omnetpp_s"; "557.xz_r" ]
  in
  let envelopes =
    List.map
      (fun r ->
        Api.run_envelope r |> norm_envelope |> Sp_obs.Json.to_string)
      results
  in
  Alcotest.(check string) "normalised envelopes md5" golden_results_md5
    (Digest.to_hex (Digest.string (String.concat "\n" envelopes)));
  let capped =
    let options =
      {
        options with
        simpoint_config =
          { options.simpoint_config with Sp_simpoint.Simpoints.sample_cap = 500 };
      }
    in
    let r = Pipeline.run_benchmark ~options (Sp_workloads.Suite.find "557.xz_r") in
    Alcotest.(check bool) "sample cap below the slice count" true
      (r.Pipeline.selection.Pipeline.num_slices > 500);
    r
  in
  Alcotest.(check string) "selection and variance md5" golden_selection_md5
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map selection_fingerprint (results @ [ capped ])))))

let suite =
  [
    Alcotest.test_case "pipeline basics" `Quick test_pipeline_basics;
    Alcotest.test_case "regional mix matches whole" `Quick test_regional_mix_matches_whole;
    Alcotest.test_case "reduced subset" `Quick test_reduced_subset;
    Alcotest.test_case "variance collected" `Quick test_variance_collected;
    Alcotest.test_case "native sample" `Quick test_native_sample;
    Alcotest.test_case "of_points rate aggregation" `Quick test_of_points_rate_aggregation;
    Alcotest.test_case "of_points renormalises" `Quick test_of_points_weight_renormalised;
    Alcotest.test_case "miss rate error" `Quick test_miss_rate_error;
    Alcotest.test_case "table1 renders" `Quick test_table1_renders;
    Alcotest.test_case "table3 renders" `Quick test_table3_renders;
    Alcotest.test_case "table2 + headlines" `Quick test_table2_and_headlines;
    Alcotest.test_case "figure tables render" `Quick test_fig_tables_render;
    Alcotest.test_case "pipeline deterministic" `Quick test_pipeline_deterministic;
    Alcotest.test_case "pinball cache reuse" `Quick test_cache_dir_reuse;
    Alcotest.test_case "profile cache reuse" `Quick test_profile_cache_reuse;
    Alcotest.test_case "golden results" `Quick test_golden_results;
  ]
