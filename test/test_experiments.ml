(* Golden outputs of every registered experiment.

   Each entry of [Experiments.registry] runs in-process over three
   benchmarks at scale 0.02, and the MD5 of its rendered output (the
   bytes [specrepro experiment NAME] prints) is pinned below.
   Experiments with a fixed benchmark set (the Figure 3 sweeps and
   ablations on 623.xalancbmk_s, [table2x]'s 14 workloads) keep it.
   Performance work must leave every digest alone; a deliberate change
   to an experiment's results must re-pin exactly the digests it moves,
   like [test_core.ml]'s golden results.  A registered experiment
   without a digest here fails the test.  [sampling] and [smarts] were
   re-pinned once, when slice boundaries moved between fuel legs and
   each slice's closing instruction was charged to its own slice. *)

open Specrepro

let specs =
  List.map Sp_workloads.Suite.find [ "505.mcf_r"; "641.leela_s"; "519.lbm_r" ]

let golden =
  [
    ("table1", "86fb646bcc4a970a662b61db0a262cc6");
    ("table2", "7314627bcdbd09eb26e1e7f110a51cff");
    ("table2x", "1ba9a572b0c0197b7e0f2f9249f72415");
    ("table3", "8fa1fea5a8a40fa04e9a4e11581ba4c6");
    ("fig3a", "2c3b99d00f35e4ea73399863031cc2d8");
    ("fig3b", "d3ec87b00e45c73f000dc04e427af6b3");
    ("fig4", "ec7be73d99dfc25e93890bf5ac431232");
    ("fig5", "6ffde2d90eaa7f29c21e397550864f96");
    ("fig6", "be771c5549042b2585bd959896effb02");
    ("fig7", "0fa0f57f2668046eff8e0dca63600945");
    ("fig8", "2d9e673e9da2e984c950bf8f7069d864");
    ("fig9", "635aaeedfebc1ea2956f6f05b427d253");
    ("fig10", "418cccd0a220a2b03f8fdf77cd46ad43");
    ("fig12", "eb1dc36801e1b7184eddefc5faa58dfe");
    ("ablation-bic", "4f8ae02f294d7da95a1839fddefb5997");
    ("ablation-proj", "ebc32348eebf0291865dbbcca4bcc625");
    ("ablation-warmup", "400576af157498ee334b865b42c48ad3");
    ("ablation-prefetch", "f66df51cf127d20dfe83be1fc763f5bb");
    ("ablation-roi", "2400ea540c5f2417afcaefc197e15735");
    ("sampling", "b3be87309ae1f8767d9fc76e7dd0465f");
    ("samplers", "b3328784dca73cc54444cab288a39790");
    ("smarts", "548f985fc8d50cc63276052b08a612f0");
    ("vli", "66c1d17085aeb2c8d8a8126c39638c09");
    ("subset", "6e271ebf1c9e1c6395073fa50348b39c");
    ("statcache", "8e25c8bdbb3e5b3844fe932e706012d0");
    ("cpistack", "0312c7470f5529e6e4af0a7029a9122b");
    ("timevary", "214b977f2f8ea59b2c2b5015d0962f8e");
    ("models", "b3b4569f447285c2128f2bc1c2030c2d");
    ("rate", "856b44154a65b0dc57f5a368ef4aedfc");
    ("headlines", "0f522ff49cb15227367a2030fc7d9fa1");
  ]

let options jobs =
  Pipeline.normalize
    { Pipeline.default_options with slices_scale = 0.02; progress = false; jobs }

(* Run [entries] on one shared suite at [jobs]; each result carries the
   output digest and whether the entry used the suite. *)
let run_entries jobs entries =
  let ctx = Experiments.context ~specs (options jobs) in
  List.map
    (fun (e : Experiments.entry) ->
      (* a lazy of its own per entry, so a forced one tells this entry
         used the suite *)
      let suite = lazy (Lazy.force ctx.suite) in
      let outputs = e.run { ctx with suite } in
      let text = String.concat "" (List.map Experiments.render outputs) in
      (e.name, (Digest.to_hex (Digest.string text), Lazy.is_val suite)))
    entries

let sequential = lazy (run_entries 1 Experiments.registry)

let test_goldens () =
  Alcotest.(check (list string))
    "every registered experiment is pinned"
    (List.map (fun (e : Experiments.entry) -> e.name) Experiments.registry)
    (List.map fst golden);
  Alcotest.(check (list (pair string string)))
    "rendered output md5 per experiment" golden
    (List.map (fun (name, (md5, _)) -> (name, md5)) (Lazy.force sequential))

let test_suite_figures_jobs () =
  let suite_wide =
    List.filter_map
      (fun (name, (md5, used_suite)) ->
        if used_suite then Some (name, md5) else None)
      (Lazy.force sequential)
  in
  Alcotest.(check bool) "suite-wide figures found" true
    (List.length suite_wide >= 10);
  let entries =
    List.filter
      (fun (e : Experiments.entry) -> List.mem_assoc e.name suite_wide)
      Experiments.registry
  in
  Alcotest.(check (list (pair string string)))
    "jobs 3 prints what jobs 1 prints" suite_wide
    (List.map (fun (name, (md5, _)) -> (name, md5)) (run_entries 3 entries))

(* [timevary] renders each per-slice CPI series as a 10-row ASCII chart,
   so its digest above cannot see a change to one slice.  The series
   themselves, as float bits, are pinned here: one MD5 per benchmark
   over each slice's [Int64.bits_of_float] in hex. *)
let timevary_golden =
  [
    ("505.mcf_r", "c8f82bfb71e4628943232263e0dfda13");
    ("641.leela_s", "0dbd92889e4f2a8346c91425982401ed");
    ("519.lbm_r", "c7f04cba254baf0bfc4c4a97cf6edf4d");
  ]

let test_timevary_slice_bits () =
  let options = options 1 in
  Alcotest.(check (list (pair string string)))
    "per-slice CPI bits md5" timevary_golden
    (List.map
       (fun (spec : Sp_workloads.Benchspec.t) ->
         let built =
           Sp_workloads.Benchspec.build ~slice_insns:options.slice_insns
             ~slices_scale:options.slices_scale spec
         in
         let prog = built.Sp_workloads.Benchspec.program in
         let cpis =
           Sp_cpu.Slice_timer.cpis ~slice_len:options.slice_insns
             (Sp_cpu.Interval_core.create ~config:options.core_config prog)
             prog
         in
         let hex =
           Array.map
             (fun c -> Printf.sprintf "%016Lx" (Int64.bits_of_float c))
             cpis
         in
         ( spec.Sp_workloads.Benchspec.name,
           Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list hex)))
         ))
       specs)

let suite =
  [
    Alcotest.test_case "registry goldens" `Quick test_goldens;
    Alcotest.test_case "timevary per-slice CPI bits" `Quick
      test_timevary_slice_bits;
    Alcotest.test_case "suite figures jobs-invariant" `Quick
      test_suite_figures_jobs;
  ]
