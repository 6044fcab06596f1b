(* Tests for the extension substrates: TLBs, replacement policies,
   write-backs, prefetching, reuse-distance profiling, systematic
   sampling, PCA, hierarchical clustering, trace I/O, slice timing. *)

open Sp_cache

(* ------------------------------------------------------------------ *)
(* TLB *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create Tlb.dtlb_default in
  Tlb.access tlb 0x1000;
  Tlb.access tlb 0x1008;
  (* same page *)
  Tlb.access tlb 0x5000;
  let s = Tlb.stats tlb in
  Alcotest.(check int) "accesses" 3 s.Tlb.accesses;
  Alcotest.(check int) "misses" 2 s.Tlb.misses;
  Alcotest.(check int) "walks (no L2)" 2 s.Tlb.walks

let test_tlb_second_level () =
  let tlb = Tlb.create ~level2:Tlb.stlb_default Tlb.dtlb_default in
  (* touch 65 distinct pages: one more than the 64-entry first level *)
  for i = 0 to 64 do
    Tlb.access tlb (i * 4096)
  done;
  (* page 0 misses the L1 TLB (fully cycled) but hits the 512-entry L2 *)
  Tlb.access tlb 0;
  let s = Tlb.stats tlb in
  Alcotest.(check int) "walks = compulsory only" 65 s.Tlb.walks;
  Alcotest.(check bool) "L1 miss happened" true (s.Tlb.misses > 65 - 1)

let test_tlb_warm () =
  let tlb = Tlb.create Tlb.dtlb_default in
  Tlb.warm tlb 0x2000;
  let s = Tlb.stats tlb in
  Alcotest.(check int) "warm not counted" 0 s.Tlb.accesses;
  Tlb.access tlb 0x2008;
  Alcotest.(check int) "warm installed" 0 (Tlb.stats tlb).Tlb.misses

(* ------------------------------------------------------------------ *)
(* Cache policies / writebacks / prefetch *)

let tiny_cfg = Config.level ~name:"tiny" ~size_kb:1 ~assoc:2 ~line_bytes:32

let test_fifo_vs_lru () =
  (* sequence in one set: A B A C; under LRU the re-touch protects A,
     under FIFO A is still the oldest and gets evicted *)
  let stride = 16 * 32 in
  let a, b, c = (0, stride, 2 * stride) in
  let run policy =
    let cache = Cache.create ~policy tiny_cfg in
    ignore (Cache.access cache a);
    ignore (Cache.access cache b);
    ignore (Cache.access cache a);
    ignore (Cache.access cache c);
    Cache.access cache a
  in
  Alcotest.(check bool) "LRU keeps A" true (run Cache.Lru);
  Alcotest.(check bool) "FIFO evicts A" false (run Cache.Fifo)

let test_random_policy_bounded () =
  let cache = Cache.create ~policy:Cache.Random ~seed:7 tiny_cfg in
  for i = 0 to 199 do
    ignore (Cache.access cache (i * 32))
  done;
  Alcotest.(check bool) "resident bounded" true
    (Cache.resident_lines cache <= Config.num_lines tiny_cfg);
  Alcotest.(check int) "all counted" 200 (Cache.accesses cache)

let test_writebacks () =
  let cache = Cache.create tiny_cfg in
  let stride = 16 * 32 in
  ignore (Cache.access_rw cache ~write:true 0);
  ignore (Cache.access_rw cache ~write:false stride);
  (* evict the dirty line with two more aliases *)
  ignore (Cache.access_rw cache ~write:false (2 * stride));
  ignore (Cache.access_rw cache ~write:false (3 * stride));
  Alcotest.(check int) "one writeback" 1 (Cache.writebacks cache);
  (* clean evictions do not count *)
  ignore (Cache.access_rw cache ~write:false (4 * stride));
  Alcotest.(check int) "still one" 1 (Cache.writebacks cache)

let test_dirty_sticks_through_lru_rotation () =
  let cache = Cache.create tiny_cfg in
  let stride = 16 * 32 in
  ignore (Cache.access_rw cache ~write:true 0);
  ignore (Cache.access_rw cache ~write:false stride);
  ignore (Cache.access_rw cache ~write:false 0);
  (* rotate the dirty line to MRU *)
  ignore (Cache.access_rw cache ~write:false (2 * stride));
  (* evicts the clean line *)
  ignore (Cache.access_rw cache ~write:false (3 * stride));
  (* evicts dirty line *)
  Alcotest.(check int) "dirty bit survived rotation" 1 (Cache.writebacks cache)

let small_hierarchy ?policy ?next_line_prefetch () =
  Hierarchy.create ?policy ?next_line_prefetch
    {
      Config.l1i = Config.level ~name:"i" ~size_kb:1 ~assoc:2 ~line_bytes:32;
      l1d = Config.level ~name:"d" ~size_kb:1 ~assoc:2 ~line_bytes:32;
      l2 = Config.level ~name:"2" ~size_kb:2 ~assoc:1 ~line_bytes:32;
      l3 = Config.level ~name:"3" ~size_kb:4 ~assoc:1 ~line_bytes:32;
    }

let test_prefetch () =
  let h = small_hierarchy ~next_line_prefetch:true () in
  Hierarchy.read h 0x8000;
  (* L2-missing access: next line prefetched into L2/L3 *)
  Alcotest.(check int) "prefetch issued" 1 (Hierarchy.prefetches h);
  Alcotest.(check bool) "next line now in L2 or L3" true
    (match Hierarchy.read_where h 0x8020 with
    | Hierarchy.L2 | Hierarchy.L3 -> true
    | Hierarchy.L1 | Hierarchy.Memory -> false);
  let off = small_hierarchy () in
  Hierarchy.read off 0x8000;
  Alcotest.(check int) "disabled by default" 0 (Hierarchy.prefetches off);
  Alcotest.(check bool) "no prefetch -> memory" true
    (Hierarchy.read_where off 0x8020 = Hierarchy.Memory)

let test_hierarchy_writebacks () =
  let h = small_hierarchy () in
  Hierarchy.write h 0;
  let stride = 16 * 32 in
  Hierarchy.read h stride;
  Hierarchy.read h (2 * stride);
  Hierarchy.read h (3 * stride);
  let l1d, _, _ = Hierarchy.writebacks h in
  Alcotest.(check int) "L1D writeback counted" 1 l1d

(* ------------------------------------------------------------------ *)
(* Reuse-distance profiling *)

let test_reuse_basics () =
  let r = Reuse.create ~line_bytes:64 () in
  (* A B A : A's reuse distance is 1 distinct line *)
  Reuse.access r 0;
  Reuse.access r 64;
  Reuse.access r 0;
  Alcotest.(check int) "total" 3 (Reuse.total r);
  Alcotest.(check int) "cold" 2 (Reuse.cold r);
  Alcotest.(check (float 1e-9)) "everything within 1 line" 1.0 (Reuse.cdf_at r 1)

let test_reuse_distances () =
  let r = Reuse.create ~line_bytes:64 () in
  (* touch lines 0..7, then re-touch line 0: distance 7 *)
  for i = 0 to 7 do
    Reuse.access r (i * 64)
  done;
  Reuse.access r 0;
  Alcotest.(check (float 1e-9)) "not within 4" 0.0 (Reuse.cdf_at r 4);
  Alcotest.(check (float 1e-9)) "within 8" 1.0 (Reuse.cdf_at r 8)

let test_reuse_same_line_spatial () =
  let r = Reuse.create ~line_bytes:64 () in
  Reuse.access r 0;
  Reuse.access r 8;
  (* same line: distance ~0 -> bucket 1 *)
  Alcotest.(check int) "one cold only" 1 (Reuse.cold r);
  Alcotest.(check (float 1e-9)) "spatial hit close" 1.0 (Reuse.cdf_at r 1)

let test_reuse_miss_estimate_matches_lru () =
  (* cyclic sweep over N lines: a fully-associative LRU cache of >= N
     lines hits everything after the first pass; < N lines misses all *)
  let n = 32 in
  let r = Reuse.create ~line_bytes:64 () in
  for _pass = 1 to 8 do
    for i = 0 to n - 1 do
      Reuse.access r (i * 64)
    done
  done;
  let big = Reuse.miss_rate_estimate r ~cache_lines:64 in
  let small = Reuse.miss_rate_estimate r ~cache_lines:8 in
  Alcotest.(check bool) "big cache ~ cold only" true (big < 0.2);
  Alcotest.(check bool) "small cache misses everything" true (small > 0.9)

let test_reuse_cap () =
  let r = Reuse.create ~line_bytes:64 ~max_accesses:10 () in
  for i = 0 to 99 do
    Reuse.access r (i * 64)
  done;
  Alcotest.(check int) "capped total" 10 (Reuse.total r);
  Alcotest.(check bool) "flagged" true (Reuse.capped r)

(* ------------------------------------------------------------------ *)
(* Systematic sampling *)

let test_systematic_design () =
  let d = Sp_simpoint.Systematic.design_for_budget ~num_slices:1000 ~budget:20 in
  let idx = Sp_simpoint.Systematic.sample_indices d ~num_slices:1000 in
  Alcotest.(check bool) "about the budget" true
    (Array.length idx >= 18 && Array.length idx <= 22);
  Array.iter
    (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 1000))
    idx;
  (* uniform spacing *)
  for i = 1 to Array.length idx - 1 do
    Alcotest.(check int) "spacing" d.Sp_simpoint.Systematic.period
      (idx.(i) - idx.(i - 1))
  done

let test_systematic_estimate () =
  let e = Sp_simpoint.Systematic.estimate [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 e.Sp_simpoint.Systematic.mean;
  Alcotest.(check bool) "CI positive" true (e.Sp_simpoint.Systematic.ci95_half > 0.0);
  (* constant samples: zero CI *)
  let c = Sp_simpoint.Systematic.estimate [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "constant CI" 0.0 c.Sp_simpoint.Systematic.ci95_half

let test_systematic_ci_shrinks () =
  let rng = Sp_util.Rng.create 11 in
  let sample n = Array.init n (fun _ -> Sp_util.Rng.gaussian rng ~mu:2.0 ~sigma:0.5) in
  let small = Sp_simpoint.Systematic.estimate (sample 20) in
  let large = Sp_simpoint.Systematic.estimate (sample 2000) in
  Alcotest.(check bool) "more samples, tighter CI" true
    (large.Sp_simpoint.Systematic.ci95_half < small.Sp_simpoint.Systematic.ci95_half)

let test_required_samples () =
  Alcotest.(check int) "SMARTS rule" 426
    (Sp_simpoint.Systematic.required_samples ~cv:0.1 ~target_rel_ci:0.0095);
  Alcotest.(check bool) "monotone in cv" true
    (Sp_simpoint.Systematic.required_samples ~cv:0.5 ~target_rel_ci:0.03
    > Sp_simpoint.Systematic.required_samples ~cv:0.1 ~target_rel_ci:0.03)

(* ------------------------------------------------------------------ *)
(* PCA *)

let test_pca_explained () =
  (* a rank-ish structure: y = 2x + tiny noise; z independent but small *)
  let rng = Sp_util.Rng.create 3 in
  let data =
    Array.init 200 (fun _ ->
        let x = Sp_util.Rng.gaussian rng ~mu:0.0 ~sigma:1.0 in
        [| x; 2.0 *. x +. Sp_util.Rng.gaussian rng ~mu:0.0 ~sigma:0.01 |])
  in
  let p = Sp_simpoint.Pca.fit data in
  Alcotest.(check bool) "PC1 dominates" true (p.Sp_simpoint.Pca.explained.(0) > 0.95);
  let total = Array.fold_left ( +. ) 0.0 p.Sp_simpoint.Pca.explained in
  Alcotest.(check bool) "explained sums to ~1" true (Float.abs (total -. 1.0) < 1e-6)

let test_pca_standardize () =
  let z = Sp_simpoint.Pca.standardize [| [| 1.0; 5.0 |]; [| 3.0; 5.0 |] |] in
  Alcotest.(check (float 1e-9)) "z mean 0" 0.0 (z.(0).(0) +. z.(1).(0));
  Alcotest.(check (float 1e-9)) "constant column to 0" 0.0 z.(0).(1)

let test_jacobi () =
  let m = [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let eigenvalues, _ = Sp_simpoint.Pca.jacobi_eigen m in
  Array.sort compare eigenvalues;
  Alcotest.(check (float 1e-9)) "lambda1" 1.0 eigenvalues.(0);
  Alcotest.(check (float 1e-9)) "lambda2" 3.0 eigenvalues.(1)

(* ------------------------------------------------------------------ *)
(* Hierarchical clustering *)

let test_hcluster () =
  (* three tight groups on a line *)
  let points =
    [| [| 0.0 |]; [| 0.1 |]; [| 10.0 |]; [| 10.1 |]; [| 20.0 |]; [| 20.1 |] |]
  in
  let steps = Sp_simpoint.Hcluster.linkage points in
  Alcotest.(check int) "n-1 merges" 5 (List.length steps);
  let assignment = Sp_simpoint.Hcluster.cut ~n:6 steps ~k:3 in
  Alcotest.(check int) "pairs together 01" assignment.(0) assignment.(1);
  Alcotest.(check int) "pairs together 23" assignment.(2) assignment.(3);
  Alcotest.(check int) "pairs together 45" assignment.(4) assignment.(5);
  Alcotest.(check bool) "groups distinct" true
    (assignment.(0) <> assignment.(2) && assignment.(2) <> assignment.(4));
  let reps = Sp_simpoint.Hcluster.medoids points assignment in
  Alcotest.(check int) "three representatives" 3 (Array.length reps);
  Array.iteri
    (fun c rep ->
      Alcotest.(check int) "rep in own cluster" c assignment.(rep))
    reps

let test_hcluster_cut_bounds () =
  let points = [| [| 0.0 |]; [| 1.0 |] |] in
  let steps = Sp_simpoint.Hcluster.linkage points in
  let one = Sp_simpoint.Hcluster.cut ~n:2 steps ~k:1 in
  Alcotest.(check int) "k=1 merges all" one.(0) one.(1);
  let all = Sp_simpoint.Hcluster.cut ~n:2 steps ~k:10 in
  Alcotest.(check bool) "k clamped to n" true (all.(0) <> all.(1))

(* ------------------------------------------------------------------ *)
(* Trace I/O *)

let test_trace_roundtrip () =
  let open Sp_vm in
  let a = Asm.create () in
  Asm.li a 1 0x40;
  Asm.load a 2 1 0;
  Asm.store a 2 1 8;
  let target = Asm.new_label a in
  Asm.branch a Sp_isa.Isa.Eq 1 1 target;
  Asm.place a target;
  Asm.halt a;
  let prog = Asm.assemble a in
  let path = Filename.temp_file "trace" ".txt" in
  let oc = open_out path in
  let w = Sp_pin.Trace_io.Writer.create oc in
  ignore
    (Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Trace_io.Writer.hooks w prog ] prog);
  close_out oc;
  let ic = open_in path in
  let events = Sp_pin.Trace_io.Reader.read_all ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "events written" (Sp_pin.Trace_io.Writer.events_written w)
    (List.length events);
  let reads =
    List.filter (function Sp_pin.Trace_io.Read _ -> true | _ -> false) events
  in
  let writes =
    List.filter (function Sp_pin.Trace_io.Write 0x48 -> true | _ -> false) events
  in
  Alcotest.(check int) "one read" 1 (List.length reads);
  Alcotest.(check int) "write addr preserved" 1 (List.length writes);
  Alcotest.(check bool) "branch taken recorded" true
    (List.exists
       (function Sp_pin.Trace_io.Branch (_, true) -> true | _ -> false)
       events)

let test_trace_limit () =
  let open Sp_vm in
  let a = Asm.create () in
  Asm.li a 1 100;
  let top = Asm.here a in
  Asm.alui a Sub 1 1 1;
  Asm.branch a Gt 1 15 top;
  Asm.halt a;
  let prog = Asm.assemble a in
  let path = Filename.temp_file "trace" ".txt" in
  let oc = open_out path in
  let w = Sp_pin.Trace_io.Writer.create ~limit:10 oc in
  ignore
    (Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Trace_io.Writer.hooks w prog ] prog);
  close_out oc;
  Sys.remove path;
  Alcotest.(check int) "limited" 10 (Sp_pin.Trace_io.Writer.events_written w);
  Alcotest.(check bool) "truncated flag" true (Sp_pin.Trace_io.Writer.truncated w)

(* The byte stream itself: [specrepro trace 505.mcf_r --scale 0.02
   --limit 300000] writes exactly these bytes.  The event counts above
   do not see a reordered or reformatted line; this digest does. *)
let test_trace_golden_bytes () =
  let spec = Sp_workloads.Suite.find "505.mcf_r" in
  let built =
    Sp_workloads.Benchspec.build
      ~slice_insns:Specrepro.Pipeline.default_options.slice_insns
      ~slices_scale:0.02 spec
  in
  let prog = built.Sp_workloads.Benchspec.program in
  let path = Filename.temp_file "trace" ".txt" in
  let oc = open_out_bin path in
  let w = Sp_pin.Trace_io.Writer.create ~limit:300_000 oc in
  ignore
    (Sp_pin.Pin.run_fresh ~tools:[ Sp_pin.Trace_io.Writer.hooks w prog ] prog);
  close_out oc;
  let md5 = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  Alcotest.(check bool) "truncated" true (Sp_pin.Trace_io.Writer.truncated w);
  Alcotest.(check string) "trace md5" "1ff0bdfa217706e0d8937a6ad2303d6f" md5

let test_trace_malformed () =
  let path = Filename.temp_file "trace" ".txt" in
  let oc = open_out path in
  output_string oc "X nonsense\n";
  close_out oc;
  let ic = open_in path in
  (try
     ignore (Sp_pin.Trace_io.Reader.read_all ic);
     Alcotest.fail "expected Failure"
   with Failure _ -> ());
  close_in ic;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Slice timer *)

let test_slice_timer () =
  let open Sp_vm in
  let a = Asm.create () in
  Asm.li a 1 5000;
  let top = Asm.here a in
  Asm.alui a Sub 1 1 1;
  Asm.branch a Gt 1 15 top;
  Asm.halt a;
  let prog = Asm.assemble a in
  let core = Sp_cpu.Interval_core.create ~config:Sp_cpu.Core_config.i7_3770_sim prog in
  let cpis = Sp_cpu.Slice_timer.cpis ~slice_len:1000 core prog in
  Alcotest.(check int) "10 slices" 10 (Array.length cpis);
  (* mid slices of a pure loop all cost the same *)
  Alcotest.(check (float 1e-6)) "steady slices equal" cpis.(3) cpis.(6);
  (* per-slice CPIs average (weighted) to the core's CPI *)
  let mean = Sp_util.Stats.mean cpis in
  Alcotest.(check bool) "mean close to whole CPI" true
    (Float.abs (mean -. Sp_cpu.Interval_core.cpi core) < 0.05)

let suite =
  [
    Alcotest.test_case "tlb hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb second level" `Quick test_tlb_second_level;
    Alcotest.test_case "tlb warm" `Quick test_tlb_warm;
    Alcotest.test_case "fifo vs lru" `Quick test_fifo_vs_lru;
    Alcotest.test_case "random policy" `Quick test_random_policy_bounded;
    Alcotest.test_case "writebacks" `Quick test_writebacks;
    Alcotest.test_case "dirty bit rotation" `Quick test_dirty_sticks_through_lru_rotation;
    Alcotest.test_case "prefetch" `Quick test_prefetch;
    Alcotest.test_case "hierarchy writebacks" `Quick test_hierarchy_writebacks;
    Alcotest.test_case "reuse basics" `Quick test_reuse_basics;
    Alcotest.test_case "reuse distances" `Quick test_reuse_distances;
    Alcotest.test_case "reuse same line" `Quick test_reuse_same_line_spatial;
    Alcotest.test_case "reuse vs LRU" `Quick test_reuse_miss_estimate_matches_lru;
    Alcotest.test_case "reuse cap" `Quick test_reuse_cap;
    Alcotest.test_case "systematic design" `Quick test_systematic_design;
    Alcotest.test_case "systematic estimate" `Quick test_systematic_estimate;
    Alcotest.test_case "systematic CI shrinks" `Quick test_systematic_ci_shrinks;
    Alcotest.test_case "required samples" `Quick test_required_samples;
    Alcotest.test_case "pca explained" `Quick test_pca_explained;
    Alcotest.test_case "pca standardize" `Quick test_pca_standardize;
    Alcotest.test_case "jacobi eigen" `Quick test_jacobi;
    Alcotest.test_case "hcluster" `Quick test_hcluster;
    Alcotest.test_case "hcluster cut bounds" `Quick test_hcluster_cut_bounds;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace limit" `Quick test_trace_limit;
    Alcotest.test_case "trace malformed" `Quick test_trace_malformed;
    Alcotest.test_case "trace golden bytes" `Quick test_trace_golden_bytes;
    Alcotest.test_case "slice timer" `Quick test_slice_timer;
  ]
