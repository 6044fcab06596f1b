(* Tests for the artifact hot path: snapshot copies, the shared
   in-memory decoded-artifact cache, and the speculative BIC probes in
   point selection.  Everything here checks isolation or bit-identity
   against the sequential behaviour. *)

open Specrepro

let page_words = Sp_vm.Memory.page_bytes / Sp_vm.Memory.word_bytes

(* word-aligned byte address of word [w] *)
let addr w = w * Sp_vm.Memory.word_bytes

(* a memory with several int and float pages populated *)
let populated () =
  let m = Sp_vm.Memory.create () in
  for w = 0 to (3 * page_words) + 7 do
    Sp_vm.Memory.store m (addr w) ((w * 2654435761) lxor 0x5DEECE66D);
    Sp_vm.Memory.storef m (addr w) (float_of_int w *. 1.25)
  done;
  m

(* ------------------------------------------------------------------ *)
(* Copy isolation *)

let test_copy_isolation () =
  let m = populated () in
  let c1 = Sp_vm.Memory.copy m in
  let c2 = Sp_vm.Memory.copy m in
  let before_m = Sp_vm.Memory.load m (addr 5) in
  let before_f = Sp_vm.Memory.loadf m (addr 5) in
  (* a copy's writes — to a copied page and to a fresh page — must not
     leak into the source or a sibling copy *)
  Sp_vm.Memory.store c1 (addr 5) 12345;
  Sp_vm.Memory.storef c1 (addr 5) 9.75;
  Sp_vm.Memory.store c1 (addr (100 * page_words)) 777;
  Alcotest.(check int) "c1 sees its int write" 12345
    (Sp_vm.Memory.load c1 (addr 5));
  Alcotest.(check (float 0.0)) "c1 sees its float write" 9.75
    (Sp_vm.Memory.loadf c1 (addr 5));
  Alcotest.(check int) "source unaffected" before_m
    (Sp_vm.Memory.load m (addr 5));
  Alcotest.(check (float 0.0)) "source float unaffected" before_f
    (Sp_vm.Memory.loadf m (addr 5));
  Alcotest.(check int) "sibling unaffected" before_m
    (Sp_vm.Memory.load c2 (addr 5));
  Alcotest.(check int) "fresh page private" 0
    (Sp_vm.Memory.load c2 (addr (100 * page_words)));
  (* nor may the source's later writes reach the copies *)
  Sp_vm.Memory.store m (addr 6) (-42);
  Alcotest.(check bool) "copy misses source write" true
    (Sp_vm.Memory.load c2 (addr 6) <> -42)

let test_copy_tlb_no_writethrough () =
  (* the source's TLB is warm on every page it stored to, and the copy
     starts cold: a load warms the copy's TLB on its own page, so a
     store right after must land there and never in the source's *)
  let m = populated () in
  let c = Sp_vm.Memory.copy m in
  let before = Sp_vm.Memory.load m (addr 9) in
  ignore (Sp_vm.Memory.load c (addr 9)); (* warm c's TLB on the page *)
  Sp_vm.Memory.store c (addr 9) 31337;
  Alcotest.(check int) "copy write landed" 31337
    (Sp_vm.Memory.load c (addr 9));
  Alcotest.(check int) "source page intact" before
    (Sp_vm.Memory.load m (addr 9));
  (* same on the float view *)
  let beforef = Sp_vm.Memory.loadf m (addr 9) in
  ignore (Sp_vm.Memory.loadf c (addr 9));
  Sp_vm.Memory.storef c (addr 9) 2.5;
  Alcotest.(check (float 0.0)) "float source page intact" beforef
    (Sp_vm.Memory.loadf m (addr 9))

(* ------------------------------------------------------------------ *)
(* serialisation byte-identity: a copy encodes exactly like its source,
   before and after the same writes *)

let encode m =
  let b = Buffer.create 4096 in
  Sp_vm.Memory.write b m;
  Buffer.contents b

let test_copy_serialise_identical () =
  let m = populated () in
  let golden = encode m in
  let c = Sp_vm.Memory.copy m in
  Alcotest.(check bool) "pristine copy encodes identically" true
    (encode c = golden);
  (* identical mutations: overwrite copied pages, touch new ones *)
  let mutate mm =
    Sp_vm.Memory.store mm (addr 3) 11;
    Sp_vm.Memory.store mm (addr (page_words + 1)) 22;
    Sp_vm.Memory.store mm (addr (50 * page_words)) 33;
    Sp_vm.Memory.storef mm (addr 3) 4.5;
    Sp_vm.Memory.storef mm (addr (60 * page_words)) 6.5
  in
  mutate c;
  Alcotest.(check bool) "source still pristine" true (encode m = golden);
  mutate m;
  Alcotest.(check bool) "mutated copy = mutated source" true
    (encode c = encode m);
  Alcotest.(check int) "same footprint" (Sp_vm.Memory.footprint_bytes m)
    (Sp_vm.Memory.footprint_bytes c)

let test_snapshot_restore_isolated () =
  let mach = Sp_vm.Interp.create ~entry:0 () in
  for w = 0 to (2 * page_words) + 3 do
    Sp_vm.Memory.store mach.Sp_vm.Interp.mem (addr w) (w * 7)
  done;
  mach.Sp_vm.Interp.regs.(3) <- 99;
  let snap = Sp_vm.Snapshot.capture mach in
  let golden = encode mach.Sp_vm.Interp.mem in
  let a = Sp_vm.Snapshot.restore snap in
  let b = Sp_vm.Snapshot.restore snap in
  Sp_vm.Memory.store a.Sp_vm.Interp.mem (addr 2) (-1);
  Alcotest.(check int) "sibling restore unaffected" 14
    (Sp_vm.Memory.load b.Sp_vm.Interp.mem (addr 2));
  (* capturing after the source kept running must not dirty the old
     snapshot, and restores after mutation still match the original *)
  Sp_vm.Memory.store mach.Sp_vm.Interp.mem (addr 2) (-2);
  let c = Sp_vm.Snapshot.restore snap in
  Alcotest.(check bool) "late restore encodes the captured image" true
    (encode c.Sp_vm.Interp.mem = golden);
  Alcotest.(check int) "registers copied" 99 c.Sp_vm.Interp.regs.(3)

(* [vm.snapshots] counts captures only: the runs around a capture and
   a restore of it add nothing, and the capture holds the machine's
   whole image at that point *)
let test_snapshot_counter () =
  let a = Sp_vm.Asm.create ~name:"two-pages" () in
  Sp_vm.Asm.li a 1 0;
  Sp_vm.Asm.li a 6 Sp_vm.Memory.page_bytes;
  Sp_vm.Asm.loop_down a ~counter:5 ~from:1_000 (fun () ->
      Sp_vm.Asm.store a 2 1 0;
      Sp_vm.Asm.store a 2 6 0);
  Sp_vm.Asm.halt a;
  let prog = Sp_vm.Asm.assemble a in
  let mach = Sp_vm.Interp.create ~entry:prog.Sp_vm.Program.entry () in
  ignore (Sp_vm.Interp.run ~fuel:100 prog mach);
  Sp_obs.Metrics.reset ();
  let snap = Sp_vm.Snapshot.capture mach in
  ignore (Sp_vm.Interp.run ~fuel:100 prog mach);
  ignore (Sp_vm.Interp.run ~fuel:100 prog (Sp_vm.Snapshot.restore snap));
  let stable = Sp_obs.Metrics.stable_snapshot () in
  Sp_obs.Metrics.reset ();
  Alcotest.(check (option (float 0.0))) "one capture" (Some 1.0)
    (Sp_obs.Metrics.counter_value stable "vm.snapshots");
  Alcotest.(check int) "both written pages captured"
    (2 * Sp_vm.Memory.page_bytes)
    (Sp_vm.Snapshot.mem_bytes snap)

(* A Regional Pinball with a non-empty image, decoded once and shared
   the way a mem-cached artifact is: replays from several domains at
   once each restore their own copy, so every one equals a sequential
   replay and the shared value's encoding never changes.  The program
   fills four int and four float pages, then reads and rewrites them
   with recorded inputs mixed in; the region starts inside that second
   phase, so its replay depends on the captured image. *)
let image_program () =
  let a = Sp_vm.Asm.create ~name:"image" () in
  let stride = 16 * Sp_vm.Memory.word_bytes in
  let iters = 4 * Sp_vm.Memory.page_bytes / stride in
  Sp_vm.Asm.li a 1 0;
  Sp_vm.Asm.loop_down a ~counter:5 ~from:iters (fun () ->
      Sp_vm.Asm.store a 5 1 0;
      Sp_vm.Asm.instr a (Sp_isa.Isa.Cvtif (1, 5));
      Sp_vm.Asm.fstore a 1 1 0;
      Sp_vm.Asm.alui a Sp_isa.Isa.Add 1 1 stride);
  Sp_vm.Asm.li a 1 0;
  Sp_vm.Asm.loop_down a ~counter:5 ~from:iters (fun () ->
      Sp_vm.Asm.sys a 0 3;
      Sp_vm.Asm.load a 4 1 0;
      Sp_vm.Asm.alu a Sp_isa.Isa.Add 4 4 3;
      Sp_vm.Asm.store a 4 1 8;
      Sp_vm.Asm.fload a 2 1 0;
      Sp_vm.Asm.falu a Sp_isa.Isa.Fadd 2 2 2;
      Sp_vm.Asm.fstore a 2 1 8;
      Sp_vm.Asm.alui a Sp_isa.Isa.Add 1 1 stride);
  Sp_vm.Asm.halt a;
  Sp_vm.Asm.assemble a

(* the cold regional tool set at the pipeline's configurations *)
let replay_region (pb : Sp_pinball.Pinball.t) =
  let o = Pipeline.default_options in
  let prog = pb.Sp_pinball.Pinball.program in
  let mixt = Sp_pin.Ldstmix.create prog in
  let cache =
    Sp_pin.Allcache_tool.create ~config:o.cache_config
      ~prefetch:o.next_line_prefetch prog
  in
  let core = Sp_cpu.Interval_core.create ~config:o.core_config prog in
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
  let m = r.Sp_pinball.Replayer.machine in
  ( r.Sp_pinball.Replayer.retired,
    Sp_pin.Ldstmix.mix mixt,
    Sp_pin.Allcache_tool.stats cache,
    Int64.bits_of_float (Sp_cpu.Interval_core.cpi core),
    (Array.to_list m.Sp_vm.Interp.regs, encode m.Sp_vm.Interp.mem) )

let test_decoded_region_concurrent_replays () =
  let whole =
    Sp_pinball.Logger.log_whole ~benchmark:"image" (image_program ())
  in
  let total = whole.Sp_pinball.Logger.total_insns in
  let point =
    {
      Sp_simpoint.Simpoints.cluster = 0;
      slice_index = 0;
      start_icount = total / 2;
      length = total / 4;
      weight = 1.0;
    }
  in
  let captured = (Sp_pinball.Logger.capture_regions whole [| point |]).(0) in
  let bytes = Sp_pinball.Store.encode captured in
  let shared =
    match Sp_pinball.Store.of_bytes bytes with
    | Ok pb -> pb
    | Error e -> Alcotest.fail (Sp_pinball.Store.error_message e)
  in
  Alcotest.(check bool) "image spans eight pages" true
    (Sp_vm.Snapshot.mem_bytes shared.Sp_pinball.Pinball.snapshot
    >= 8 * Sp_vm.Memory.page_bytes);
  let seq = replay_region shared in
  let retired, _, _, _, _ = seq in
  Alcotest.(check int) "sequential replay runs the region" point.length
    retired;
  let par =
    Sp_util.Pool.parallel_map ~jobs:4
      (fun () -> replay_region shared)
      (Array.make 8 ())
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "concurrent replay %d = sequential" i)
        true (r = seq))
    par;
  Alcotest.(check bool) "shared value encodes unchanged" true
    (Sp_pinball.Store.encode shared = bytes)

(* ------------------------------------------------------------------ *)
(* Mem_cache unit behaviour *)

let mib = 1024 * 1024

let test_mem_cache_disabled () =
  let pool = Sp_pinball.Mem_cache.create_pool () in
  let c = Sp_pinball.Mem_cache.create pool in
  Sp_pinball.Mem_cache.add c "k" ~bytes:10 "v";
  Alcotest.(check (option string)) "budget 0: adds drop" None
    (Sp_pinball.Mem_cache.find c "k");
  Sp_pinball.Mem_cache.set_budget_mb pool 1;
  Sp_pinball.Mem_cache.add c "k" ~bytes:10 "v";
  Alcotest.(check (option string)) "enabled: hit" (Some "v")
    (Sp_pinball.Mem_cache.find c "k");
  Sp_pinball.Mem_cache.set_budget_mb pool 0;
  Alcotest.(check (option string)) "re-disabled: finds miss" None
    (Sp_pinball.Mem_cache.find c "k")

let test_mem_cache_lru_eviction () =
  let pool = Sp_pinball.Mem_cache.create_pool () in
  Sp_pinball.Mem_cache.set_budget_mb pool 1;
  let c = Sp_pinball.Mem_cache.create pool in
  let chunk = 400 * 1024 in
  Sp_pinball.Mem_cache.add c "a" ~bytes:chunk "A";
  Sp_pinball.Mem_cache.add c "b" ~bytes:chunk "B";
  (* a third 400K entry overflows the 1 MiB budget: the LRU entry (a)
     goes *)
  Sp_pinball.Mem_cache.add c "c" ~bytes:chunk "C";
  Alcotest.(check (option string)) "LRU evicted" None
    (Sp_pinball.Mem_cache.find c "a");
  Alcotest.(check (option string)) "b kept" (Some "B")
    (Sp_pinball.Mem_cache.find c "b");
  (* the find above refreshed b, so the next eviction takes c *)
  Sp_pinball.Mem_cache.add c "d" ~bytes:chunk "D";
  Alcotest.(check (option string)) "recency respected" (Some "B")
    (Sp_pinball.Mem_cache.find c "b");
  Alcotest.(check (option string)) "stale entry evicted" None
    (Sp_pinball.Mem_cache.find c "c")

let test_mem_cache_pool_shared_budget () =
  (* two differently-typed members draw on one budget; eviction is
     LRU across the whole pool *)
  let pool = Sp_pinball.Mem_cache.create_pool () in
  Sp_pinball.Mem_cache.set_budget_mb pool 1;
  let strings = Sp_pinball.Mem_cache.create pool in
  let ints : int Sp_pinball.Mem_cache.t = Sp_pinball.Mem_cache.create pool in
  let chunk = 400 * 1024 in
  Sp_pinball.Mem_cache.add strings "s1" ~bytes:chunk "S1";
  Sp_pinball.Mem_cache.add ints "i1" ~bytes:chunk 1;
  Sp_pinball.Mem_cache.add ints "i2" ~bytes:chunk 2;
  Alcotest.(check (option string)) "cross-member eviction" None
    (Sp_pinball.Mem_cache.find strings "s1");
  Alcotest.(check (option int)) "other member survives" (Some 1)
    (Sp_pinball.Mem_cache.find ints "i1");
  (* oversized entries are dropped silently, evicting nothing *)
  Sp_pinball.Mem_cache.add strings "huge" ~bytes:(2 * mib) "H";
  Alcotest.(check (option string)) "oversized dropped" None
    (Sp_pinball.Mem_cache.find strings "huge");
  Alcotest.(check (option int)) "nothing evicted for it" (Some 2)
    (Sp_pinball.Mem_cache.find ints "i2");
  (* clear releases the member's bytes back to the pool *)
  Sp_pinball.Mem_cache.clear ints;
  Alcotest.(check (option int)) "cleared" None
    (Sp_pinball.Mem_cache.find ints "i1");
  Sp_pinball.Mem_cache.add strings "s2" ~bytes:(2 * chunk) "S2";
  Alcotest.(check (option string)) "freed budget reusable" (Some "S2")
    (Sp_pinball.Mem_cache.find strings "s2")

let test_mem_cache_replace () =
  let pool = Sp_pinball.Mem_cache.create_pool () in
  Sp_pinball.Mem_cache.set_budget_mb pool 1;
  let c = Sp_pinball.Mem_cache.create pool in
  (* re-adding a key replaces value and charge rather than double
     counting: two replacements at ~budget-size would otherwise
     overflow the pool and evict the entry itself *)
  Sp_pinball.Mem_cache.add c "k" ~bytes:(600 * 1024) "old";
  Sp_pinball.Mem_cache.add c "k" ~bytes:(600 * 1024) "new";
  Alcotest.(check (option string)) "replaced" (Some "new")
    (Sp_pinball.Mem_cache.find c "k")

(* ------------------------------------------------------------------ *)
(* pipeline parity: jobs 1 vs 4 with disk caches + mem cache live *)

let temp_dir () =
  let d = Filename.temp_file "spcowmem" "" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let stable_counters () =
  Sp_obs.Metrics.stable_snapshot ()
  |> List.filter_map (fun (s : Sp_obs.Metrics.sample) ->
         match s.Sp_obs.Metrics.value with
         | Sp_obs.Metrics.Counter_value v -> Some (s.Sp_obs.Metrics.name, v)
         | _ -> None)

let test_pipeline_jobs_parity_with_mem_cache () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = Sp_workloads.Suite.find "648.exchange2_s" in
  let options jobs =
    {
      Pipeline.default_options with
      slices_scale = 0.05;
      progress = false;
      collect_variance = false;
      pinball_cache = Some dir;
      profile_cache = Some dir;
      mem_cache_mb = 64;
      jobs;
    }
  in
  let fingerprint (r : Pipeline.bench_result) =
    ( r.Pipeline.whole_insns,
      r.Pipeline.selection.chosen_k,
      Array.map
        (fun (p : Sp_simpoint.Simpoints.point) -> (p.slice_index, p.weight))
        r.Pipeline.selection.points,
      (Pipeline.regional r).Runstats.cpi,
      (Pipeline.warmup_regional r).Runstats.l3_miss )
  in
  (* cold run populates the disk caches *)
  let cold = fingerprint (Pipeline.run_benchmark ~options:(options 1) spec) in
  (* warm runs from a cold mem cache: identical results and identical
     stable metrics at any job count *)
  let warm jobs =
    Sp_pinball.Artifact_cache.clear_mem ();
    Sp_pinball.Profile_store.clear_mem ();
    Sp_obs.Metrics.reset ();
    let r = Pipeline.run_benchmark ~options:(options jobs) spec in
    (fingerprint r, stable_counters ())
  in
  let fp1, stable1 = warm 1 in
  let fp4, stable4 = warm 4 in
  Alcotest.(check bool) "warm jobs=1 matches cold" true (fp1 = cold);
  Alcotest.(check bool) "results bit-identical jobs 1 vs 4" true (fp1 = fp4);
  Alcotest.(check bool) "stable metrics identical jobs 1 vs 4" true
    (stable1 = stable4);
  (* a second warm run in the same process is served from memory *)
  Sp_obs.Metrics.reset ();
  let fp_mem = fingerprint (Pipeline.run_benchmark ~options:(options 4) spec) in
  Alcotest.(check bool) "mem-cache run bit-identical" true (fp_mem = cold);
  let hits =
    Sp_obs.Metrics.counter_value (Sp_obs.Metrics.snapshot ())
      "pbcache.mem_hits"
  in
  Alcotest.(check bool) "mem cache actually hit" true
    (match hits with Some h -> h > 0.0 | None -> false);
  Sp_obs.Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* speculative BIC probes: selection output is bit-identical at any
   job count even though jobs>1 precomputes fits the search may never
   demand *)

let test_speculative_select_parity () =
  let rng = Sp_util.Rng.create 23 in
  let slices =
    Array.init 120 (fun i ->
        let p = i mod 4 in
        let jitter b = max 1 (b + Sp_util.Rng.int rng 5) in
        {
          Sp_pin.Bbv_tool.index = i;
          start_icount = i * 100;
          length = 100;
          bbv =
            [|
              ((10 * p), jitter 60);
              ((10 * p) + 1, jitter 30);
              ((10 * p) + 2, jitter 10);
            |];
        })
  in
  let select jobs =
    Sp_simpoint.Simpoints.select
      ~config:{ Sp_simpoint.Simpoints.default_config with jobs }
      ~slice_len:100 slices
  in
  let seq = select 1 in
  let par = select 4 in
  Alcotest.(check int) "chosen_k identical" seq.Sp_simpoint.Simpoints.chosen_k
    par.Sp_simpoint.Simpoints.chosen_k;
  Alcotest.(check bool) "points identical" true
    (seq.Sp_simpoint.Simpoints.points = par.Sp_simpoint.Simpoints.points);
  Alcotest.(check bool) "assignment identical" true
    (seq.Sp_simpoint.Simpoints.assignment
    = par.Sp_simpoint.Simpoints.assignment);
  (* the BIC curve is built from demanded ks only, so speculative
     warming must be invisible in it *)
  Alcotest.(check bool) "bic curve identical" true
    (seq.Sp_simpoint.Simpoints.bic_curve = par.Sp_simpoint.Simpoints.bic_curve)

let suite =
  [
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    Alcotest.test_case "copy tlb no write-through" `Quick
      test_copy_tlb_no_writethrough;
    Alcotest.test_case "copy serialise byte-identical" `Quick
      test_copy_serialise_identical;
    Alcotest.test_case "snapshot restore isolated" `Quick
      test_snapshot_restore_isolated;
    Alcotest.test_case "snapshot counter" `Quick test_snapshot_counter;
    Alcotest.test_case "decoded region: concurrent replays" `Quick
      test_decoded_region_concurrent_replays;
    Alcotest.test_case "mem cache disabled" `Quick test_mem_cache_disabled;
    Alcotest.test_case "mem cache lru eviction" `Quick
      test_mem_cache_lru_eviction;
    Alcotest.test_case "mem cache shared pool" `Quick
      test_mem_cache_pool_shared_budget;
    Alcotest.test_case "mem cache replace" `Quick test_mem_cache_replace;
    Alcotest.test_case "pipeline jobs parity with mem cache" `Quick
      test_pipeline_jobs_parity_with_mem_cache;
    Alcotest.test_case "speculative select parity" `Quick
      test_speculative_select_parity;
  ]
