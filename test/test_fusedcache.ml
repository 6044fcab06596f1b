(* Differential tests for the fused block-level cache tier and the
   bounds-pruned k-means.

   The fused allcache hook set ([Allcache_tool.hooks]) consumes
   [on_block_mems] segments and applies same-line / same-page repeat
   filters; the per-event reference below walks each segment one event
   at a time, the hierarchy once per fetch and data reference.  Random
   memory-heavy programs are executed under both (and under the fused
   set in fuel legs of one instruction, which delivers
   single-instruction segments); every
   cache level's statistics, both TLBs, prefetch and write-back
   counters and the retired instruction count must be bit-identical —
   across replacement policies, with and without the next-line
   prefetcher, across fuel-split boundaries landing mid-block, and
   across a warming prefix.

   The k-means half ports the original unpruned implementation
   (nested-array Lloyd iterations, linear-scan seeding draw) and
   requires [Kmeans.fit]'s pruned seeding and search to reproduce its
   assignment, sizes, centroids and distortion to the last bit, and
   [Kmeans.assign] its exhaustive nearest-centroid scan. *)

open Sp_isa
open Sp_vm
open Sp_pin
open Sp_cache

(* ------------------------------------------------------------------ *)
(* Memory-heavy random programs: every terminator kind, plus a heavy
   dose of loads/stores/string-moves so the data-reference stream
   exercises line and page boundaries *)

let test_fuel = 400
let test_syscall n = ((n * 37) + 11) land 0xFF

let mem_prog_gen =
  QCheck.Gen.(
    int_range 4 40 >>= fun body_len ->
    let n = body_len + 1 in
    let target = int_range 0 (n - 1) in
    let reg = 0 -- 7 in
    (* bases both inside one page and spread across several *)
    let base = oneof [ int_range 0 256; int_range 0 20000 ] in
    let instr_gen =
      frequency
        [
          (3, map2 (fun rd imm -> Isa.Li (rd, imm)) reg base);
          ( 2,
            map3
              (fun op rd (r1, r2) -> Isa.Alu (op, rd, r1, r2))
              (oneofl [ Isa.Add; Isa.Sub; Isa.Xor ])
              reg (pair reg reg) );
          ( 4,
            map3
              (fun rd rs off -> Isa.Load (rd, rs, off * 8))
              reg reg (int_range 0 64) );
          ( 4,
            map3
              (fun rv rb off -> Isa.Store (rv, rb, off * 8))
              reg reg (int_range 0 64) );
          (2, map2 (fun rd rs -> Isa.Movs (rd, rs)) reg reg);
          ( 1,
            map3
              (fun fd rs off -> Isa.Fload (fd, rs, off * 8))
              (0 -- 7) reg (int_range 0 64) );
          ( 1,
            map3
              (fun fv rb off -> Isa.Fstore (fv, rb, off * 8))
              (0 -- 7) reg (int_range 0 64) );
          ( 2,
            map3
              (fun c (r1, r2) t -> Isa.Branch (c, r1, r2, t))
              (oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge ])
              (pair reg reg) target );
          (1, map (fun t -> Isa.Jump t) target);
          (1, map (fun t -> Isa.Call t) target);
          (1, return Isa.Ret);
          (1, map2 (fun ch rd -> Isa.Sys (ch, rd)) (0 -- 3) reg);
          (1, return Isa.Halt);
        ]
    in
    map
      (fun body -> Array.of_list (body @ [ Isa.Halt ]))
      (list_repeat body_len instr_gen))

(* ------------------------------------------------------------------ *)
(* The per-event reference: each segment walked one event at a time —
   an instruction's fetch, then its own data references in order — with
   one TLB translation and one hierarchy walk per event, on the same
   geometry as [Allcache_tool.create].  It is built on [Cache_model],
   which shares no code with the kernel under test. *)

type reference = {
  r_hier : Cache_model.hier;
  r_itlb : Cache_model.tlb;
  r_dtlb : Cache_model.tlb;
}

let reference_create ?(config = Config.allcache_table1) ~policy ~prefetch () =
  {
    r_hier = Cache_model.hier_create ~policy ~prefetch config;
    r_itlb = Cache_model.tlb_create ~level2:Tlb.stlb_default Tlb.itlb_default;
    r_dtlb = Cache_model.tlb_create ~level2:Tlb.stlb_default Tlb.dtlb_default;
  }

let reference_set_warming r b = r.r_hier.Cache_model.h_warming <- b

let reference_hooks r p =
  let tlb t addr =
    Cache_model.tlb_translate t ~warming:r.r_hier.Cache_model.h_warming addr
  in
  {
    Hooks.nil with
    Hooks.on_block_mems =
      (fun pc0 n offs addrs nrefs ->
        let ref_i = ref 0 in
        for i = 0 to n - 1 do
          let addr = Program.fetch_addr p (pc0 + i) in
          tlb r.r_itlb addr;
          ignore (Cache_model.hier_fetch r.r_hier addr);
          while !ref_i < nrefs && offs.(!ref_i) = i do
            let v = addrs.(!ref_i) in
            let addr = v asr 1 in
            tlb r.r_dtlb addr;
            ignore
              (if v land 1 = 0 then Cache_model.hier_read r.r_hier addr
               else Cache_model.hier_write r.r_hier addr);
            incr ref_i
          done
        done);
  }

(* ------------------------------------------------------------------ *)
(* One run of a program under one tool and delivery, with optional
   warming prefix and fuel-chunked resumption; everything observable
   about the cache simulation comes back in one comparable record.
   [Legs] is the fused set with every chunk run in fuel legs of one
   instruction. *)

type tier = Fused | Per_event | Legs

type observed = {
  o_hier : Hierarchy.stats;
  o_itlb : Tlb.stats;
  o_dtlb : Tlb.stats;
  o_prefetches : int;
  o_writebacks : int * int * int;
  o_icount : int;
  o_outcome : int; (* 0 out-of-fuel, 1 halted, 2 stack error *)
}

let warm_fuel = 60

let run_tier ?config ?(warm_len = warm_fuel) tier ~policy ~prefetch ~warm
    ~chunk instrs =
  let p = Program.of_instrs instrs in
  (* the hooks, the warming switch, and the hierarchy and TLB
     statistics, prefetches and write-backs read after the run *)
  let hooks, set_warming, observe =
    match tier with
    | Per_event ->
        let r = reference_create ?config ~policy ~prefetch () in
        ( reference_hooks r p,
          reference_set_warming r,
          fun () ->
            ( Cache_model.hier_stats r.r_hier,
              Cache_model.tlb_stats r.r_itlb,
              Cache_model.tlb_stats r.r_dtlb,
              r.r_hier.Cache_model.h_prefetches,
              Cache_model.hier_writebacks r.r_hier ) )
    | Fused | Legs ->
        let tool = Allcache_tool.create ?config ~policy ~prefetch p in
        ( Allcache_tool.hooks tool,
          Allcache_tool.set_warming tool,
          fun () ->
            ( Allcache_tool.stats tool,
              Allcache_tool.itlb_stats tool,
              Allcache_tool.dtlb_stats tool,
              Allcache_tool.prefetches tool,
              Hierarchy.writebacks (Allcache_tool.hierarchy tool) ) )
  in
  let m = Interp.create ~entry:0 () in
  let outcome = ref 0 in
  (* [fuel] instructions, in legs of one under [Legs] *)
  let run fuel =
    let leg = if tier = Legs then 1 else fuel in
    let rec go left =
      if left > 0 then
        match
          Interp.run ~hooks ~syscall:test_syscall ~fuel:(min leg left) p m
        with
        | Interp.Halted -> outcome := 1
        | Interp.Out_of_fuel -> go (left - leg)
    in
    go fuel
  in
  (if warm then begin
     set_warming true;
     (try run warm_len with Interp.Stack_error _ -> outcome := 2);
     set_warming false
   end);
  let left = ref test_fuel in
  (try
     while !left > 0 && !outcome = 0 do
       let f = min chunk !left in
       left := !left - f;
       run f
     done
   with Interp.Stack_error _ -> outcome := 2);
  let hier, itlb, dtlb, prefetches, writebacks = observe () in
  {
    o_hier = hier;
    o_itlb = itlb;
    o_dtlb = dtlb;
    o_prefetches = prefetches;
    o_writebacks = writebacks;
    o_icount = m.Interp.icount;
    o_outcome = !outcome;
  }

let scenario_print (instrs, (policy, prefetch, warm), chunk) =
  Printf.sprintf "len=%d policy=%s prefetch=%b warm=%b chunk=%d"
    (Array.length instrs)
    (match policy with
    | Cache.Lru -> "lru"
    | Cache.Fifo -> "fifo"
    | Cache.Random -> "random")
    prefetch warm chunk

let scenario_gen =
  QCheck.Gen.(
    triple mem_prog_gen
      (triple (oneofl [ Cache.Lru; Cache.Fifo; Cache.Random ]) bool bool)
      (int_range 1 17))

let prop_fused_matches_per_event =
  QCheck.Test.make
    ~name:"fused cache tier bit-identical to per-event reference"
    ~count:250
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (instrs, (policy, prefetch, warm), chunk) ->
      let f = run_tier Fused ~policy ~prefetch ~warm ~chunk instrs in
      let i = run_tier Per_event ~policy ~prefetch ~warm ~chunk instrs in
      let x = run_tier Legs ~policy ~prefetch ~warm ~chunk instrs in
      f = i && f = x)

(* The same on 1-4 KiB levels, where dirty lines are evicted, so a
   repeat write the fused tier folds into the counters must leave
   exactly the write-backs a walk would.  Besides the random programs,
   straight-line runs of loads and stores over four lines 512 bytes
   apart, which all map to one 2-way L1D set: every third distinct line
   evicts, and a read followed by a write to the same line is common *)
let tiny_hierarchy =
  let level name size_kb assoc = Config.level ~name ~size_kb ~assoc ~line_bytes:32 in
  {
    Config.l1i = level "L1I" 1 2;
    l1d = level "L1D" 1 2;
    l2 = level "L2" 2 2;
    l3 = level "L3" 4 4;
  }

let alias_prog_gen =
  QCheck.Gen.(
    map
      (fun refs ->
        Array.of_list
          (List.concat_map
             (fun (store, line, word) ->
               [
                 Isa.Li (1, (line * 512) + (word * 8));
                 (if store then Isa.Store (2, 1, 0) else Isa.Load (2, 1, 0));
               ])
             refs
          @ [ Isa.Halt ]))
      (list_size (1 -- 60) (triple bool (0 -- 3) (0 -- 3))))

(* loads and stores over six data pages 64 KiB apart, which share one
   4-way DTLB set but not an STLB set: every fifth distinct page evicts
   a first-level entry, and its next use misses the DTLB and hits the
   second level, which a walk that skipped that level would count as a
   page-table walk *)
let page_alias_prog_gen =
  QCheck.Gen.(
    map
      (fun refs ->
        Array.of_list
          (List.concat_map
             (fun (store, page, word) ->
               [
                 Isa.Li (1, (page * 65536) + (word * 8));
                 (if store then Isa.Store (2, 1, 0) else Isa.Load (2, 1, 0));
               ])
             refs
          @ [ Isa.Halt ]))
      (list_size (1 -- 60) (triple bool (0 -- 5) (0 -- 3))))

(* loads and stores over twelve lines 1 KiB apart, which on the scaled
   i7-3770 share one L1D set and one 8-way L2 set but not an L3 set: a
   line L2 has evicted comes back from L3, so the timing models see L3
   hits, whose level a walk that misreported the serving level would
   change *)
let l3_alias_prog_gen =
  QCheck.Gen.(
    map
      (fun refs ->
        Array.of_list
          (List.concat_map
             (fun (store, line, word) ->
               [
                 Isa.Li (1, (line * 1024) + (word * 8));
                 (if store then Isa.Store (2, 1, 0) else Isa.Load (2, 1, 0));
               ])
             refs
          @ [ Isa.Halt ]))
      (list_size (1 -- 60) (triple bool (0 -- 11) (0 -- 3))))

let tiny_scenario_gen =
  QCheck.Gen.(
    triple
      (oneof [ mem_prog_gen; alias_prog_gen; page_alias_prog_gen ])
      (triple (oneofl [ Cache.Lru; Cache.Fifo; Cache.Random ]) bool bool)
      (int_range 1 17))

let prop_fused_matches_per_event_tiny =
  QCheck.Test.make
    ~name:"fused cache tier bit-identical to per-event reference, 1-4 KiB"
    ~count:300
    (QCheck.make ~print:scenario_print tiny_scenario_gen)
    (fun (instrs, (policy, prefetch, warm), chunk) ->
      let config = tiny_hierarchy in
      let f = run_tier ~config Fused ~policy ~prefetch ~warm ~chunk instrs in
      let i = run_tier ~config Per_event ~policy ~prefetch ~warm ~chunk instrs in
      let x = run_tier ~config Legs ~policy ~prefetch ~warm ~chunk instrs in
      f = i && f = x)

(* ------------------------------------------------------------------ *)
(* [reset_state] restores the freshly created tool: allcache, the
   interval core and the ldst mix, driven by one run that may end while
   warming, reset, then driven by a second run, must report exactly what
   fresh tools fed only the second run report, floats by their bits *)

let tools_view (cache, core, mix) =
  let s = Sp_cpu.Interval_core.stats core in
  let b = Int64.bits_of_float in
  ( ( Allcache_tool.stats cache,
      Allcache_tool.itlb_stats cache,
      Allcache_tool.dtlb_stats cache,
      Allcache_tool.prefetches cache,
      Hierarchy.writebacks (Allcache_tool.hierarchy cache) ),
    ( s.Sp_cpu.Interval_core.instructions,
      List.map b
        [
          s.cycles; s.base_cycles; s.branch_stall_cycles; s.memory_stall_cycles;
        ],
      (s.branch_lookups, s.branch_mispredicts, Array.to_list s.level_hits) ),
    List.map (Ldstmix.count mix)
      [ Isa.No_mem; Isa.Mem_r; Isa.Mem_w; Isa.Mem_rw ] )

let prop_tools_reset_equals_fresh =
  QCheck.Test.make ~name:"allcache/core/ldstmix reset_state equals fresh"
    ~count:200
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (instrs, (policy, prefetch, end_warming), first_fuel) ->
      let p = Program.of_instrs instrs in
      let core_config =
        Sp_cpu.Core_config.with_caches Sp_cpu.Core_config.i7_3770_sim
          tiny_hierarchy
      in
      let create () =
        ( Allcache_tool.create ~config:tiny_hierarchy ~policy ~prefetch p,
          Sp_cpu.Interval_core.create ~config:core_config p,
          Ldstmix.create p )
      in
      let run (cache, core, mix) fuel =
        let hooks =
          Hooks.seq_all
            [
              Allcache_tool.hooks cache;
              Sp_cpu.Interval_core.hooks core;
              Ldstmix.hooks mix;
            ]
        in
        let m = Interp.create ~entry:0 () in
        try ignore (Interp.run ~hooks ~syscall:test_syscall ~fuel p m)
        with Interp.Stack_error _ -> ()
      in
      let ((cache, core, mix) as reused) = create () in
      (* a measured stretch, then perhaps a warming one, left on *)
      run reused (first_fuel * 20);
      if end_warming then begin
        Allcache_tool.set_warming cache true;
        Sp_cpu.Interval_core.set_warming core true;
        run reused warm_fuel
      end;
      Allcache_tool.reset_state cache;
      Sp_cpu.Interval_core.reset_state core;
      Ldstmix.reset mix;
      run reused test_fuel;
      let clean = create () in
      run clean test_fuel;
      tools_view reused = tools_view clean)

(* ------------------------------------------------------------------ *)
(* Hand-checked absolute counts: both tiers must not merely agree with
   each other but with counts derivable from the ISA geometry (4-byte
   instructions, 32-byte lines, 4 kB pages, line-aligned code base) *)

let test_straightline_counts () =
  (* 40 straight Li + Halt = 41 fetches over 164 bytes = 6 lines, 1 page *)
  let instrs = Array.append (Array.make 40 (Isa.Li (0, 0))) [| Isa.Halt |] in
  List.iter
    (fun tier ->
      let o =
        run_tier tier ~policy:Cache.Lru ~prefetch:false ~warm:false ~chunk:1000
          instrs
      in
      Alcotest.(check int) "icount" 41 o.o_icount;
      Alcotest.(check int) "l1i accesses" 41 o.o_hier.Hierarchy.l1i.accesses;
      Alcotest.(check int) "l1i misses" 6 o.o_hier.Hierarchy.l1i.misses;
      Alcotest.(check int) "itlb accesses" 41 o.o_itlb.Tlb.accesses;
      Alcotest.(check int) "itlb walks" 1 o.o_itlb.Tlb.walks;
      Alcotest.(check int) "l1d accesses" 0 o.o_hier.Hierarchy.l1d.accesses)
    [ Fused; Per_event; Legs ]

let test_same_line_loads () =
  (* r0 = 0; five loads of address 0: one L1D line, one data page *)
  let instrs =
    Array.append
      (Array.append [| Isa.Li (0, 0) |] (Array.make 5 (Isa.Load (1, 0, 0))))
      [| Isa.Halt |]
  in
  List.iter
    (fun tier ->
      let o =
        run_tier tier ~policy:Cache.Lru ~prefetch:false ~warm:false ~chunk:1000
          instrs
      in
      Alcotest.(check int) "l1d accesses" 5 o.o_hier.Hierarchy.l1d.accesses;
      Alcotest.(check int) "l1d misses" 1 o.o_hier.Hierarchy.l1d.misses;
      Alcotest.(check int) "dtlb accesses" 5 o.o_dtlb.Tlb.accesses;
      Alcotest.(check int) "dtlb walks" 1 o.o_dtlb.Tlb.walks)
    [ Fused; Per_event; Legs ]

(* a write while warming dirties nothing, so the next, measured write
   to the same line must walk and set the dirty bit: evicting the line
   through two aliases of its 2-way set then costs one write-back *)
let test_warm_write_then_write () =
  let instrs =
    [|
      Isa.Li (1, 0);
      Isa.Store (2, 1, 0);
      (* measured from here *)
      Isa.Store (2, 1, 8);
      Isa.Li (1, 512);
      Isa.Load (3, 1, 0);
      Isa.Li (1, 1024);
      Isa.Load (3, 1, 0);
      Isa.Halt;
    |]
  in
  List.iter
    (fun tier ->
      let o =
        run_tier ~config:tiny_hierarchy ~warm_len:2 tier ~policy:Cache.Lru
          ~prefetch:false ~warm:true ~chunk:1000 instrs
      in
      let l1d, _, _ = o.o_writebacks in
      Alcotest.(check int) "l1d write-backs" 1 l1d;
      Alcotest.(check int) "l1d accesses" 3 o.o_hier.Hierarchy.l1d.accesses)
    [ Fused; Per_event; Legs ]

(* ------------------------------------------------------------------ *)
(* The report-level counters ride on Hierarchy.observe_stats; folding
   the two tiers' stats into the metrics registry must produce the
   same cache.* counter values *)

let cache_counter_names =
  [
    "cache.l1i.accesses"; "cache.l1i.misses";
    "cache.l1d.accesses"; "cache.l1d.misses";
    "cache.l2.accesses"; "cache.l2.misses";
    "cache.l3.accesses"; "cache.l3.misses";
  ]

let test_report_counters_identical () =
  let rng = Random.State.make [| 11 |] in
  let instrs = QCheck.Gen.generate1 ~rand:rng mem_prog_gen in
  let observe o =
    Sp_obs.Metrics.reset ();
    Hierarchy.observe_stats o.o_hier;
    let snap = Sp_obs.Metrics.stable_snapshot () in
    let vals =
      List.map (fun n -> Sp_obs.Metrics.counter_value snap n) cache_counter_names
    in
    Sp_obs.Metrics.reset ();
    vals
  in
  let f =
    run_tier Fused ~policy:Cache.Lru ~prefetch:false ~warm:false ~chunk:1000
      instrs
  in
  let i =
    run_tier Per_event ~policy:Cache.Lru ~prefetch:false ~warm:false
      ~chunk:1000 instrs
  in
  List.iter2
    (fun a b ->
      Alcotest.(check (option (float 0.0))) "cache counter" a b)
    (observe f) (observe i)

(* ------------------------------------------------------------------ *)
(* Pruned k-means vs the original unpruned implementation.  This is a
   line-for-line port of the nested-array algorithm the library shipped
   before the flat/pruned rewrite: exhaustive nearest-centroid scans,
   linear accumulate-and-compare seeding draw.  [Kmeans.fit] must
   reproduce it exactly. *)

let sqd a b =
  let d = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i -. Array.unsafe_get b i in
    d := !d +. (x *. x)
  done;
  !d

let naive_nearest centroids p =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun j c ->
      let d = sqd p c in
      if d < !best_d then begin
        best_d := d;
        best := j
      end)
    centroids;
  (!best, !best_d)

let naive_seed rng k points =
  let n = Array.length points in
  let centroids = Array.make k points.(0) in
  centroids.(0) <- points.(Sp_util.Rng.int rng n);
  let total = ref 0.0 in
  let d2 =
    Array.map
      (fun p ->
        let d = sqd p centroids.(0) in
        total := !total +. d;
        d)
      points
  in
  for j = 1 to k - 1 do
    let mass = Float.max 0.0 !total in
    let chosen =
      if mass <= 0.0 then Sp_util.Rng.int rng n
      else begin
        let target = Sp_util.Rng.float rng mass in
        let acc = ref 0.0 and pick = ref (n - 1) in
        (try
           for i = 0 to n - 1 do
             acc := !acc +. d2.(i);
             if !acc >= target then begin
               pick := i;
               raise Exit
             end
           done
         with Exit -> ());
        !pick
      end
    in
    centroids.(j) <- points.(chosen);
    for i = 0 to n - 1 do
      let d = sqd points.(i) centroids.(j) in
      if d < d2.(i) then begin
        total := !total -. (d2.(i) -. d);
        d2.(i) <- d
      end
    done
  done;
  Array.map Array.copy centroids

let naive_fit ~max_iters ~seed ~k points =
  let n = Array.length points in
  let k = min k n in
  let dim = Array.length points.(0) in
  let rng = Sp_util.Rng.create seed in
  let centroids = naive_seed rng k points in
  let assignment = Array.make n (-1) in
  let sizes = Array.make k 0 in
  let sums = Array.init k (fun _ -> Array.make dim 0.0) in
  let distortion = ref 0.0 in
  let changed = ref true in
  let iters = ref 0 in
  let best_j = Array.make n 0 in
  let best_d = Array.make n 0.0 in
  let search () =
    for i = 0 to n - 1 do
      let j, d = naive_nearest centroids points.(i) in
      best_j.(i) <- j;
      best_d.(i) <- d
    done
  in
  while !changed && !iters < max_iters do
    changed := false;
    incr iters;
    distortion := 0.0;
    Array.fill sizes 0 k 0;
    Array.iter (fun s -> Array.fill s 0 dim 0.0) sums;
    search ();
    for i = 0 to n - 1 do
      let j = best_j.(i) in
      if assignment.(i) <> j then begin
        assignment.(i) <- j;
        changed := true
      end;
      distortion := !distortion +. best_d.(i);
      sizes.(j) <- sizes.(j) + 1;
      let s = sums.(j) and p = points.(i) in
      for x = 0 to dim - 1 do
        s.(x) <- s.(x) +. p.(x)
      done
    done;
    for j = 0 to k - 1 do
      if sizes.(j) = 0 then begin
        let far = ref 0 and far_d = ref neg_infinity in
        for i = 0 to n - 1 do
          if best_d.(i) > !far_d then begin
            far_d := best_d.(i);
            far := i
          end
        done;
        centroids.(j) <- Array.copy points.(!far);
        changed := true
      end
      else begin
        let s = sums.(j) and inv = 1.0 /. float_of_int sizes.(j) in
        centroids.(j) <- Array.map (fun x -> x *. inv) s
      end
    done
  done;
  Array.fill sizes 0 k 0;
  distortion := 0.0;
  search ();
  for i = 0 to n - 1 do
    let j = best_j.(i) in
    assignment.(i) <- j;
    sizes.(j) <- sizes.(j) + 1;
    distortion := !distortion +. best_d.(i)
  done;
  (assignment, Array.copy sizes, centroids, !distortion)

let bits = Int64.bits_of_float

let results_equal (a0, s0, c0, d0) (r : Sp_simpoint.Kmeans.result) =
  a0 = r.Sp_simpoint.Kmeans.assignment
  && s0 = r.Sp_simpoint.Kmeans.sizes
  && bits d0 = bits r.Sp_simpoint.Kmeans.distortion
  && Array.length c0 = Array.length r.Sp_simpoint.Kmeans.centroids
  && Array.for_all2
       (fun x y -> Array.for_all2 (fun a b -> bits a = bits b) x y)
       c0 r.Sp_simpoint.Kmeans.centroids

(* coordinates from a tiny pool force duplicate points and exact
   distance ties — the regime where a sloppy pruning bound or a
   scan-order change would flip the argmin *)
let points_gen =
  QCheck.Gen.(
    pair (int_range 1 50) (int_range 1 8) >>= fun (n, dim) ->
    let coord =
      oneof
        [
          float_bound_inclusive 1.0;
          oneofl [ 0.0; 0.25; 0.5; 1.0 ];
        ]
    in
    array_repeat n (array_repeat dim coord))

(* a few well-separated planted centres plus small noise (or none, so
   members coincide): the pipeline's regime, where the seeding, search
   and assign prunes actually fire *)
let clustered_gen =
  QCheck.Gen.(
    triple (int_range 1 8) (int_range 1 12) (int_range 1 300)
    >>= fun (dim, centres, n) ->
    array_repeat centres (array_repeat dim (float_bound_inclusive 100.0))
    >>= fun cs ->
    oneofl [ 0.0; 0.01; 0.5 ] >>= fun noise ->
    array_repeat n
      (pair (int_bound (centres - 1))
         (array_repeat dim (float_range (-1.0) 1.0)))
    >|= Array.map (fun (c, e) ->
            Array.mapi (fun x v -> cs.(c).(x) +. (noise *. v)) e))

let kmeans_case_print (points, k, max_iters, seed) =
  Printf.sprintf "n=%d dim=%d k=%d iters=%d seed=%d" (Array.length points)
    (Array.length points.(0))
    k max_iters seed

let prop_kmeans_matches_naive =
  QCheck.Test.make ~name:"pruned k-means bit-identical to unpruned fit"
    ~count:250
    (QCheck.make ~print:kmeans_case_print
       QCheck.Gen.(
         quad
           (oneof [ points_gen; clustered_gen ])
           (int_range 1 20)
           (oneofl [ 0; 1; 3; 8; 50 ])
           (int_range 0 5)))
    (fun (points, k, max_iters, seed) ->
      let expected = naive_fit ~max_iters ~seed ~k points in
      let got1 = Sp_simpoint.Kmeans.fit ~max_iters ~seed ~jobs:1 ~k points in
      let got3 = Sp_simpoint.Kmeans.fit ~max_iters ~seed ~jobs:3 ~k points in
      results_equal expected got1 && results_equal expected got3)

(* centroids for [Kmeans.assign]: copies of points (zero distances),
   repeats of earlier centroids (duplicates) and vectors over the tiny
   coordinate pool (exact ties); k runs down to 1 *)
let assign_case_gen =
  QCheck.Gen.(
    oneof [ points_gen; clustered_gen ] >>= fun points ->
    let n = Array.length points and dim = Array.length points.(0) in
    int_range 1 20 >>= fun k ->
    array_repeat k
      (triple (int_bound 2) (int_bound (n - 1))
         (array_repeat dim (oneofl [ 0.0; 0.25; 0.5; 1.0 ])))
    >|= fun specs ->
    let cents = Array.make k [||] in
    Array.iteri
      (fun j (kind, i, fresh) ->
        cents.(j) <-
          (match kind with
          | 0 -> Array.copy points.(i)
          | 1 when j > 0 -> Array.copy cents.(i mod j)
          | _ -> fresh))
      specs;
    (points, cents))

let prop_assign_matches_naive =
  QCheck.Test.make ~name:"pruned assign matches exhaustive nearest"
    ~count:250
    (QCheck.make
       ~print:(fun (points, cents) ->
         Printf.sprintf "n=%d dim=%d k=%d" (Array.length points)
           (Array.length points.(0))
           (Array.length cents))
       assign_case_gen)
    (fun (points, centroids) ->
      let expected = Array.map (fun p -> fst (naive_nearest centroids p)) points in
      Sp_simpoint.Kmeans.assign ~jobs:1 ~centroids points = expected
      && Sp_simpoint.Kmeans.assign ~jobs:3 ~centroids points = expected)

let test_kmeans_k_exceeds_n () =
  (* k clamps to n; every point becomes its own centroid *)
  let points = [| [| 0.0; 1.0 |]; [| 2.0; 3.0 |]; [| 4.0; 5.0 |] |] in
  let expected = naive_fit ~max_iters:5 ~seed:1 ~k:9 points in
  let got = Sp_simpoint.Kmeans.fit ~max_iters:5 ~seed:1 ~k:9 points in
  Alcotest.(check bool) "k>n identical" true (results_equal expected got);
  Alcotest.(check int) "k clamped" 3 got.Sp_simpoint.Kmeans.k

let test_kmeans_identical_points () =
  (* all-duplicate input: seeding mass collapses to zero, every
     distance ties at 0 *)
  let points = Array.make 12 [| 0.5; 0.5; 0.5 |] in
  let expected = naive_fit ~max_iters:4 ~seed:3 ~k:4 points in
  let got = Sp_simpoint.Kmeans.fit ~max_iters:4 ~seed:3 ~k:4 points in
  Alcotest.(check bool) "duplicates identical" true (results_equal expected got)

(* ------------------------------------------------------------------ *)
(* Seeding draw: binary-searched prefix pick vs the linear scan *)

let prop_weighted_pick =
  QCheck.Test.make ~name:"weighted_pick matches linear scan" ~count:300
    (QCheck.make
       ~print:(fun (ws, t) ->
         Printf.sprintf "n=%d target=%f" (Array.length ws) t)
       QCheck.Gen.(
         pair
           (array_size (1 -- 40) (float_bound_inclusive 10.0))
           (float_bound_inclusive 1.2)))
    (fun (weights, tfrac) ->
      let n = Array.length weights in
      let prefix = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. weights.(i);
        prefix.(i) <- !acc
      done;
      let target = tfrac *. !acc in
      let linear =
        let pick = ref (n - 1) in
        (try
           for i = 0 to n - 1 do
             if prefix.(i) >= target then begin
               pick := i;
               raise Exit
             end
           done
         with Exit -> ());
        !pick
      in
      Sp_simpoint.Kmeans.weighted_pick prefix target = linear)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fused_matches_per_event;
    QCheck_alcotest.to_alcotest prop_fused_matches_per_event_tiny;
    QCheck_alcotest.to_alcotest prop_tools_reset_equals_fresh;
    Alcotest.test_case "straightline fetch counts" `Quick
      test_straightline_counts;
    Alcotest.test_case "same-line load counts" `Quick test_same_line_loads;
    Alcotest.test_case "warming write, then measured write" `Quick
      test_warm_write_then_write;
    Alcotest.test_case "report counters identical across tiers" `Quick
      test_report_counters_identical;
    QCheck_alcotest.to_alcotest prop_kmeans_matches_naive;
    QCheck_alcotest.to_alcotest prop_assign_matches_naive;
    Alcotest.test_case "k exceeds n" `Quick test_kmeans_k_exceeds_n;
    Alcotest.test_case "identical points" `Quick test_kmeans_identical_points;
    QCheck_alcotest.to_alcotest prop_weighted_pick;
  ]
