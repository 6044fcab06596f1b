(* Tests for Sp_cache: geometry validation, LRU, hierarchy walks,
   warming. *)

open Sp_cache

let line32 = 32

let small_level ~assoc ~lines =
  Config.level ~name:"T" ~size_kb:(lines * line32 / 1024) ~assoc
    ~line_bytes:line32

(* a 2-set, 2-way cache: 4 lines of 32B = 128B = can't express via size_kb
   (kB granularity), so use a 1 kB cache: 32 lines *)
let tiny () = Cache.create (Config.level ~name:"tiny" ~size_kb:1 ~assoc:2 ~line_bytes:32)

let test_config_validation () =
  (try
     ignore (Config.level ~name:"x" ~size_kb:3 ~assoc:1 ~line_bytes:32);
     Alcotest.fail "expected Invalid_argument (size)"
   with Invalid_argument _ -> ());
  (try
     ignore (Config.level ~name:"x" ~size_kb:32 ~assoc:0 ~line_bytes:32);
     Alcotest.fail "expected Invalid_argument (assoc)"
   with Invalid_argument _ -> ());
  let l = Config.level ~name:"ok" ~size_kb:32 ~assoc:8 ~line_bytes:64 in
  Alcotest.(check int) "sets" 64 (Config.num_sets l);
  Alcotest.(check int) "lines" 512 (Config.num_lines l)

(* the tag encoding needs tags shifted right by at least 4 bits: a
   single set of 8-byte lines is refused *)
let test_narrow_way_rejected () =
  let cfg = Config.level ~name:"narrow" ~size_kb:1 ~assoc:128 ~line_bytes:8 in
  match Cache.create cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument (way under 16 bytes)"

let test_table1_config () =
  let h = Config.allcache_table1 in
  Alcotest.(check int) "L1 32kB" (32 * 1024) h.Config.l1d.size_bytes;
  Alcotest.(check int) "L1 32-way" 32 h.Config.l1d.assoc;
  Alcotest.(check int) "L2 2MB" (2 * 1024 * 1024) h.Config.l2.size_bytes;
  Alcotest.(check int) "L2 direct" 1 h.Config.l2.assoc;
  Alcotest.(check int) "L3 16MB" (16 * 1024 * 1024) h.Config.l3.size_bytes;
  Alcotest.(check int) "linesize" 32 h.Config.l3.line_bytes

let test_scaled_config () =
  let h = Config.allcache_sim in
  Alcotest.(check int) "L1 scaled" (32 * 1024 / Config.sim_scale)
    h.Config.l1d.size_bytes;
  (* associativity clamped to line count *)
  Alcotest.(check bool) "assoc sane" true
    (h.Config.l1d.assoc <= Config.num_lines h.Config.l1d)

let test_cold_miss_then_hit () =
  let c = tiny () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x40);
  Alcotest.(check bool) "hit" true (Cache.access c 0x40);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x5F);
  Alcotest.(check int) "accesses" 3 (Cache.accesses c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  Alcotest.(check int) "hits" 2 (Cache.hits c)

let test_lru_eviction () =
  (* 2-way: fill a set with A,B; touch A; insert C -> B evicted, A kept *)
  let c = tiny () in
  let sets = 16 in
  let stride = sets * line32 in
  (* aliases in set 0 *)
  let a = 0 and b = stride and d = 2 * stride in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  ignore (Cache.access c a);
  (* A is MRU *)
  ignore (Cache.access c d);
  (* evicts B *)
  Alcotest.(check bool) "A retained" true (Cache.access c a);
  Alcotest.(check bool) "B evicted" false (Cache.access c b)

let test_direct_mapped_conflict () =
  let c =
    Cache.create (Config.level ~name:"dm" ~size_kb:1 ~assoc:1 ~line_bytes:32)
  in
  let stride = 32 * line32 in
  ignore (Cache.access c 0);
  ignore (Cache.access c stride);
  Alcotest.(check bool) "conflict evicted" false (Cache.access c 0)

let test_warm_not_counted () =
  let c = tiny () in
  ignore (Cache.warm c 0x40);
  Alcotest.(check int) "warm not counted" 0 (Cache.accesses c);
  Alcotest.(check bool) "but installed" true (Cache.access c 0x40)

let test_reset () =
  let c = tiny () in
  ignore (Cache.access c 0);
  Cache.reset_stats c;
  Alcotest.(check int) "stats zeroed" 0 (Cache.accesses c);
  Alcotest.(check bool) "state kept" true (Cache.access c 0);
  Cache.reset_state c;
  Alcotest.(check bool) "state cleared" false (Cache.access c 0)

let test_resident_lines () =
  let c = tiny () in
  Alcotest.(check int) "empty" 0 (Cache.resident_lines c);
  for i = 0 to 9 do
    ignore (Cache.access c (i * line32))
  done;
  Alcotest.(check int) "ten lines" 10 (Cache.resident_lines c)

let prop_stats_invariant =
  QCheck.Test.make ~name:"accesses = hits + misses" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 0 4096))
    (fun addrs ->
      let c = tiny () in
      List.iter (fun a -> ignore (Cache.access c (a * 8))) addrs;
      Cache.accesses c = Cache.hits c + Cache.misses c
      && Cache.accesses c = List.length addrs)

let prop_capacity_bound =
  QCheck.Test.make ~name:"resident lines bounded by capacity" ~count:50
    QCheck.(list_of_size Gen.(1 -- 500) (int_range 0 100_000))
    (fun addrs ->
      let cfg = Config.level ~name:"c" ~size_kb:1 ~assoc:2 ~line_bytes:32 in
      let c = Cache.create cfg in
      List.iter (fun a -> ignore (Cache.access c (a * 8))) addrs;
      Cache.resident_lines c <= Config.num_lines cfg)

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let small_hierarchy () =
  Hierarchy.create
    {
      Config.l1i = small_level ~assoc:2 ~lines:32;
      l1d = small_level ~assoc:2 ~lines:32;
      l2 = small_level ~assoc:1 ~lines:64;
      l3 = small_level ~assoc:1 ~lines:128;
    }

let test_hierarchy_walk () =
  let h = small_hierarchy () in
  Hierarchy.read h 0x1000;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "L1D accessed" 1 s.Hierarchy.l1d.accesses;
  Alcotest.(check int) "L2 accessed (L1 missed)" 1 s.Hierarchy.l2.accesses;
  Alcotest.(check int) "L3 accessed" 1 s.Hierarchy.l3.accesses;
  Hierarchy.read h 0x1000;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "L1 hit stops walk" 1 s.Hierarchy.l2.accesses

let test_hierarchy_fetch_separate () =
  let h = small_hierarchy () in
  Hierarchy.fetch h 0x2000;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "L1I accessed" 1 s.Hierarchy.l1i.accesses;
  Alcotest.(check int) "L1D untouched" 0 s.Hierarchy.l1d.accesses

let test_hierarchy_where () =
  let h = small_hierarchy () in
  Alcotest.(check bool) "cold -> memory" true
    (Hierarchy.read_where h 0x3000 = Hierarchy.Memory);
  Alcotest.(check bool) "now L1" true
    (Hierarchy.read_where h 0x3000 = Hierarchy.L1);
  (* evict from L1 (2-way, 16 sets): two aliases on top *)
  let stride = 16 * 32 in
  ignore (Hierarchy.read_where h (0x3000 + stride));
  ignore (Hierarchy.read_where h (0x3000 + (2 * stride)));
  Alcotest.(check bool) "L1 evicted, deeper level serves" true
    (match Hierarchy.read_where h 0x3000 with
    | Hierarchy.L2 | Hierarchy.L3 -> true
    | Hierarchy.L1 | Hierarchy.Memory -> false)

let test_hierarchy_warming () =
  let h = small_hierarchy () in
  Hierarchy.set_warming h true;
  Hierarchy.read h 0x4000;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "no stats while warming" 0 s.Hierarchy.l1d.accesses;
  Hierarchy.set_warming h false;
  Alcotest.(check bool) "warm line resident" true
    (Hierarchy.read_where h 0x4000 = Hierarchy.L1)

let test_latency_class () =
  Alcotest.(check int) "L1" 0 (Hierarchy.latency_class Hierarchy.L1);
  Alcotest.(check int) "Memory" 3 (Hierarchy.latency_class Hierarchy.Memory)

(* ------------------------------------------------------------------ *)
(* The kernel against [Cache_model]'s list-per-set model *)

open Cache_model

type cache_op = Read of int | Write of int | Warm of int | Reset

let policy_name = function
  | Cache.Lru -> "lru"
  | Cache.Fifo -> "fifo"
  | Cache.Random -> "random"

(* 1 KiB of 32-byte lines at every tested associativity: 32 sets of 1
   way up to one fully associative set of 32 *)
let model_assocs = [ 1; 2; 8; 16; 32 ]

(* addresses from a pool of 3 x capacity lines, so sets overflow and
   evict, at arbitrary offsets within the line, plus a few at the ends
   of the integer range, whose tags have the most bits set *)
let cache_op_gen =
  QCheck.Gen.(
    let addr =
      frequency
        [
          (20, map2 (fun l off -> (l * 32) + off) (0 -- 95) (0 -- 31));
          (1, oneofl [ -1; -32; max_int; min_int; max_int - 31 ]);
        ]
    in
    frequency
      [
        (10, map (fun a -> Read a) addr);
        (6, map (fun a -> Write a) addr);
        (4, map (fun a -> Warm a) addr);
        (1, return Reset);
      ])

let model_case_gen =
  QCheck.Gen.(
    triple
      (oneofl [ Cache.Lru; Cache.Fifo; Cache.Random ])
      (oneofl model_assocs)
      (list_size (1 -- 600) cache_op_gen))

let model_case_print (policy, assoc, ops) =
  Printf.sprintf "%s assoc=%d ops=%d" (policy_name policy) assoc
    (List.length ops)

let prop_cache_matches_model =
  QCheck.Test.make ~name:"cache kernel matches the list-per-set model"
    ~count:400
    (QCheck.make ~print:model_case_print model_case_gen)
    (fun (policy, assoc, ops) ->
      let cfg = Config.level ~name:"M" ~size_kb:1 ~assoc ~line_bytes:32 in
      let c = Cache.create ~policy cfg and m = model_create policy cfg in
      let same_counts () =
        Cache.accesses c = m.m_accesses
        && Cache.misses c = m.m_misses
        && Cache.writebacks c = m.m_writebacks
        && Cache.resident_lines c = model_resident m
      in
      List.for_all
        (fun op ->
          (match op with
          | Read a -> Cache.access c a = model_touch m ~count:true ~write:false a
          | Write a ->
              Cache.access_rw c ~write:true a
              = model_touch m ~count:true ~write:true a
          | Warm a -> Cache.warm c a = model_touch m ~count:false ~write:false a
          | Reset ->
              Cache.reset_state c;
              model_reset m;
              true)
          && same_counts ())
        ops)

(* ------------------------------------------------------------------ *)
(* [reset_state] must restore the freshly created value: a cache, TLB or
   hierarchy driven by one stream, reset, then driven by a second must
   report exactly what a fresh one fed only the second stream reports,
   floats by their bits.  The hierarchy's first stream may end while
   warming and has issued prefetches, which its reset must clear. *)

type hier_op = H_fetch of int | H_read of int | H_write of int | H_warming of bool

let hier_op_gen =
  QCheck.Gen.(
    let addr = map2 (fun l off -> (l * 32) + off) (0 -- 300) (0 -- 31) in
    frequency
      [
        (4, map (fun a -> H_fetch a) addr);
        (8, map (fun a -> H_read a) addr);
        (6, map (fun a -> H_write a) addr);
        (1, map (fun b -> H_warming b) bool);
      ])

let bits = Int64.bits_of_float

let cache_view c =
  ( Cache.accesses c,
    Cache.misses c,
    Cache.writebacks c,
    Cache.resident_lines c,
    bits (Cache.miss_rate c) )

let tlb_view t =
  let s = Tlb.stats t in
  (s.Tlb.accesses, s.Tlb.misses, s.Tlb.walks, bits s.Tlb.miss_rate,
   bits s.Tlb.walk_rate)

let level_view (l : Hierarchy.level_stats) =
  (l.Hierarchy.accesses, l.Hierarchy.misses, bits l.Hierarchy.miss_rate)

let hier_view h =
  let s = Hierarchy.stats h in
  ( List.map level_view
      [ s.Hierarchy.l1i; s.Hierarchy.l1d; s.Hierarchy.l2; s.Hierarchy.l3 ],
    Hierarchy.writebacks h,
    Hierarchy.prefetches h,
    Hierarchy.warming h )

let reset_case_gen =
  QCheck.Gen.(
    pair
      (pair (oneofl [ Cache.Lru; Cache.Fifo; Cache.Random ]) bool)
      (pair (list_size (0 -- 400) hier_op_gen) (list_size (0 -- 400) hier_op_gen)))

let reset_case_print ((policy, prefetch), (first, second)) =
  Printf.sprintf "%s prefetch=%b first=%d second=%d" (policy_name policy)
    prefetch (List.length first) (List.length second)

let prop_reset_equals_fresh =
  QCheck.Test.make ~name:"cache/TLB/hierarchy reset_state equals fresh"
    ~count:300
    (QCheck.make ~print:reset_case_print reset_case_gen)
    (fun ((policy, prefetch), (first, second)) ->
      let cfg = Config.level ~name:"R" ~size_kb:1 ~assoc:4 ~line_bytes:32 in
      let tlb_cfg =
        { Tlb.name = "T"; entries = 8; assoc = 2; page_bytes = 128 }
      in
      let hier () =
        Hierarchy.create ~policy ~next_line_prefetch:prefetch
          {
            Config.l1i = small_level ~assoc:2 ~lines:32;
            l1d = small_level ~assoc:4 ~lines:32;
            l2 = small_level ~assoc:2 ~lines:64;
            l3 = small_level ~assoc:8 ~lines:128;
          }
      in
      let drive (c, t, h) ops =
        let warming = ref false in
        List.iter
          (function
            | H_warming b ->
                warming := b;
                Hierarchy.set_warming h b
            | H_fetch a ->
                if !warming then Tlb.warm t a else Tlb.access t a;
                Hierarchy.fetch h a
            | H_read a ->
                ignore
                  (if !warming then Cache.warm c a else Cache.access c a);
                if !warming then Tlb.warm t a else Tlb.access t a;
                Hierarchy.read h a
            | H_write a ->
                ignore
                  (if !warming then Cache.warm c a
                   else Cache.access_rw c ~write:true a);
                if !warming then Tlb.warm t a else Tlb.access t a;
                Hierarchy.write h a)
          ops
      in
      let fresh () =
        ( Cache.create ~policy cfg,
          Tlb.create ~level2:{ tlb_cfg with name = "T2"; entries = 16 } tlb_cfg,
          hier () )
      in
      let ((c, t, h) as reused) = fresh () in
      drive reused first;
      Cache.reset_state c;
      Tlb.reset_state t;
      Hierarchy.reset_state h;
      drive reused second;
      let ((c', t', h') as clean) = fresh () in
      drive clean second;
      cache_view c = cache_view c'
      && tlb_view t = tlb_view t'
      && hier_view h = hier_view h')

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "narrow way rejected" `Quick test_narrow_way_rejected;
    Alcotest.test_case "Table I config" `Quick test_table1_config;
    Alcotest.test_case "scaled config" `Quick test_scaled_config;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
    Alcotest.test_case "warm not counted" `Quick test_warm_not_counted;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "resident lines" `Quick test_resident_lines;
    QCheck_alcotest.to_alcotest prop_stats_invariant;
    QCheck_alcotest.to_alcotest prop_capacity_bound;
    QCheck_alcotest.to_alcotest prop_cache_matches_model;
    QCheck_alcotest.to_alcotest prop_reset_equals_fresh;
    Alcotest.test_case "hierarchy walk" `Quick test_hierarchy_walk;
    Alcotest.test_case "hierarchy fetch separate" `Quick test_hierarchy_fetch_separate;
    Alcotest.test_case "hierarchy where" `Quick test_hierarchy_where;
    Alcotest.test_case "hierarchy warming" `Quick test_hierarchy_warming;
    Alcotest.test_case "latency class" `Quick test_latency_class;
  ]
