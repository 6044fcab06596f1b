(* Tests for Sp_util: RNG, statistics, scale, time model, tables. *)

open Sp_util

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* the split stream must not just replay the parent *)
  let parent = Array.init 32 (fun _ -> Rng.int64 a) in
  let child = Array.init 32 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split differs" true (parent <> child)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

let test_rng_gaussian_moments () =
  let rng = Rng.create 5 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:3.0 ~sigma:2.0) in
  check_close 0.1 "mean" 3.0 (Stats.mean xs);
  check_close 0.1 "stddev" 2.0 (Stats.stddev xs)

let prop_int_bounds =
  QCheck.Test.make ~name:"Rng.int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_float_bounds =
  QCheck.Test.make ~name:"Rng.float in bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.float rng bound in
      x >= 0.0 && x < bound)

let prop_shuffle_permutes =
  QCheck.Test.make ~name:"Rng.shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let a = Array.of_list xs in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_float "variance" 4.0 (Stats.variance xs);
  check_float "stddev" 2.0 (Stats.stddev xs)

let test_empty_stats () =
  check_float "mean []" 0.0 (Stats.mean [||]);
  check_float "variance [x]" 0.0 (Stats.variance [| 5.0 |])

let test_geomean () =
  check_float "geomean" 4.0 (Stats.geomean [| 2.0; 8.0 |])

let test_weighted_mean () =
  check_float "weighted"
    (10.0 *. 0.75 +. (20.0 *. 0.25))
    (Stats.weighted_mean ~weights:[| 3.0; 1.0 |] [| 10.0; 20.0 |]);
  (* zero weights fall back to the plain mean *)
  check_float "zero weights" 15.0
    (Stats.weighted_mean ~weights:[| 0.0; 0.0 |] [| 10.0; 20.0 |])

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 100.0);
  check_float "p50" 2.5 (Stats.percentile xs 50.0)

let test_rel_error () =
  check_float "basic" 10.0 (Stats.rel_error_pct ~reference:10.0 11.0);
  check_float "zero ref zero x" 0.0 (Stats.rel_error_pct ~reference:0.0 0.0);
  check_float "zero ref" 100.0 (Stats.rel_error_pct ~reference:0.0 5.0)

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0 ) xs in
  check_close 1e-9 "perfect" 1.0 (Stats.pearson xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_close 1e-9 "anti" (-1.0) (Stats.pearson xs zs);
  check_float "constant" 0.0 (Stats.pearson xs [| 1.0; 1.0; 1.0; 1.0 |])

let prop_normalize =
  QCheck.Test.make ~name:"Stats.normalize sums to 1" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_range 0.0 100.0))
    (fun xs ->
      let a = Stats.normalize (Array.of_list xs) in
      Float.abs (Stats.sum a -. 1.0) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Scale / Timemodel *)

let test_scale () =
  Alcotest.(check int)
    "30M slice" (30 * Scale.sim_insns_per_minsn)
    (Scale.of_minsn 30);
  check_close 1.0 "roundtrip" 30e6
    (Scale.paper_insns_of_sim (Scale.of_minsn 30));
  List.iter
    (fun m ->
      Alcotest.(check int) "micro divides" 0 (m mod Scale.micro_slice_minsn))
    [ 15; 25; 30; 50; 100 ]

let test_timemodel_calibration () =
  (* the rate model must reproduce the paper's own wall-clock anchors *)
  let whole_h =
    Timemodel.seconds Timemodel.Whole ~paper_insns:6873.9e9 /. 3600.0
  in
  check_close 2.0 "whole 213.2h" 213.2 whole_h;
  let regional_min =
    Timemodel.seconds Timemodel.Regional ~paper_insns:10.4e9 /. 60.0
  in
  check_close 0.5 "regional 17.17min" 17.17 regional_min

let test_timemodel_native () =
  check_close 1e-6 "native" 2.0
    (Timemodel.native_seconds ~paper_insns:3.4e9 ~cpi:2.0 ~ghz:3.4)

let test_pp_duration () =
  let s x = Format.asprintf "%a" Timemodel.pp_duration x in
  Alcotest.(check string) "hours" "2.0 h" (s 7200.0);
  Alcotest.(check string) "minutes" "2.00 min" (s 120.0);
  Alcotest.(check string) "seconds" "1.50 s" (s 1.5);
  Alcotest.(check string) "ms" "12.0 ms" (s 0.012)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t =
    Table.create ~title:"T" [ ("a", Table.Left); ("bb", Table.Right) ]
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  List.iter
    (fun cell ->
      Alcotest.(check bool)
        (cell ^ " present") true
        (Astring_contains.contains s cell))
    [ "longer"; "22"; "bb" ]

let test_table_wrong_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_fmt () =
  Alcotest.(check string) "int commas" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_int (-1000));
  Alcotest.(check string) "pct" "12.35%" (Table.fmt_pct 12.345);
  Alcotest.(check string) "x" "2.0x" (Table.fmt_x 2.0)

(* ------------------------------------------------------------------ *)
(* Crc32 / Binio (pinball format v2 plumbing) *)

let test_crc32 () =
  (* the standard check value for the IEEE 802.3 polynomial *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  Alcotest.(check int) "sub = string on full range" (Crc32.string s)
    (Crc32.sub s ~pos:0 ~len:(String.length s));
  (* chaining across an arbitrary split point matches the one-shot *)
  let k = 17 in
  let chained =
    Crc32.update (Crc32.update 0 s 0 k) s k (String.length s - k)
  in
  Alcotest.(check int) "update chains" (Crc32.string s) chained;
  (* any single-bit flip changes the checksum *)
  let b = Bytes.of_string s in
  Bytes.set b 20 (Char.chr (Char.code s.[20] lxor 0x10));
  Alcotest.(check bool) "bit flip detected" true
    (Crc32.string (Bytes.to_string b) <> Crc32.string s)

let test_binio_roundtrip () =
  let b = Buffer.create 128 in
  Binio.w_u8 b 0xAB;
  Binio.w_u32 b 0xDEADBEEF;
  Binio.w_i64 b (-42);
  Binio.w_i64 b max_int;
  Binio.w_f64 b 3.14159;
  Binio.w_f64 b (-0.0);
  Binio.w_string b "hello";
  Binio.w_string b "";
  Binio.w_int_array b [| 1; -2; 3 |];
  Binio.w_float_array b [| 0.5; infinity |];
  let r = Binio.reader (Buffer.contents b) in
  Alcotest.(check int) "u8" 0xAB (Binio.r_u8 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Binio.r_u32 r);
  Alcotest.(check int) "i64 negative" (-42) (Binio.r_i64 r);
  Alcotest.(check int) "i64 max" max_int (Binio.r_i64 r);
  check_float "f64" 3.14159 (Binio.r_f64 r);
  Alcotest.(check bool) "negative zero preserved" true
    (1.0 /. Binio.r_f64 r = neg_infinity);
  Alcotest.(check string) "string" "hello" (Binio.r_string r);
  Alcotest.(check string) "empty string" "" (Binio.r_string r);
  Alcotest.(check (array int)) "int array" [| 1; -2; 3 |] (Binio.r_int_array r);
  Alcotest.(check bool) "float array" true
    (Binio.r_float_array r = [| 0.5; infinity |]);
  Binio.expect_end r "test";
  Alcotest.(check int) "nothing left" 0 (Binio.remaining r)

(* The production [Crc32.update] is slicing-by-8; this is the classic
   one-table byte-at-a-time reference it must agree with everywhere —
   arbitrary strings, arbitrary split points, arbitrary chaining. *)
let crc_reference_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc_reference_update crc s pos len =
  let t = Lazy.force crc_reference_table in
  let c = ref (crc lxor 0xFFFF_FFFF) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFF_FFFF

let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"crc32 slicing-by-8 = one-table reference" ~count:300
    QCheck.(
      pair (string_gen_of_size Gen.(0 -- 200) Gen.char) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let n = String.length s in
      (* two arbitrary split points: one-shot, sub-ranges and chained
         updates must all agree with the reference *)
      let i = if n = 0 then 0 else a mod (n + 1) in
      let j = if n = 0 then 0 else i + (b mod (n - i + 1)) in
      Crc32.string s = crc_reference_update 0 s 0 n
      && Crc32.sub s ~pos:i ~len:(j - i) = crc_reference_update 0 s i (j - i)
      && Crc32.update
           (Crc32.update (Crc32.update 0 s 0 i) s i (j - i))
           s j (n - j)
         = crc_reference_update 0 s 0 n)

let prop_binio_bulk_bytes_identical =
  QCheck.Test.make
    ~name:"binio bulk writers byte-identical to per-element" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 100) int)
        (list_of_size Gen.(0 -- 100) float))
    (fun (is, fs) ->
      let ia = Array.of_list is and fa = Array.of_list fs in
      let bulk = Buffer.create 64 and each = Buffer.create 64 in
      Binio.w_i64s bulk ia;
      Binio.w_f64s bulk fa;
      Array.iter (Binio.w_i64 each) ia;
      Array.iter (Binio.w_f64 each) fa;
      Buffer.contents bulk = Buffer.contents each)

let test_binio_bulk_roundtrip () =
  let ia = [| min_int; -1; 0; 1; max_int; 0x0123_4567_89AB_CDEF |] in
  let fa = [| 0.0; -0.0; 1.5; infinity; neg_infinity; nan; 1e-300 |] in
  let b = Buffer.create 128 in
  Binio.w_i64s b ia;
  Binio.w_f64s b fa;
  let r = Binio.reader (Buffer.contents b) in
  Alcotest.(check (array int)) "i64 block" ia
    (Binio.r_i64s r (Array.length ia));
  (* structural compare: NaN- and signed-zero-exact *)
  Alcotest.(check bool) "f64 block bit-exact" true
    (Stdlib.compare fa (Binio.r_f64s r (Array.length fa)) = 0);
  Binio.expect_end r "bulk";
  (* a truncated block fails up front with the one typed error *)
  let r = Binio.reader (String.sub (Buffer.contents b) 0 17) in
  match Binio.r_i64s r 3 with
  | _ -> Alcotest.fail "truncated block: expected Corrupt"
  | exception Binio.Corrupt _ -> ()

let test_binio_bounds () =
  let expect_corrupt what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Corrupt" what
    | exception Binio.Corrupt _ -> ()
  in
  let r () = Binio.reader "\x02\x00\x00\x00ab" in
  (* a count field is rejected before any allocation when fewer than
     count * elem_bytes bytes remain *)
  expect_corrupt "oversized count" (fun () ->
      Binio.r_count (r ()) ~elem_bytes:8 "elems");
  Alcotest.(check int) "plausible count accepted" 2
    (Binio.r_count (r ()) ~elem_bytes:1 "elems");
  expect_corrupt "read past end" (fun () -> Binio.r_i64 (r ()));
  expect_corrupt "skip past end" (fun () -> Binio.skip (r ()) 7);
  expect_corrupt "trailing bytes" (fun () ->
      let r = r () in
      Binio.skip r 2;
      Binio.expect_end r "test")

(* The shared record framing's classification rules, which both the
   wire protocol and the results log build on: bytes that could still
   grow into a record are [Short], anything else fails on the first
   field that cannot be right. *)
let test_frame_records () =
  let f : Frame.record = { magic = "TEST"; version = 3; max_payload = 8 } in
  let decode s = Frame.decode_record f s ~pos:0 in
  let rec_ = Frame.encode_record f "abc" in
  Alcotest.(check int) "record size" (Frame.record_header_bytes + 3)
    (String.length rec_);
  Alcotest.(check bool) "decodes" true (decode rec_ = Ok (13, 3));
  Alcotest.(check bool) "decodes at an offset" true
    (Frame.decode_record f ("xy" ^ rec_) ~pos:2 = Ok (15, 3));
  List.iter
    (fun (what, s, expected) ->
      Alcotest.(check bool) what true (decode s = Error expected))
    [
      ("magic prefix is short", "TE", Frame.Short);
      ("header prefix is short", String.sub rec_ 0 9, Frame.Short);
      ("payload prefix is short", String.sub rec_ 0 14, Frame.Short);
      ("short junk is bad magic", "TX", Frame.Bad_record_magic "TX");
      ( "version",
        "TEST\x04" ^ String.sub rec_ 5 11,
        Frame.Bad_record_version 4 );
      ( "length bound",
        Frame.encode_record f "123456789",
        Frame.Oversized 9 );
    ];
  let flipped = Bytes.of_string rec_ in
  Bytes.set flipped 14 'X';
  (match decode (Bytes.to_string flipped) with
  | Error (Frame.Bad_crc { expected; found }) ->
      Alcotest.(check bool) "crc values reported" true (expected <> found)
  | _ -> Alcotest.fail "expected Bad_crc");
  Alcotest.(check bool) "tmp names" true
    (Frame.is_tmp "k.whole.pb.tmp.12.0"
    && (not (Frame.is_tmp "k.whole.pb"))
    && not (Frame.is_tmp "tmp.prof"))

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    QCheck_alcotest.to_alcotest prop_int_bounds;
    QCheck_alcotest.to_alcotest prop_float_bounds;
    QCheck_alcotest.to_alcotest prop_shuffle_permutes;
    Alcotest.test_case "mean/variance" `Quick test_mean_variance;
    Alcotest.test_case "empty stats" `Quick test_empty_stats;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "weighted mean" `Quick test_weighted_mean;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "relative error" `Quick test_rel_error;
    Alcotest.test_case "pearson" `Quick test_pearson;
    QCheck_alcotest.to_alcotest prop_normalize;
    Alcotest.test_case "scale constants" `Quick test_scale;
    Alcotest.test_case "timemodel calibration" `Quick test_timemodel_calibration;
    Alcotest.test_case "timemodel native" `Quick test_timemodel_native;
    Alcotest.test_case "pp duration" `Quick test_pp_duration;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_wrong_arity;
    Alcotest.test_case "formatting" `Quick test_fmt;
    Alcotest.test_case "crc32" `Quick test_crc32;
    QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
    Alcotest.test_case "binio roundtrip" `Quick test_binio_roundtrip;
    QCheck_alcotest.to_alcotest prop_binio_bulk_bytes_identical;
    Alcotest.test_case "binio bulk roundtrip" `Quick test_binio_bulk_roundtrip;
    Alcotest.test_case "binio bounds" `Quick test_binio_bounds;
    Alcotest.test_case "frame record classification" `Quick
      test_frame_records;
  ]
