(* CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

   The inner loop is slicing-by-8 (Kounavis & Berry): the running CRC
   is xored with the next 8 input bytes, and the new CRC is the xor of
   eight table lookups, one per byte — the same recurrence as the
   classic one-table loop unrolled through 8 steps, so the result is
   identical for every (pos, len, chaining) combination.  On 63-bit
   OCaml ints all intermediate values fit comfortably; the tail that
   does not fill an 8-byte chunk falls back to the one-table step. *)

let polynomial = 0xEDB88320

(* Unchecked native-endian 64-bit load for the sliced loop: [update]
   validates [pos]/[len] once up front, and the chunked loop never reads
   past [stop8], so the per-load bounds check of the safe accessor is
   pure overhead.  Big-endian hosts take the safe LE accessor instead. *)
external unsafe_get_64_ne : string -> int -> int64 = "%caml_string_get64u"

let le_host = not Sys.big_endian

(* tables.(0) is the classic byte table; tables.(k) extends each entry
   of tables.(k-1) by one zero byte, so tables.(k).(b) is the CRC
   contribution of byte [b] seen [k] positions before the end of the
   chunk.  Sixteen tables support the slicing-by-16 main loop; the
   first eight double as the slicing-by-8 mid-tail step.  They are
   built at module initialisation, before any domain can look them up
   (a [lazy] forced by two domains at once raises). *)
let tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then polynomial lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let ts = Array.make 16 t0 in
  for k = 1 to 15 do
    ts.(k) <- Array.map (fun v -> (v lsr 8) lxor t0.(v land 0xFF)) ts.(k - 1)
  done;
  ts

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let t0 = Array.unsafe_get tables 0
  and t1 = Array.unsafe_get tables 1
  and t2 = Array.unsafe_get tables 2
  and t3 = Array.unsafe_get tables 3
  and t4 = Array.unsafe_get tables 4
  and t5 = Array.unsafe_get tables 5
  and t6 = Array.unsafe_get tables 6
  and t7 = Array.unsafe_get tables 7
  and t8 = Array.unsafe_get tables 8
  and t9 = Array.unsafe_get tables 9
  and t10 = Array.unsafe_get tables 10
  and t11 = Array.unsafe_get tables 11
  and t12 = Array.unsafe_get tables 12
  and t13 = Array.unsafe_get tables 13
  and t14 = Array.unsafe_get tables 14
  and t15 = Array.unsafe_get tables 15 in
  let c = ref (crc lxor 0xFFFF_FFFF) in
  let i = ref pos in
  let stop = pos + len in
  let stop8 = pos + (len land lnot 7) in
  let stop16 = pos + (len land lnot 15) in
  (* slicing-by-16 main loop: two 64-bit loads, sixteen lookups per
     iteration — the same recurrence as the by-8 step applied twice, so
     every (pos, len, chaining) combination yields identical CRCs. *)
  while !i < stop16 do
    let x0 =
      if le_host then unsafe_get_64_ne s !i else String.get_int64_le s !i
    in
    let x1 =
      if le_host then unsafe_get_64_ne s (!i + 8)
      else String.get_int64_le s (!i + 8)
    in
    let lo0 = (!c lxor Int64.to_int x0) land 0xFFFF_FFFF in
    let hi0 = Int64.to_int (Int64.shift_right_logical x0 32) in
    let lo1 = Int64.to_int x1 land 0xFFFF_FFFF in
    let hi1 = Int64.to_int (Int64.shift_right_logical x1 32) in
    c :=
      Array.unsafe_get t15 (lo0 land 0xFF)
      lxor Array.unsafe_get t14 ((lo0 lsr 8) land 0xFF)
      lxor Array.unsafe_get t13 ((lo0 lsr 16) land 0xFF)
      lxor Array.unsafe_get t12 ((lo0 lsr 24) land 0xFF)
      lxor Array.unsafe_get t11 (hi0 land 0xFF)
      lxor Array.unsafe_get t10 ((hi0 lsr 8) land 0xFF)
      lxor Array.unsafe_get t9 ((hi0 lsr 16) land 0xFF)
      lxor Array.unsafe_get t8 ((hi0 lsr 24) land 0xFF)
      lxor Array.unsafe_get t7 (lo1 land 0xFF)
      lxor Array.unsafe_get t6 ((lo1 lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo1 lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((lo1 lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (hi1 land 0xFF)
      lxor Array.unsafe_get t2 ((hi1 lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi1 lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((hi1 lsr 24) land 0xFF);
    i := !i + 16
  done;
  while !i < stop8 do
    (* unaligned 64-bit load: 8 input bytes, little-endian.  The high
       half is extracted with a logical shift on the [Int64] — a plain
       [Int64.to_int] would silently drop bit 63.  (The [Int64] here
       is unboxed by cmmgen even without flambda; assembling the
       halves from byte loads measures slower.) *)
    let x64 =
      if le_host then unsafe_get_64_ne s !i else String.get_int64_le s !i
    in
    let lo = (!c lxor Int64.to_int x64) land 0xFFFF_FFFF in
    let hi = Int64.to_int (Int64.shift_right_logical x64 32) in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xFF)
      lxor Array.unsafe_get t3 (hi land 0xFF)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((hi lsr 24) land 0xFF);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t0
        ((!c lxor Char.code (String.unsafe_get s !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFF_FFFF

let sub s ~pos ~len = update 0 s pos len
let string s = update 0 s 0 (String.length s)
