open Sp_util

(* Bump whenever the on-disk format or the meaning of the key inputs
   changes: old entries then miss instead of poisoning new runs. *)
let generation = "profcache-1"

let format : Frame.file =
  { magic = "SPREPRO-PROFILE"; version = 1; noun = "profile entry" }

type data = {
  benchmark : string;
  total_insns : int;
  slices : Sp_pin.Bbv_tool.slice array;
  kind_counts : int array;
  cache_stats : Sp_cache.Hierarchy.stats;
  core_stats : Sp_cpu.Interval_core.stats;
}

let key ~benchmark ~slice_insns ~slices_scale ~warmup_insns =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%s|%d|%.17g|%d" generation benchmark slice_insns
          slices_scale warmup_insns))

let file key = key ^ ".prof"
let path ~dir ~key = Filename.concat dir (file key)

(* ------------------------------------------------------------------ *)
(* encoding: a {!Frame} sectioned file with four sections in fixed
   order, META, BBVS, MIXK and STAT *)

let encode_meta buf d =
  Binio.w_string buf d.benchmark;
  Binio.w_i64 buf d.total_insns

let encode_slices buf d =
  Binio.w_u32 buf (Array.length d.slices);
  Array.iter
    (fun (s : Sp_pin.Bbv_tool.slice) ->
      Binio.w_i64 buf s.index;
      Binio.w_i64 buf s.start_icount;
      Binio.w_i64 buf s.length;
      Binio.w_u32 buf (Array.length s.bbv);
      Array.iter
        (fun (bb, n) ->
          Binio.w_i64 buf bb;
          Binio.w_i64 buf n)
        s.bbv)
    d.slices

let encode_level buf (l : Sp_cache.Hierarchy.level_stats) =
  Binio.w_i64 buf l.accesses;
  Binio.w_i64 buf l.misses;
  Binio.w_f64 buf l.miss_rate

let encode_stats buf d =
  let c = d.cache_stats in
  encode_level buf c.l1i;
  encode_level buf c.l1d;
  encode_level buf c.l2;
  encode_level buf c.l3;
  let k = d.core_stats in
  Binio.w_i64 buf k.instructions;
  Binio.w_f64 buf k.cycles;
  Binio.w_f64 buf k.base_cycles;
  Binio.w_f64 buf k.branch_stall_cycles;
  Binio.w_f64 buf k.memory_stall_cycles;
  Binio.w_i64 buf k.branch_lookups;
  Binio.w_i64 buf k.branch_mispredicts;
  Binio.w_int_array buf k.level_hits

let encode d =
  Frame.encode_file format
    [
      ("META", fun b -> encode_meta b d);
      ("BBVS", fun b -> encode_slices b d);
      ("MIXK", fun b -> Binio.w_int_array b d.kind_counts);
      ("STAT", fun b -> encode_stats b d);
    ]

(* ------------------------------------------------------------------ *)
(* decoding *)

let decode_meta r =
  let benchmark = Binio.r_string r in
  let total_insns = Binio.r_i64 r in
  if total_insns < 0 then
    Binio.fail "META: negative instruction count %d" total_insns;
  (benchmark, total_insns)

let decode_slices r =
  let nslices = Binio.r_count r ~elem_bytes:28 "slice table" in
  Array.init nslices (fun _ ->
      let index = Binio.r_i64 r in
      let start_icount = Binio.r_i64 r in
      let length = Binio.r_i64 r in
      let nbb = Binio.r_count r ~elem_bytes:16 "bbv" in
      let bbv =
        Array.init nbb (fun _ ->
            let bb = Binio.r_i64 r in
            let n = Binio.r_i64 r in
            (bb, n))
      in
      { Sp_pin.Bbv_tool.index; start_icount; length; bbv })

let decode_level r : Sp_cache.Hierarchy.level_stats =
  let accesses = Binio.r_i64 r in
  let misses = Binio.r_i64 r in
  let miss_rate = Binio.r_f64 r in
  { accesses; misses; miss_rate }

let decode_stats r =
  let l1i = decode_level r in
  let l1d = decode_level r in
  let l2 = decode_level r in
  let l3 = decode_level r in
  let instructions = Binio.r_i64 r in
  let cycles = Binio.r_f64 r in
  let base_cycles = Binio.r_f64 r in
  let branch_stall_cycles = Binio.r_f64 r in
  let memory_stall_cycles = Binio.r_f64 r in
  let branch_lookups = Binio.r_i64 r in
  let branch_mispredicts = Binio.r_i64 r in
  let level_hits = Binio.r_int_array r in
  ( { Sp_cache.Hierarchy.l1i; l1d; l2; l3 },
    {
      Sp_cpu.Interval_core.instructions;
      cycles;
      base_cycles;
      branch_stall_cycles;
      memory_stall_cycles;
      branch_lookups;
      branch_mispredicts;
      level_hits;
    } )

let decode_body s : data =
  let benchmark, total_insns = Frame.section s "META" decode_meta in
  let slices = Frame.section s "BBVS" decode_slices in
  let kind_counts = Frame.section s "MIXK" Binio.r_int_array in
  let cache_stats, core_stats = Frame.section s "STAT" decode_stats in
  { benchmark; total_insns; slices; kind_counts; cache_stats; core_stats }

let of_bytes ?path data =
  Result.map_error (Frame.error_message format)
    (Frame.decode_file format ?path decode_body data)

let load path =
  Result.map_error (Frame.error_message format)
    (Frame.load_file format decode_body path)

let verify path = Result.map ignore (load path)

(* ------------------------------------------------------------------ *)
(* lookup / store *)

type 'a lookup = 'a Entry_cache.lookup =
  | Hit of 'a
  | Miss
  | Quarantined of { path : string; reason : string }

let cache =
  Entry_cache.create ~hits:"profcache.hits" ~misses:"profcache.misses"
    ~quarantined:"profcache.quarantines" ~stored:"profcache.stores" ~load
    ~encode

let find ~dir ~key = Entry_cache.find cache (path ~dir ~key)

let store ~dir ~key d =
  let path = path ~dir ~key in
  Entry_cache.store cache path d;
  path

let quarantine path = Entry_cache.quarantine cache path
let clear_mem () = Entry_cache.clear_mem cache
