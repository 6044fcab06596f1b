let page_words_log2 = 12
let page_words = 1 lsl page_words_log2
let word_bytes = 8
let page_bytes = page_words * word_bytes
let offset_mask = page_words - 1

(* 38-bit byte address space; keeps indices positive even on buggy input. *)
let addr_mask = (1 lsl 38) - 1

(* Direct-mapped software TLB: a small page-pointer cache in front of
   the page hashtables, so hot loads and stores resolve their page with
   one tag compare instead of a hashtable lookup.  Tags hold the page
   index (-1 = empty).  A slot is installed only for a page present in
   the table, and pages are never replaced there, so a matching tag can
   never be stale; [clear] resets the TLB and [copy] starts cold. *)
let tlb_slots_log2 = 6
let tlb_slots = 1 lsl tlb_slots_log2
let tlb_mask = tlb_slots - 1

let no_int_page : int array = [||]
let no_float_page : float array = [||]

type t = {
  int_pages : (int, int array) Hashtbl.t;
  float_pages : (int, float array) Hashtbl.t;
  int_tags : int array;
  int_tlb : int array array;
  float_tags : int array;
  float_tlb : float array array;
  (* cumulative TLB refills (fast-path misses that installed an entry);
     off the fast path, read by the interpreter's metrics flush *)
  mutable tlb_refills : int;
}

let create () =
  {
    int_pages = Hashtbl.create 64;
    float_pages = Hashtbl.create 16;
    int_tags = Array.make tlb_slots (-1);
    int_tlb = Array.make tlb_slots no_int_page;
    float_tags = Array.make tlb_slots (-1);
    float_tlb = Array.make tlb_slots no_float_page;
    tlb_refills = 0;
  }

let load t addr =
  let w = (addr land addr_mask) lsr 3 in
  let idx = w lsr page_words_log2 in
  let slot = idx land tlb_mask in
  if Array.unsafe_get t.int_tags slot = idx then
    Array.unsafe_get
      (Array.unsafe_get t.int_tlb slot)
      (w land offset_mask)
  else
    match Hashtbl.find t.int_pages idx with
    | p ->
        t.tlb_refills <- t.tlb_refills + 1;
        Array.unsafe_set t.int_tags slot idx;
        Array.unsafe_set t.int_tlb slot p;
        Array.unsafe_get p (w land offset_mask)
    | exception Not_found -> 0

(* Store slow path: a TLB miss, allocating the page on first touch. *)
let store_slow t idx slot off v =
  let p =
    match Hashtbl.find t.int_pages idx with
    | p -> p
    | exception Not_found ->
        let p = Array.make page_words 0 in
        Hashtbl.add t.int_pages idx p;
        p
  in
  t.tlb_refills <- t.tlb_refills + 1;
  Array.unsafe_set t.int_tags slot idx;
  Array.unsafe_set t.int_tlb slot p;
  Array.unsafe_set p off v

let store t addr v =
  let w = (addr land addr_mask) lsr 3 in
  let idx = w lsr page_words_log2 in
  let slot = idx land tlb_mask in
  if Array.unsafe_get t.int_tags slot = idx then
    Array.unsafe_set
      (Array.unsafe_get t.int_tlb slot)
      (w land offset_mask) v
  else store_slow t idx slot (w land offset_mask) v

let loadf t addr =
  let w = (addr land addr_mask) lsr 3 in
  let idx = w lsr page_words_log2 in
  let slot = idx land tlb_mask in
  if Array.unsafe_get t.float_tags slot = idx then
    Array.unsafe_get
      (Array.unsafe_get t.float_tlb slot)
      (w land offset_mask)
  else
    match Hashtbl.find t.float_pages idx with
    | p ->
        t.tlb_refills <- t.tlb_refills + 1;
        Array.unsafe_set t.float_tags slot idx;
        Array.unsafe_set t.float_tlb slot p;
        Array.unsafe_get p (w land offset_mask)
    | exception Not_found -> 0.0

let storef_slow t idx slot off v =
  let p =
    match Hashtbl.find t.float_pages idx with
    | p -> p
    | exception Not_found ->
        let p = Array.make page_words 0.0 in
        Hashtbl.add t.float_pages idx p;
        p
  in
  t.tlb_refills <- t.tlb_refills + 1;
  Array.unsafe_set t.float_tags slot idx;
  Array.unsafe_set t.float_tlb slot p;
  Array.unsafe_set p off v

let storef t addr v =
  let w = (addr land addr_mask) lsr 3 in
  let idx = w lsr page_words_log2 in
  let slot = idx land tlb_mask in
  if Array.unsafe_get t.float_tags slot = idx then
    Array.unsafe_set
      (Array.unsafe_get t.float_tlb slot)
      (w land offset_mask) v
  else storef_slow t idx slot (w land offset_mask) v

let tlb_refills t = t.tlb_refills

let footprint_bytes t =
  (Hashtbl.length t.int_pages + Hashtbl.length t.float_pages) * page_bytes

(* the copy starts with a cold TLB and owns every page privately *)
let copy t =
  let dup tbl =
    let c = Hashtbl.copy tbl in
    Hashtbl.filter_map_inplace (fun _ p -> Some (Array.copy p)) c;
    c
  in
  {
    (create ()) with
    int_pages = dup t.int_pages;
    float_pages = dup t.float_pages;
  }

(* ------------------------------------------------------------------ *)
(* Serialisation (pinball format v2).  Pages are written sorted by
   index so the encoding of a given memory image is deterministic. *)

let max_page_index = (addr_mask lsr 3) lsr page_words_log2

let sorted_pages tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let write buf t =
  let open Sp_util in
  Binio.w_u32 buf page_words;
  Binio.w_u32 buf (Hashtbl.length t.int_pages);
  List.iter
    (fun (idx, page) ->
      Binio.w_i64 buf idx;
      Binio.w_i64s buf page)
    (sorted_pages t.int_pages);
  Binio.w_u32 buf (Hashtbl.length t.float_pages);
  List.iter
    (fun (idx, page) ->
      Binio.w_i64 buf idx;
      Binio.w_f64s buf page)
    (sorted_pages t.float_pages)

let read r =
  let open Sp_util in
  let pw = Binio.r_u32 r in
  if pw <> page_words then
    Binio.fail "Memory: page size %d, expected %d" pw page_words;
  let t = create () in
  let read_pages tbl read_block =
    let n = Binio.r_u32 r in
    for _ = 1 to n do
      let idx = Binio.r_i64 r in
      if idx < 0 || idx > max_page_index then
        Binio.fail "Memory: page index %d out of range" idx;
      if Hashtbl.mem tbl idx then
        Binio.fail "Memory: duplicate page index %d" idx;
      (* the block read is bounds-checked up front, so a corrupt page
         count fails before any allocation *)
      Hashtbl.add tbl idx (read_block r page_words)
    done
  in
  read_pages t.int_pages Binio.r_i64s;
  read_pages t.float_pages Binio.r_f64s;
  t

let clear t =
  Hashtbl.reset t.int_pages;
  Hashtbl.reset t.float_pages;
  (* every cached page pointer is now dangling: empty the TLB and drop
     the page arrays so they can be collected *)
  Array.fill t.int_tags 0 tlb_slots (-1);
  Array.fill t.float_tags 0 tlb_slots (-1);
  Array.fill t.int_tlb 0 tlb_slots no_int_page;
  Array.fill t.float_tlb 0 tlb_slots no_float_page
