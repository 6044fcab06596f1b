open Sp_vm
open Sp_cache

(* The fused [allcache] tool: it consumes [Hooks.on_block_mems]
   segments — a run of consecutively retired instructions plus all of
   their data references — and walks the i-fetch line/page grid and the
   data stream in one pass.

   Two exact filters carry the speedup (arguments in DESIGN.md §5g):

   - i-fetch grid: within a segment, consecutive fetches that land on
     one cache line (and one page) after the first are *guaranteed*
     L1I/ITLB hits, and a repeat hit of the just-served line changes no
     replacement state, so they fold straight into the counters via
     [access_bulk].  The [last_i_*] memos extend the filter across
     segments, blocks and runs: L1I and the ITLB are touched only by
     this fetch stream, so "same line as the previous fetch" still
     implies residency and MRU position.

   - data same-line/same-page filter: a data reference to the line
     (page) of the immediately preceding data reference is a guaranteed
     L1D (DTLB) hit.  Repeat reads fold into the counters, and so do
     repeat writes once the line is known to be dirty ([last_d_dirty]:
     the last walk to it was a measured write, and only repeats have
     touched the L1D since).  Any other write walks, because it must be
     able to set the dirty bit.

   Misses — and only misses — reach the shared L2/L3 in exactly
   retirement order, so every statistic (including TLB walks,
   prefetches and writebacks) is bit-identical to a simulator walking
   the hierarchy once per event (the differential suite's reference). *)

type t = {
  hier : Hierarchy.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  code_base : int;
  i_line_shift : int;
  i_page_shift : int;
  d_line_shift : int;
  d_page_shift : int;
  (* line/page ids ([byte_addr lsr shift]) of the previous i-fetch and
     data reference; [min_int] = none, reset with the cache state *)
  mutable last_i_line : int;
  mutable last_i_page : int;
  mutable last_d_line : int;
  mutable last_d_page : int;
  (* the L1D holds [last_d_line] with its dirty bit set *)
  mutable last_d_dirty : bool;
  mutable warming : bool;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(config = Config.allcache_table1) ?policy ?(prefetch = false)
    (prog : Program.t) =
  {
    hier = Hierarchy.create ?policy ~next_line_prefetch:prefetch config;
    itlb = Tlb.create ~level2:Tlb.stlb_default Tlb.itlb_default;
    dtlb = Tlb.create ~level2:Tlb.stlb_default Tlb.dtlb_default;
    code_base = prog.code_base;
    i_line_shift = log2 config.l1i.Config.line_bytes;
    i_page_shift = log2 Tlb.itlb_default.Tlb.page_bytes;
    d_line_shift = log2 config.l1d.Config.line_bytes;
    d_page_shift = log2 Tlb.dtlb_default.Tlb.page_bytes;
    last_i_line = min_int;
    last_i_page = min_int;
    last_d_line = min_int;
    last_d_page = min_int;
    last_d_dirty = false;
    warming = false;
  }

let bpi = Sp_isa.Isa.bytes_per_instr

(* instructions are a power of two bytes long, so the per-chunk division
   by [bpi] below is a shift rather than a hardware divide *)
let bpi_shift = log2 bpi
let () = assert (1 lsl bpi_shift = bpi)

(* Issue the i-fetch stream for instruction offsets [cur .. j] of a
   segment starting at byte address [base], chunked by the cache-line
   grid (lines are aligned and pages are line-multiples, so a chunk
   never straddles either boundary): the first fetch of a new line or
   page walks for real, the rest of the chunk folds into the counters.
   While warming, a guaranteed repeat hit is a complete no-op (no stats,
   no state change), so repeats are dropped outright.  Returns the next
   offset to fetch, [j + 1] (or [cur] if [cur > j]). *)
let rec fetch_chunks t base cur j =
  if cur > j then cur
  else begin
    let a = base + (cur * bpi) in
    let line = a lsr t.i_line_shift in
    let page = a lsr t.i_page_shift in
    let line_end = (line + 1) lsl t.i_line_shift in
    let span = (line_end - a + bpi - 1) lsr bpi_shift in
    let avail = j - cur + 1 in
    let count = if span < avail then span else avail in
    if t.warming then begin
      if page <> t.last_i_page then Tlb.warm t.itlb a;
      if line <> t.last_i_line then Hierarchy.fetch t.hier a
    end
    else begin
      if page = t.last_i_page then Tlb.access_bulk t.itlb count
      else begin
        Tlb.access t.itlb a;
        if count > 1 then Tlb.access_bulk t.itlb (count - 1)
      end;
      if line = t.last_i_line then Hierarchy.fetch_repeats t.hier count
      else begin
        Hierarchy.fetch t.hier a;
        if count > 1 then Hierarchy.fetch_repeats t.hier (count - 1)
      end
    end;
    t.last_i_line <- line;
    t.last_i_page <- page;
    fetch_chunks t base (cur + count) j
  end

let process t pc0 n offs addrs nrefs =
  let base = t.code_base + (pc0 * bpi) in
  let cur = ref 0 in
  for r = 0 to nrefs - 1 do
    (* fetch up to and including the referencing instruction first: an
       instruction is fetched before it touches data *)
    cur := fetch_chunks t base !cur (Array.unsafe_get offs r);
    let v = Array.unsafe_get addrs r in
    let addr = v asr 1 in
    let wr = v land 1 <> 0 in
    let line = addr lsr t.d_line_shift in
    let page = addr lsr t.d_page_shift in
    if t.warming then begin
      if page <> t.last_d_page then Tlb.warm t.dtlb addr;
      (* warming ignores write bits, so a guaranteed repeat hit is a
         no-op whether read or write; a warming walk dirties nothing *)
      if line <> t.last_d_line then begin
        if wr then Hierarchy.write t.hier addr else Hierarchy.read t.hier addr;
        t.last_d_dirty <- false
      end
    end
    else begin
      if page = t.last_d_page then Tlb.access_bulk t.dtlb 1
      else Tlb.access t.dtlb addr;
      if line = t.last_d_line && ((not wr) || t.last_d_dirty) then
        Hierarchy.data_repeats t.hier 1
      else begin
        if wr then Hierarchy.write t.hier addr else Hierarchy.read t.hier addr;
        t.last_d_dirty <- wr
      end
    end;
    t.last_d_line <- line;
    t.last_d_page <- page
  done;
  ignore (fetch_chunks t base !cur (n - 1))

let hooks t =
  {
    Hooks.nil with
    Hooks.on_block_mems =
      (fun pc0 n offs addrs nrefs -> process t pc0 n offs addrs nrefs);
  }

let hierarchy t = t.hier
let stats t = Hierarchy.stats t.hier
let prefetches t = Hierarchy.prefetches t.hier
let itlb_stats t = Tlb.stats t.itlb
let dtlb_stats t = Tlb.stats t.dtlb

let set_warming t b =
  t.warming <- b;
  Hierarchy.set_warming t.hier b

let reset_stats t =
  Hierarchy.reset_stats t.hier;
  Tlb.reset_stats t.itlb;
  Tlb.reset_stats t.dtlb

let reset_state t =
  Hierarchy.reset_state t.hier;
  Tlb.reset_state t.itlb;
  Tlb.reset_state t.dtlb;
  (* the filters' residency guarantee died with the cache state *)
  t.last_i_line <- min_int;
  t.last_i_page <- min_int;
  t.last_d_line <- min_int;
  t.last_d_page <- min_int;
  t.last_d_dirty <- false;
  t.warming <- false
