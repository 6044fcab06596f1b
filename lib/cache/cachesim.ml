(* The cache-simulation unit.  Everything the per-reference path of the
   cache and core tools runs lives in this one compilation unit, so its
   calls are direct, and the small ones inlined, even in the default
   dune profile, which compiles every library [-opaque]: there, a call
   into another module is an indirect [caml_applyN] call whose callee
   the compiler cannot see (DESIGN.md §5g).

   - the set kernel: [touch] under LRU, FIFO and Random;
   - the hierarchy walk, with warming and the next-line prefetcher;
   - the two-level TLBs;
   - the fused [allcache] segment consumer: the i-fetch line/page grid
     and the data references, with the exact same-line and same-page
     filters;
   - the interval core's data-segment walk, which writes each
     reference's serving level into an array the caller owns.

   [Cache], [Hierarchy] and [Tlb] are views of this unit, and
   [Allcache_tool] and [Interval_core] call into it once per segment. *)

type policy = Lru | Fifo | Random

(* ------------------------------------------------------------------ *)
(* The set kernel *)

(* A way holds its line's tag, with the dirty flag in bit 60 so that it
   moves with the tag, or [invalid].  Tags are line addresses shifted
   right by [line_shift + set_shift] >= 4 bits ([validate] enforces the
   bound), so every tag is below 2^59: bit 60 never belongs to a tag,
   and [invalid land tag_mask] = 2^60 - 1 equals no tag.  One compare,
   [entry land tag_mask = tag], therefore tests "valid and tagged
   [tag]".  A valid dirty entry is at least [dirty_bit] and a clean one
   below 2^59, while [invalid] is negative, so [entry >= dirty_bit] is
   "valid and dirty". *)
let dirty_bit = 1 lsl 60
let tag_mask = dirty_bit - 1
let invalid = -1

type cache = {
  cfg : Config.level;
  pol : policy;
  line_shift : int;
  set_mask : int;
  set_shift : int;
  assoc : int;
  tags : int array;
  seed : int;
  mutable rng : Sp_util.Rng.t;
  mutable accesses : int;
  mutable misses : int;
  mutable writebacks : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* [log2] floors silently, so a geometry that is not an exact power of
   two would mis-shape the set index and tag without any error.  Reject
   it at construction instead, naming the level. *)
let validate (cfg : Config.level) =
  let fail fmt =
    Printf.ksprintf (fun s -> invalid_arg ("Cache.create: " ^ s)) fmt
  in
  if not (is_pow2 cfg.line_bytes) then
    fail "%s: line_bytes %d is not a positive power of two" cfg.name
      cfg.line_bytes;
  if cfg.assoc < 1 then fail "%s: assoc %d < 1" cfg.name cfg.assoc;
  let sets = Config.num_sets cfg in
  if not (is_pow2 sets) then
    fail "%s: set count %d (= %dB / %dB lines / %d ways) is not a positive \
          power of two"
      cfg.name sets cfg.size_bytes cfg.line_bytes cfg.assoc;
  if sets * cfg.assoc * cfg.line_bytes <> cfg.size_bytes then
    fail "%s: size %dB is not sets * assoc * line_bytes (%d * %d * %d)"
      cfg.name cfg.size_bytes sets cfg.assoc cfg.line_bytes;
  (* the tag encoding above needs tags shifted by at least 4 bits *)
  if sets * cfg.line_bytes < 16 then
    fail "%s: a way spans %dB (sets * line_bytes), under 16B" cfg.name
      (sets * cfg.line_bytes)

let cache_create ?(policy = Lru) ?(seed = 0x5CA1AB1E) cfg =
  validate cfg;
  let sets = Config.num_sets cfg in
  let seed = seed lxor Sp_util.Rng.hash_string cfg.Config.name in
  {
    cfg;
    pol = policy;
    line_shift = log2 cfg.Config.line_bytes;
    set_mask = sets - 1;
    set_shift = log2 sets;
    assoc = cfg.Config.assoc;
    tags = Array.make (sets * cfg.Config.assoc) invalid;
    seed;
    rng = Sp_util.Rng.create seed;
    accesses = 0;
    misses = 0;
    writebacks = 0;
  }

(* The kernel's loops below are top-level functions over explicit
   arguments rather than closures over the lookup, so a lookup
   allocates nothing.

   LRU move-to-front in one pass over the set at [base]: slot [w] takes
   its predecessor's entry [carry] until the entry tagged [tag] turns up
   (a hit, returned) or slot [last] is overwritten, and the entry
   carried off its end, the least recent, is returned as the victim.  A
   hit therefore ends with slots [1 .. w] holding old slots [0 .. w-1],
   and a miss with every entry one slot down: the caller writes slot 0
   and tells the two apart by the tag.  FIFO reuses it with a tag no
   entry carries, for the slide alone.  Two slots per call: the loop
   overhead is then paid once per pair of ways. *)
let rec slide tags base last tag carry w =
  let e = Array.unsafe_get tags (base + w) in
  Array.unsafe_set tags (base + w) carry;
  if e land tag_mask = tag || w = last then e
  else begin
    let w = w + 1 in
    let e' = Array.unsafe_get tags (base + w) in
    Array.unsafe_set tags (base + w) e;
    if e' land tag_mask = tag || w = last then e'
    else slide tags base last tag e' (w + 1)
  end

(* the way in [w .. last] holding [tag], or -1 *)
let rec find tags base last tag w =
  if Array.unsafe_get tags (base + w) land tag_mask = tag then w
  else if w = last then -1
  else find tags base last tag (w + 1)

(* the first invalid way in [w .. last], or -1 *)
let rec first_invalid tags base last w =
  if Array.unsafe_get tags (base + w) = invalid then w
  else if w = last then -1
  else first_invalid tags base last (w + 1)

let no_tag = -1 (* [e land tag_mask] is never negative *)

(* FIFO and Random never reorder on a hit: a hit in ways [1 .. last]
   only ORs the write's dirty bit [d] into its entry *)
let hit_in_place tags base last tag d =
  let w = if last = 0 then -1 else find tags base last tag 1 in
  if w < 0 then false
  else begin
    Array.unsafe_set tags (base + w) (Array.unsafe_get tags (base + w) lor d);
    true
  end

(* entry [e] leaves the cache: written back if valid and dirty *)
let evict c e = if e >= dirty_bit then c.writebacks <- c.writebacks + 1

(* Look up [addr]'s line and update replacement state; returns hit.
   Counts nothing but write-backs, which are state, not statistics. *)
let touch c ~write addr =
  let line = addr lsr c.line_shift in
  let tag = line lsr c.set_shift in
  let base = (line land c.set_mask) * c.assoc in
  let tags = c.tags in
  let d = if write then dirty_bit else 0 in
  (* MRU short-circuit: a hit in way 0 is a replacement-state no-op
     under every policy (LRU would move it to the slot it already
     occupies; FIFO/Random never reorder on hit), so the only possible
     state change is a write setting the dirty bit: [e0 < d] holds for
     a clean entry under a write and never under a read. *)
  let e0 = Array.unsafe_get tags base in
  if e0 land tag_mask = tag then begin
    if e0 < d then Array.unsafe_set tags base (e0 lor d);
    true
  end
  else
    let last = c.assoc - 1 in
    match c.pol with
    | Lru ->
        let e = if last = 0 then e0 else slide tags base last tag e0 1 in
        if e land tag_mask = tag then begin
          Array.unsafe_set tags base (e lor d);
          true
        end
        else begin
          evict c e;
          Array.unsafe_set tags base (tag lor d);
          false
        end
    | Fifo ->
        hit_in_place tags base last tag d
        || begin
             (* insertion order: the oldest entry leaves from the end *)
             evict c (if last = 0 then e0 else slide tags base last no_tag e0 1);
             Array.unsafe_set tags base (tag lor d);
             false
           end
    | Random ->
        hit_in_place tags base last tag d
        || begin
             (* fill the first invalid way, else evict a random victim *)
             let v =
               match first_invalid tags base last 0 with
               | -1 -> Sp_util.Rng.int c.rng c.assoc
               | w -> w
             in
             evict c (Array.unsafe_get tags (base + v));
             Array.unsafe_set tags (base + v) (tag lor d);
             false
           end

(* A measured lookup whose access the caller counts: the segment loops
   below count a whole segment's L1 and first-level TLB accesses at
   once, and only misses one at a time. *)
let[@inline] lookup c ~write addr =
  touch c ~write addr
  || begin
       c.misses <- c.misses + 1;
       false
     end

let access_rw c ~write addr =
  c.accesses <- c.accesses + 1;
  lookup c ~write addr

let access c addr = access_rw c ~write:false addr
let warm c addr = touch c ~write:false addr

let miss_rate c =
  if c.accesses = 0 then 0.0
  else float_of_int c.misses /. float_of_int c.accesses

let cache_reset_stats c =
  c.accesses <- 0;
  c.misses <- 0;
  c.writebacks <- 0

let cache_reset_state c =
  Array.fill c.tags 0 (Array.length c.tags) invalid;
  c.rng <- Sp_util.Rng.create c.seed;
  cache_reset_stats c

let resident_lines c =
  Array.fold_left (fun acc e -> if e = invalid then acc else acc + 1) 0 c.tags

(* ------------------------------------------------------------------ *)
(* The hierarchy: split L1I/L1D over unified L2 and L3, strictly
   hierarchical and non-inclusive.  A walk returns the level class that
   served it: 0 = L1, 1 = L2, 2 = L3, 3 = memory. *)

type hierarchy = {
  l1i : cache;
  l1d : cache;
  l2 : cache;
  l3 : cache;
  line_bytes : int;  (* L2's line: the prefetcher's stride *)
  prefetch : bool;
  mutable prefetches : int;
  mutable warming : bool;
}

let hierarchy_create ?policy ?(next_line_prefetch = false)
    (cfg : Config.hierarchy) =
  {
    l1i = cache_create ?policy cfg.l1i;
    l1d = cache_create ?policy cfg.l1d;
    l2 = cache_create ?policy cfg.l2;
    l3 = cache_create ?policy cfg.l3;
    line_bytes = cfg.l2.Config.line_bytes;
    prefetch = next_line_prefetch;
    prefetches = 0;
    warming = false;
  }

(* a miss in L2 also installs the following line into L2 and L3,
   counted as a prefetch whether or not the hierarchy is warming *)
let issue_prefetch h addr =
  if h.prefetch then begin
    let next = addr + h.line_bytes in
    ignore (warm h.l2 next);
    ignore (warm h.l3 next);
    h.prefetches <- h.prefetches + 1
  end

(* the walk below an L1 that missed *)
let below_l1 h addr =
  if h.warming then
    if warm h.l2 addr then 1
    else begin
      let level = if warm h.l3 addr then 2 else 3 in
      issue_prefetch h addr;
      level
    end
  else if access h.l2 addr then 1
  else begin
    let level = if access h.l3 addr then 2 else 3 in
    issue_prefetch h addr;
    level
  end

(* A walk from [l1] whose L1 access the caller counts (nothing is
   counted while warming, and a warming walk dirties nothing). *)
let[@inline] walk_uncounted h ~write l1 addr =
  if h.warming then if warm l1 addr then 0 else below_l1 h addr
  else if lookup l1 ~write addr then 0
  else below_l1 h addr

let walk h ~write l1 addr =
  if not h.warming then l1.accesses <- l1.accesses + 1;
  walk_uncounted h ~write l1 addr

let fetch_class h addr = walk h ~write:false h.l1i addr
let read_class h addr = walk h ~write:false h.l1d addr
let write_class h addr = walk h ~write:true h.l1d addr
let fetch h addr = ignore (fetch_class h addr)
let read h addr = ignore (read_class h addr)
let write h addr = ignore (write_class h addr)

let hierarchy_reset_stats h =
  cache_reset_stats h.l1i;
  cache_reset_stats h.l1d;
  cache_reset_stats h.l2;
  cache_reset_stats h.l3;
  h.prefetches <- 0

let hierarchy_reset_state h =
  cache_reset_state h.l1i;
  cache_reset_state h.l1d;
  cache_reset_state h.l2;
  cache_reset_state h.l3;
  h.prefetches <- 0;
  h.warming <- false

(* ------------------------------------------------------------------ *)
(* TLBs: a set-associative cache of page translations (the kernel at
   page granularity, LRU), with an optional unified second level.
   Misses in every level are page-table walks. *)

type tlb = {
  tlb1 : cache;
  tlb2 : cache option;
  mutable walks : int;
  mutable warming_walks : int;
}

let tlb_create ?level2 level1 =
  {
    tlb1 = cache_create level1;
    tlb2 = Option.map (fun l -> cache_create l) level2;
    walks = 0;
    warming_walks = 0;
  }

(* a measured translation whose first-level access the caller counts *)
let tlb_lookup t addr =
  if not (lookup t.tlb1 ~write:false addr) then
    let hit2 = match t.tlb2 with Some c -> access c addr | None -> false in
    if not hit2 then t.walks <- t.walks + 1

let tlb_access t addr =
  t.tlb1.accesses <- t.tlb1.accesses + 1;
  tlb_lookup t addr

let tlb_warm t addr =
  if not (warm t.tlb1 addr) then
    let hit2 = match t.tlb2 with Some c -> warm c addr | None -> false in
    if not hit2 then t.warming_walks <- t.warming_walks + 1

let tlb_reset_stats t =
  cache_reset_stats t.tlb1;
  Option.iter cache_reset_stats t.tlb2;
  t.walks <- 0

let tlb_reset_state t =
  cache_reset_state t.tlb1;
  Option.iter cache_reset_state t.tlb2;
  t.walks <- 0;
  t.warming_walks <- 0

(* ------------------------------------------------------------------ *)
(* The fused [allcache] consumer.  It takes [Hooks.on_block_mems]
   segments — a run of consecutively retired instructions plus all of
   their data references — and walks the i-fetch line/page grid and the
   data stream in one pass.  Two exact filters carry the speedup
   (arguments in DESIGN.md §5g):

   - i-fetch grid: within a segment, consecutive fetches that land on
     one cache line (and one page) after the first are guaranteed
     L1I/ITLB hits, and a repeat hit of the just-served line changes no
     replacement state, so only the first fetch of a new line or page
     walks.  The [last_i_*] memos extend the filter across segments,
     blocks and runs: L1I and the ITLB are touched only by this fetch
     stream, so "same line as the previous fetch" still implies
     residency and MRU position.

   - data same-line/same-page filter: a data reference to the line
     (page) of the immediately preceding data reference is a guaranteed
     L1D (DTLB) hit.  Repeat reads skip the walk, and so do repeat
     writes once the line is known to be dirty ([last_d_dirty]: the
     last walk to it was a measured write, and only repeats have
     touched the L1D since).  Any other write walks, because it must be
     able to set the dirty bit.

   A measured segment is [n] L1I and ITLB accesses and [nrefs] L1D and
   DTLB accesses whatever hits, so they are counted once per segment
   and the walks count only misses.  While warming a guaranteed repeat
   hit is a complete no-op (no statistics, no state change: a warming
   walk carries no write bit), so repeats are dropped.  Misses — and
   only misses — reach the shared L2/L3 in exactly retirement order, so
   every statistic (TLB walks, prefetches and write-backs included) is
   bit-identical to a simulator walking the hierarchy once per event. *)

type allcache = {
  hier : hierarchy;
  itlb : tlb;
  dtlb : tlb;
  code_base : int;
  instr_shift : int;  (* log2 of the instruction size *)
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
}

let allcache_create ~hier ~itlb ~dtlb ~code_base ~instr_bytes =
  if not (is_pow2 instr_bytes) then
    invalid_arg "Cachesim.allcache_create: instruction size not a power of two";
  {
    hier;
    itlb;
    dtlb;
    code_base;
    instr_shift = log2 instr_bytes;
    i_line_shift = hier.l1i.line_shift;
    i_page_shift = itlb.tlb1.line_shift;
    d_line_shift = hier.l1d.line_shift;
    d_page_shift = dtlb.tlb1.line_shift;
    last_i_line = min_int;
    last_i_page = min_int;
    last_d_line = min_int;
    last_d_page = min_int;
    last_d_dirty = false;
  }

(* The i-fetch grid of instruction offsets [cur .. j] of a segment
   starting at byte address [base], line by line (lines are aligned
   and pages are line-multiples, so a line never straddles a page):
   the first fetch of a new page translates, the first of a new line
   walks. *)
let rec fetch_grid a base cur j =
  if cur <= j then begin
    let addr = base + (cur lsl a.instr_shift) in
    let line = addr lsr a.i_line_shift in
    let page = addr lsr a.i_page_shift in
    if page <> a.last_i_page then begin
      if a.hier.warming then tlb_warm a.itlb addr else tlb_lookup a.itlb addr;
      a.last_i_page <- page
    end;
    if line <> a.last_i_line then begin
      ignore (walk_uncounted a.hier ~write:false a.hier.l1i addr);
      a.last_i_line <- line
    end;
    let line_end = (line + 1) lsl a.i_line_shift in
    let bytes = line_end - addr + (1 lsl a.instr_shift) - 1 in
    fetch_grid a base (cur + (bytes lsr a.instr_shift)) j
  end

(* Skip the grid when both ends of [cur .. j] lie on the line fetched
   last: the range is contiguous, so every fetch in it repeats that
   line (and its page).  One end is not enough — a segment can start
   on a line below [last_i_line]. *)
let[@inline] fetch_range a base cur j =
  let s = a.instr_shift and ls = a.i_line_shift in
  if
    (base + (cur lsl s)) lsr ls <> a.last_i_line
    || (base + (j lsl s)) lsr ls <> a.last_i_line
  then fetch_grid a base cur j

let allcache_segment a pc0 n offs addrs nrefs =
  let h = a.hier in
  if not h.warming then begin
    h.l1i.accesses <- h.l1i.accesses + n;
    a.itlb.tlb1.accesses <- a.itlb.tlb1.accesses + n;
    h.l1d.accesses <- h.l1d.accesses + nrefs;
    a.dtlb.tlb1.accesses <- a.dtlb.tlb1.accesses + nrefs
  end;
  let base = a.code_base + (pc0 lsl a.instr_shift) in
  let cur = ref 0 in
  for r = 0 to nrefs - 1 do
    (* fetch up to and including the referencing instruction first: an
       instruction is fetched before it touches data *)
    let j = Array.unsafe_get offs r in
    if j >= !cur then begin
      fetch_range a base !cur j;
      cur := j + 1
    end;
    let v = Array.unsafe_get addrs r in
    let addr = v asr 1 in
    let wr = v land 1 <> 0 in
    let line = addr lsr a.d_line_shift in
    let page = addr lsr a.d_page_shift in
    if page <> a.last_d_page then begin
      if h.warming then tlb_warm a.dtlb addr else tlb_lookup a.dtlb addr;
      a.last_d_page <- page
    end;
    if line <> a.last_d_line || (wr && (not a.last_d_dirty) && not h.warming)
    then begin
      ignore (walk_uncounted h ~write:wr h.l1d addr);
      a.last_d_line <- line;
      (* a warming walk dirties nothing *)
      a.last_d_dirty <- wr && not h.warming
    end
  done;
  if !cur < n then fetch_range a base !cur (n - 1)

(* a closure of the consumer's own arity whose call into the segment
   loop is direct *)
let allcache_consumer a =
  let segment pc0 n offs addrs nrefs = allcache_segment a pc0 n offs addrs nrefs in
  segment

(* the filters' residency guarantee dies with the cache state *)
let allcache_forget a =
  a.last_i_line <- min_int;
  a.last_i_page <- min_int;
  a.last_d_line <- min_int;
  a.last_d_page <- min_int;
  a.last_d_dirty <- false

(* ------------------------------------------------------------------ *)
(* The interval core's data side: the same L1D same-line filter over
   the core's private hierarchy, which sees only this data stream and
   the core's leader fetches.  A repeat of the previous reference's
   line is an L1 hit on the MRU line: no replacement state moves. *)

type core_mem = {
  mem : hierarchy;
  c_line_shift : int;
  mutable c_last_line : int;
  mutable c_last_dirty : bool;
}

let core_mem_create mem =
  {
    mem;
    c_line_shift = mem.l1d.line_shift;
    c_last_line = min_int;
    c_last_dirty = false;
  }

(* Walk [nrefs] references; while measuring, write each one's level
   class into [levels.(r)] and return how many L1 did not serve.  While
   warming, write nothing and return 0. *)
let core_segment c addrs nrefs levels =
  let h = c.mem in
  if h.warming then begin
    for r = 0 to nrefs - 1 do
      let addr = Array.unsafe_get addrs r asr 1 in
      let line = addr lsr c.c_line_shift in
      if line <> c.c_last_line then begin
        ignore (walk_uncounted h ~write:false h.l1d addr);
        c.c_last_line <- line;
        c.c_last_dirty <- false
      end
    done;
    0
  end
  else begin
    h.l1d.accesses <- h.l1d.accesses + nrefs;
    let missed = ref 0 in
    for r = 0 to nrefs - 1 do
      let v = Array.unsafe_get addrs r in
      let addr = v asr 1 in
      let wr = v land 1 <> 0 in
      let line = addr lsr c.c_line_shift in
      let level =
        if line = c.c_last_line && ((not wr) || c.c_last_dirty) then 0
        else begin
          c.c_last_line <- line;
          c.c_last_dirty <- wr;
          walk_uncounted h ~write:wr h.l1d addr
        end
      in
      Array.unsafe_set levels r level;
      if level <> 0 then incr missed
    done;
    !missed
  end

let core_mem_forget c =
  c.c_last_line <- min_int;
  c.c_last_dirty <- false
