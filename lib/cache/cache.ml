type policy = Lru | Fifo | Random

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

type t = {
  cfg : Config.level;
  pol : policy;
  line_shift : int;
  set_mask : int;
  set_shift : int;
  assoc : int;
  tags : int array;  (* sets * assoc; recency/insertion-ordered, slot 0 = MRU *)
  seed : int;  (* seeds [rng] at creation and on every reset *)
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

let create ?(policy = Lru) ?(seed = 0x5CA1AB1E) cfg =
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

let config t = t.cfg
let policy t = t.pol

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
   entry carries, for the slide alone. *)
let rec slide tags base last tag carry w =
  let e = Array.unsafe_get tags (base + w) in
  Array.unsafe_set tags (base + w) carry;
  if e land tag_mask = tag || w = last then e
  else slide tags base last tag e (w + 1)

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
let evict t e = if e >= dirty_bit then t.writebacks <- t.writebacks + 1

(* Look up [addr]'s line and update replacement state; returns hit. *)
let touch t ~write addr =
  let line = addr lsr t.line_shift in
  let tag = line lsr t.set_shift in
  let base = (line land t.set_mask) * t.assoc in
  let tags = t.tags in
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
    let last = t.assoc - 1 in
    match t.pol with
    | Lru ->
        let e = if last = 0 then e0 else slide tags base last tag e0 1 in
        if e land tag_mask = tag then begin
          Array.unsafe_set tags base (e lor d);
          true
        end
        else begin
          evict t e;
          Array.unsafe_set tags base (tag lor d);
          false
        end
    | Fifo ->
        hit_in_place tags base last tag d
        || begin
             (* insertion order: the oldest entry leaves from the end *)
             evict t (if last = 0 then e0 else slide tags base last no_tag e0 1);
             Array.unsafe_set tags base (tag lor d);
             false
           end
    | Random ->
        hit_in_place tags base last tag d
        || begin
             (* fill the first invalid way, else evict a random victim *)
             let v =
               match first_invalid tags base last 0 with
               | -1 -> Sp_util.Rng.int t.rng t.assoc
               | w -> w
             in
             evict t (Array.unsafe_get tags (base + v));
             Array.unsafe_set tags (base + v) (tag lor d);
             false
           end

let access_rw t ~write addr =
  let hit = touch t ~write addr in
  t.accesses <- t.accesses + 1;
  if not hit then t.misses <- t.misses + 1;
  hit

let access t addr = access_rw t ~write:false addr

(* Fold [n] guaranteed-hit accesses into the counters without walking
   the set.  Only sound when the caller can prove every access would
   hit (e.g. repeats of the line it just touched): a read hit in any
   way changes neither residency, order (the line is already MRU under
   LRU; FIFO/Random never reorder on hit) nor dirty bits, so the whole
   batch is a pure counter bump. *)
let access_bulk t n = t.accesses <- t.accesses + n

let warm t addr = touch t ~write:false addr

let accesses t = t.accesses
let misses t = t.misses
let hits t = t.accesses - t.misses
let writebacks t = t.writebacks

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let reset_state t =
  Array.fill t.tags 0 (Array.length t.tags) invalid;
  t.rng <- Sp_util.Rng.create t.seed;
  reset_stats t

let resident_lines t =
  Array.fold_left (fun acc e -> if e = invalid then acc else acc + 1) 0 t.tags
