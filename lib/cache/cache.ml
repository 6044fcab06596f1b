type policy = Lru | Fifo | Random

(* Tags are line addresses shifted right by the set bits: far below bit
   60, so the dirty flag rides in a high bit and moves with its tag. *)
let dirty_bit = 1 lsl 60
let tag_mask = dirty_bit - 1

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
      cfg.name cfg.size_bytes sets cfg.assoc cfg.line_bytes

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
    tags = Array.make (sets * cfg.Config.assoc) (-1);
    seed;
    rng = Sp_util.Rng.create seed;
    accesses = 0;
    misses = 0;
    writebacks = 0;
  }

let config t = t.cfg
let policy t = t.pol

(* Look up [addr]'s line and update replacement state; returns hit. *)
let touch t ~write addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let tag = line lsr t.set_shift in
  let base = set * t.assoc in
  let tags = t.tags in
  (* MRU short-circuit: a hit in way 0 is a replacement-state no-op
     under every policy (LRU would rotate it to the slot it already
     occupies; FIFO/Random never reorder on hit), so the only possible
     state change is a write setting the dirty bit. *)
  let t0 = Array.unsafe_get tags base in
  if t0 >= 0 && t0 land tag_mask = tag then begin
    if write && t0 land dirty_bit = 0 then
      Array.unsafe_set tags base (t0 lor dirty_bit);
    true
  end
  else begin
    let rec find w =
      if w >= t.assoc then -1
      else if Array.unsafe_get tags (base + w) land tag_mask = tag
              && Array.unsafe_get tags (base + w) >= 0
      then w
      else find (w + 1)
    in
    let w = find 1 in
    if w >= 0 then begin
      (* hit: LRU rotates the entry to slot 0; FIFO/Random leave order *)
      let entry = tags.(base + w) lor (if write then dirty_bit else 0) in
      (match t.pol with
      | Lru ->
          for i = w downto 1 do
            Array.unsafe_set tags (base + i)
              (Array.unsafe_get tags (base + i - 1))
          done;
          Array.unsafe_set tags base entry
      | Fifo | Random -> tags.(base + w) <- entry);
      true
    end
    else begin
      let entry = tag lor (if write then dirty_bit else 0) in
      let evict victim =
        let old = tags.(base + victim) in
        if old >= 0 && old land dirty_bit <> 0 then
          t.writebacks <- t.writebacks + 1
      in
      (match t.pol with
      | Lru | Fifo ->
          evict (t.assoc - 1);
          for i = t.assoc - 1 downto 1 do
            Array.unsafe_set tags (base + i)
              (Array.unsafe_get tags (base + i - 1))
          done;
          Array.unsafe_set tags base entry
      | Random ->
          (* fill an invalid way first, else evict a random victim *)
          let rec invalid w =
            if w >= t.assoc then -1
            else if tags.(base + w) < 0 then w
            else invalid (w + 1)
          in
          let victim =
            match invalid 0 with
            | -1 -> Sp_util.Rng.int t.rng t.assoc
            | w -> w
          in
          evict victim;
          tags.(base + victim) <- entry);
      false
    end
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
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.rng <- Sp_util.Rng.create t.seed;
  reset_stats t

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
