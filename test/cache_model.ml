(* Independent models of the cache simulation, sharing no code with
   [Sp_cache]'s kernel: the references the kernel's views and the fused
   tools are held to (ROADMAP item 11: no reference built on the code it
   checks).  A set is a list, the L1 -> L2 -> L3 walk, the next-line
   prefetcher and the two TLB levels are written out below, and only the
   geometry records ([Config], [Tlb.config]) and the statistics records
   the views report are shared. *)

open Sp_cache

(* An independent model of [Cache]: one list per set, no shared code
   with the kernel beyond the line address ([addr lsr line_shift]) and
   the Random policy's seed derivation and draw rule.  LRU keeps the
   set most recent first; FIFO keeps it newest first and never reorders
   on a hit; Random keeps [assoc] fixed positions, fills the first
   empty one and otherwise evicts position [Rng.int rng assoc]. *)

type model = {
  m_policy : Cache.policy;
  m_line_shift : int;
  m_sets : int;
  m_assoc : int;
  m_seed : int;
  mutable m_rng : Sp_util.Rng.t;
  (* LRU/FIFO: (line, dirty) in order, at most [assoc];
     Random: exactly [assoc] positions *)
  m_lists : (int * bool) list array;
  m_slots : (int * bool) option list array;
  mutable m_accesses : int;
  mutable m_misses : int;
  mutable m_writebacks : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let model_create policy (cfg : Config.level) =
  let sets = Config.num_sets cfg in
  let seed = 0x5CA1AB1E lxor Sp_util.Rng.hash_string cfg.Config.name in
  {
    m_policy = policy;
    m_line_shift = log2 cfg.Config.line_bytes;
    m_sets = sets;
    m_assoc = cfg.Config.assoc;
    m_seed = seed;
    m_rng = Sp_util.Rng.create seed;
    m_lists = Array.make sets [];
    m_slots = Array.make sets (List.init cfg.Config.assoc (fun _ -> None));
    m_accesses = 0;
    m_misses = 0;
    m_writebacks = 0;
  }

let model_reset m =
  Array.fill m.m_lists 0 m.m_sets [];
  Array.fill m.m_slots 0 m.m_sets (List.init m.m_assoc (fun _ -> None));
  m.m_rng <- Sp_util.Rng.create m.m_seed;
  m.m_accesses <- 0;
  m.m_misses <- 0;
  m.m_writebacks <- 0

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* one lookup; [count] is false for a warm, which leaves the counters
   alone but not the state *)
let model_touch m ~count ~write addr =
  let line = addr lsr m.m_line_shift in
  let set = line land (m.m_sets - 1) in
  let evict dirty = if dirty then m.m_writebacks <- m.m_writebacks + 1 in
  let hit =
    match m.m_policy with
    | Cache.Lru | Cache.Fifo -> (
        let ways = m.m_lists.(set) in
        match List.assoc_opt line ways with
        | Some dirty ->
            let entry = (line, dirty || write) in
            m.m_lists.(set) <-
              (if m.m_policy = Cache.Lru then
                 entry :: List.remove_assoc line ways
               else
                 List.map (fun (l, d) -> if l = line then entry else (l, d)) ways);
            true
        | None ->
            if List.length ways = m.m_assoc then
              evict (snd (List.nth ways (m.m_assoc - 1)));
            m.m_lists.(set) <- (line, write) :: take (m.m_assoc - 1) ways;
            false)
    | Cache.Random -> (
        let slots = m.m_slots.(set) in
        if List.mem_assoc line (List.filter_map Fun.id slots) then begin
          m.m_slots.(set) <-
            List.map
              (function
                | Some (l, d) when l = line -> Some (l, d || write)
                | s -> s)
              slots;
          true
        end
        else
          let rec first_empty i = function
            | [] -> None
            | None :: _ -> Some i
            | Some _ :: rest -> first_empty (i + 1) rest
          in
          let victim =
            match first_empty 0 slots with
            | Some i -> i
            | None -> Sp_util.Rng.int m.m_rng m.m_assoc
          in
          m.m_slots.(set) <-
            List.mapi
              (fun i s ->
                if i <> victim then s
                else begin
                  (match s with Some (_, d) -> evict d | None -> ());
                  Some (line, write)
                end)
              slots;
          false)
  in
  if count then begin
    m.m_accesses <- m.m_accesses + 1;
    if not hit then m.m_misses <- m.m_misses + 1
  end;
  hit

let model_resident m =
  match m.m_policy with
  | Cache.Lru | Cache.Fifo ->
      Array.fold_left (fun acc l -> acc + List.length l) 0 m.m_lists
  | Cache.Random ->
      Array.fold_left
        (fun acc l -> acc + List.length (List.filter Option.is_some l))
        0 m.m_slots

(* ------------------------------------------------------------------ *)
(* The hierarchy: split L1I/L1D over unified L2 and L3, strictly
   hierarchical and non-inclusive.  While warming a walk counts nothing
   and dirties nothing; a miss in L2 installs the following L2 line into
   L2 and L3 when the prefetcher is on, counted as a prefetch even while
   warming.  A walk returns the level that served it: 0 = L1, 1 = L2,
   2 = L3, 3 = memory. *)

type hier = {
  h_l1i : model;
  h_l1d : model;
  h_l2 : model;
  h_l3 : model;
  h_next_line : int;  (* L2's line size *)
  h_prefetch : bool;
  mutable h_prefetches : int;
  mutable h_warming : bool;
}

let hier_create ?(policy = Cache.Lru) ?(prefetch = false)
    (cfg : Config.hierarchy) =
  {
    h_l1i = model_create policy cfg.Config.l1i;
    h_l1d = model_create policy cfg.Config.l1d;
    h_l2 = model_create policy cfg.Config.l2;
    h_l3 = model_create policy cfg.Config.l3;
    h_next_line = cfg.Config.l2.Config.line_bytes;
    h_prefetch = prefetch;
    h_prefetches = 0;
    h_warming = false;
  }

let hier_walk h ~instr ~write addr =
  let count = not h.h_warming in
  let l1 = if instr then h.h_l1i else h.h_l1d in
  if model_touch l1 ~count ~write:(write && count) addr then 0
  else if model_touch h.h_l2 ~count ~write:false addr then 1
  else begin
    let level = if model_touch h.h_l3 ~count ~write:false addr then 2 else 3 in
    if h.h_prefetch then begin
      let next = addr + h.h_next_line in
      ignore (model_touch h.h_l2 ~count:false ~write:false next);
      ignore (model_touch h.h_l3 ~count:false ~write:false next);
      h.h_prefetches <- h.h_prefetches + 1
    end;
    level
  end

let hier_fetch h addr = hier_walk h ~instr:true ~write:false addr
let hier_read h addr = hier_walk h ~instr:false ~write:false addr
let hier_write h addr = hier_walk h ~instr:false ~write:true addr

let rate n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let level_stats m =
  {
    Hierarchy.accesses = m.m_accesses;
    misses = m.m_misses;
    miss_rate = rate m.m_misses m.m_accesses;
  }

let hier_stats h =
  {
    Hierarchy.l1i = level_stats h.h_l1i;
    l1d = level_stats h.h_l1d;
    l2 = level_stats h.h_l2;
    l3 = level_stats h.h_l3;
  }

let hier_writebacks h =
  (h.h_l1d.m_writebacks, h.h_l2.m_writebacks, h.h_l3.m_writebacks)

let hier_reset h =
  List.iter model_reset [ h.h_l1i; h.h_l1d; h.h_l2; h.h_l3 ];
  h.h_prefetches <- 0;
  h.h_warming <- false

(* ------------------------------------------------------------------ *)
(* A TLB: an LRU set-associative cache of page translations, with an
   optional second level probed on a first-level miss; a miss in every
   level is a page-table walk. *)

type tlb = {
  t1 : model;
  t2 : model option;
  mutable t_walks : int;
}

let tlb_level (c : Tlb.config) =
  Config.level ~name:c.Tlb.name
    ~size_kb:(c.Tlb.entries * c.Tlb.page_bytes / 1024)
    ~assoc:c.Tlb.assoc ~line_bytes:c.Tlb.page_bytes

let tlb_create ?level2 cfg =
  {
    t1 = model_create Cache.Lru (tlb_level cfg);
    t2 = Option.map (fun c -> model_create Cache.Lru (tlb_level c)) level2;
    t_walks = 0;
  }

let tlb_translate t ~warming addr =
  let count = not warming in
  if not (model_touch t.t1 ~count ~write:false addr) then begin
    let hit2 =
      match t.t2 with
      | Some m -> model_touch m ~count ~write:false addr
      | None -> false
    in
    if count && not hit2 then t.t_walks <- t.t_walks + 1
  end

let tlb_stats t =
  {
    Tlb.accesses = t.t1.m_accesses;
    misses = t.t1.m_misses;
    walks = t.t_walks;
    miss_rate = rate t.t1.m_misses t.t1.m_accesses;
    walk_rate = rate t.t_walks t.t1.m_accesses;
  }
