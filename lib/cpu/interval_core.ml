open Sp_isa
open Sp_vm
open Sp_cache

type stats = {
  instructions : int;
  cycles : float;
  base_cycles : float;
  branch_stall_cycles : float;
  memory_stall_cycles : float;
  branch_lookups : int;
  branch_mispredicts : int;
  level_hits : int array;
}

(* The cycle accumulators.  An all-float record is stored flat, so the
   hot updates below allocate nothing. *)
type cycles = {
  mutable base : float;
  mutable branch_stall : float;
  mutable mem_stall : float;
}

type t = {
  cfg : Core_config.t;
  hier : Hierarchy.t;
  bp : Branch_predictor.t;
  blocks : Program.block array;
  kinds : int array;
  dispatch_cost : float;
  kind_extra : float array;
  rob_window : int;  (* instructions the ROB can hold in flight *)
  i_line_shift : int;
  d_line_shift : int;
  (* line ids ([byte_addr lsr shift]) of the previous i-fetch and data
     reference; [min_int] = none, reset with the cache state *)
  mutable last_i_line : int;
  mutable last_d_line : int;
  (* the L1D holds [last_d_line] with its dirty bit set *)
  mutable last_d_dirty : bool;
  mutable warming : bool;
  mutable instructions : int;
  cyc : cycles;
  level_hits : int array;
  mutable last_miss_line : int;
  mutable last_miss_icount : int;
}

(* Exposed fraction of a long-latency operation that the out-of-order
   window cannot hide, per micro-op kind. *)
let extra_of_kind kind =
  match Isa.kind_of_code kind with
  | K_div -> 4.0
  | K_fdiv -> 6.0
  | K_mul -> 0.3
  | K_fmul -> 0.5
  | K_falu -> 0.3
  | K_alu | K_load | K_store | K_movs | K_branch | K_jump | K_sys | K_halt ->
      0.0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(config = Core_config.i7_3770) (prog : Program.t) =
  {
    cfg = config;
    hier = Hierarchy.create config.caches;
    bp = Branch_predictor.create ();
    blocks = prog.blocks;
    kinds = prog.kinds;
    dispatch_cost = 1.0 /. float_of_int config.dispatch_width;
    kind_extra = Array.init Isa.num_kinds extra_of_kind;
    rob_window = config.rob_entries;
    i_line_shift = log2 config.caches.l1i.Config.line_bytes;
    d_line_shift = log2 config.caches.l1d.Config.line_bytes;
    last_i_line = min_int;
    last_d_line = min_int;
    last_d_dirty = false;
    warming = false;
    instructions = 0;
    cyc = { base = 0.0; branch_stall = 0.0; mem_stall = 0.0 };
    level_hits = Array.make 4 0;
    last_miss_line = min_int;
    last_miss_icount = min_int;
  }

let latency t (where : Hierarchy.hit_level) =
  match where with
  | Hierarchy.L1 -> t.cfg.l1_latency
  | Hierarchy.L2 -> t.cfg.l2_latency
  | Hierarchy.L3 -> t.cfg.l3_latency
  | Hierarchy.Memory -> t.cfg.memory_latency

(* Charge a miss served by [where] (not L1) its exposed latency.
   Streams (next-line misses inside the ROB window) overlap almost
   fully; independent scattered misses inside the window overlap
   partially; isolated or dependent-looking misses pay in full minus
   what the window hides.  The exposure goes straight into the flat
   [cyc] record rather than back to the caller, which would box it. *)
let charge_miss t ~is_write ~addr ~where =
  let line = addr lsr 6 in
  let gap = t.instructions - t.last_miss_icount in
  let factor =
    if gap <= t.rob_window && abs (line - t.last_miss_line) <= 2 then 0.15
    else if gap <= t.rob_window then 0.5
    else 1.0
  in
  t.last_miss_line <- line;
  t.last_miss_icount <- t.instructions;
  let exposure = float_of_int (latency t where) *. factor in
  (* stores retire through the store buffer: half exposure *)
  let exposure = if is_write then exposure *. 0.5 else exposure in
  t.cyc.mem_stall <- t.cyc.mem_stall +. exposure

let on_access t ~is_write addr =
  let where =
    if is_write then Hierarchy.write_where t.hier addr
    else Hierarchy.read_where t.hier addr
  in
  if not t.warming then
    match where with
    | Hierarchy.L1 ->
        (* exposes nothing and leaves the miss window alone: adding its
           0 stall would not change a bit *)
        t.level_hits.(0) <- t.level_hits.(0) + 1
    | Hierarchy.L2 | Hierarchy.L3 | Hierarchy.Memory ->
        let cls = Hierarchy.latency_class where in
        t.level_hits.(cls) <- t.level_hits.(cls) + 1;
        charge_miss t ~is_write ~addr ~where

(* Leader fetch, with the same-line repeat filter of the fused
   [allcache] tool (DESIGN.md §5g): the core's L1I sees nothing but
   this fetch stream, so a fetch from the line the previous fetch
   touched is a guaranteed hit on the MRU line — a pure counter bump
   when measured, a no-op while warming.  Fetches never reach the
   timing counters, whatever level serves them. *)
let fetch_leader t bb =
  let a = (Array.unsafe_get t.blocks bb).Program.fetch_base in
  let line = a lsr t.i_line_shift in
  if line = t.last_i_line then Hierarchy.fetch_repeats t.hier 1
  else begin
    Hierarchy.fetch t.hier a;
    t.last_i_line <- line
  end

let on_branch t pc taken =
  if t.warming then Branch_predictor.observe t.bp ~pc ~taken
  else if not (Branch_predictor.predict_and_update t.bp ~pc ~taken) then
    t.cyc.branch_stall <-
      t.cyc.branch_stall +. float_of_int t.cfg.branch_penalty

(* One [on_block_mems] segment: [n] retired instructions from [pc0]
   with their data references.  Bit-identical to the per-instruction
   callbacks because
   - base cycles still accumulate one instruction at a time, in
     retirement order and with the same association, so no float
     rounding changes (a per-block sum would);
   - reference [r] sees [instructions = first + offs.(r) + 1], the
     count [on_read]/[on_write] saw once [on_instr] had counted their
     instruction, and the count [miss_exposure] measures its window in;
   - the L1D same-line filter is exact: the L1D sees only this data
     stream, so a reference to the previous reference's line is an L1
     hit on the MRU line — no replacement or miss-window state moves
     and its exposure is 0.  Measured repeat reads fold into the L1D
     counter and [level_hits.(0)], and so do repeat writes once the
     line is known to be dirty ([last_d_dirty]); any other write walks
     (it can set the dirty bit).  While warming, every repeat is a
     no-op (warming walks carry no write bit and dirty nothing) and is
     dropped. *)
let process t pc0 n offs addrs nrefs =
  if t.warming then
    for r = 0 to nrefs - 1 do
      let v = Array.unsafe_get addrs r in
      let addr = v asr 1 in
      let line = addr lsr t.d_line_shift in
      if line <> t.last_d_line then begin
        if v land 1 <> 0 then Hierarchy.write t.hier addr
        else Hierarchy.read t.hier addr;
        t.last_d_line <- line;
        t.last_d_dirty <- false
      end
    done
  else begin
    let kinds = t.kinds and kind_extra = t.kind_extra in
    let dispatch = t.dispatch_cost in
    let acc = ref t.cyc.base in
    for pc = pc0 to pc0 + n - 1 do
      acc :=
        !acc +. dispatch
        +. Array.unsafe_get kind_extra (Array.unsafe_get kinds pc)
    done;
    t.cyc.base <- !acc;
    let first = t.instructions in
    for r = 0 to nrefs - 1 do
      t.instructions <- first + Array.unsafe_get offs r + 1;
      let v = Array.unsafe_get addrs r in
      let addr = v asr 1 in
      let line = addr lsr t.d_line_shift in
      let wr = v land 1 <> 0 in
      if line = t.last_d_line && ((not wr) || t.last_d_dirty) then begin
        Hierarchy.data_repeats t.hier 1;
        t.level_hits.(0) <- t.level_hits.(0) + 1
      end
      else begin
        on_access t ~is_write:wr addr;
        t.last_d_dirty <- wr
      end;
      t.last_d_line <- line
    done;
    t.instructions <- first + n
  end

let hooks t =
  {
    Hooks.nil with
    Hooks.on_block = (fun bb -> fetch_leader t bb);
    on_block_mems = (fun pc0 n offs addrs nrefs -> process t pc0 n offs addrs nrefs);
    on_branch = (fun pc taken -> on_branch t pc taken);
  }

(* The per-instruction callback set the block-level one replaced, with
   identical statistics (enforced by the differential suite). *)
let hooks_per_instr t =
  {
    Hooks.nil with
    Hooks.on_instr =
      (fun _pc kind ->
        if not t.warming then begin
          t.instructions <- t.instructions + 1;
          t.cyc.base <-
            t.cyc.base +. t.dispatch_cost +. Array.unsafe_get t.kind_extra kind
        end);
    on_block =
      (fun bb ->
        (* fetch at block granularity; instruction lines are hot, so
           modelling per-block fetch keeps the i-side realistic at a
           fraction of the lookup cost *)
        ignore
          (Hierarchy.fetch_where t.hier
             (Array.unsafe_get t.blocks bb).Program.fetch_base));
    on_read = (fun addr -> on_access t ~is_write:false addr);
    on_write = (fun addr -> on_access t ~is_write:true addr);
    on_branch = (fun pc taken -> on_branch t pc taken);
  }

let cycles t = t.cyc.base +. t.cyc.branch_stall +. t.cyc.mem_stall

let instructions t = t.instructions

let cpi t =
  if t.instructions = 0 then 0.0 else cycles t /. float_of_int t.instructions

let cpi_of_stats (s : stats) =
  if s.instructions = 0 then 0.0
  else s.cycles /. float_of_int s.instructions

let stats t =
  {
    instructions = t.instructions;
    cycles = cycles t;
    base_cycles = t.cyc.base;
    branch_stall_cycles = t.cyc.branch_stall;
    memory_stall_cycles = t.cyc.mem_stall;
    branch_lookups = Branch_predictor.lookups t.bp;
    branch_mispredicts = Branch_predictor.mispredicts t.bp;
    level_hits = Array.copy t.level_hits;
  }

let set_warming t b =
  t.warming <- b;
  Hierarchy.set_warming t.hier b

let reset_stats t =
  t.instructions <- 0;
  t.cyc.base <- 0.0;
  t.cyc.branch_stall <- 0.0;
  t.cyc.mem_stall <- 0.0;
  Array.fill t.level_hits 0 4 0;
  Hierarchy.reset_stats t.hier;
  Branch_predictor.reset_stats t.bp

let reset_state t =
  reset_stats t;
  Hierarchy.reset_state t.hier;
  Branch_predictor.reset_state t.bp;
  t.last_miss_line <- min_int;
  t.last_miss_icount <- min_int;
  (* the filters' residency guarantee died with the cache state *)
  t.last_i_line <- min_int;
  t.last_d_line <- min_int;
  t.last_d_dirty <- false;
  t.warming <- false

let config t = t.cfg

let seconds t = cycles t /. (t.cfg.freq_ghz *. 1e9)
