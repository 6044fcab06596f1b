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
  mem : Cachesim.core_mem;  (* the data-segment walk over [hier] *)
  bp : Branch_predictor.t;
  blocks : Program.block array;
  kinds : int array;
  dispatch_cost : float;
  kind_extra : float array;
  latency : float array;  (* exposed cycles per level class *)
  rob_window : int;  (* instructions the ROB can hold in flight *)
  i_line_shift : int;
  (* line id ([byte_addr lsr i_line_shift]) of the previous leader
     fetch; [min_int] = none, reset with the cache state *)
  mutable last_i_line : int;
  mutable levels : int array;  (* level class per reference of a segment *)
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
  let hier = Hierarchy.create config.caches in
  {
    cfg = config;
    hier;
    mem = Cachesim.core_mem_create hier;
    bp = Branch_predictor.create ();
    blocks = prog.blocks;
    kinds = prog.kinds;
    dispatch_cost = 1.0 /. float_of_int config.dispatch_width;
    kind_extra = Array.init Isa.num_kinds extra_of_kind;
    latency =
      Array.map float_of_int
        [|
          config.l1_latency;
          config.l2_latency;
          config.l3_latency;
          config.memory_latency;
        |];
    rob_window = config.rob_entries;
    i_line_shift = log2 config.caches.l1i.Config.line_bytes;
    last_i_line = min_int;
    levels = Array.make 64 0;
    warming = false;
    instructions = 0;
    cyc = { base = 0.0; branch_stall = 0.0; mem_stall = 0.0 };
    level_hits = Array.make 4 0;
    last_miss_line = min_int;
    last_miss_icount = min_int;
  }

(* Charge a miss of level class [level] (not L1), by the reference of
   the instruction that brings the count to [icount], its exposed
   latency.  Streams (next-line misses inside the ROB window) overlap
   almost fully; independent scattered misses inside the window overlap
   partially; isolated or dependent-looking misses pay in full minus
   what the window hides.  The exposure goes straight into the flat
   [cyc] record rather than back to the caller, which would box it. *)
let charge_miss t ~icount ~is_write ~addr level =
  let line = addr lsr 6 in
  let gap = icount - t.last_miss_icount in
  let factor =
    if gap <= t.rob_window && abs (line - t.last_miss_line) <= 2 then 0.15
    else if gap <= t.rob_window then 0.5
    else 1.0
  in
  t.last_miss_line <- line;
  t.last_miss_icount <- icount;
  let exposure = Array.unsafe_get t.latency level *. factor in
  (* stores retire through the store buffer: half exposure *)
  let exposure = if is_write then exposure *. 0.5 else exposure in
  t.cyc.mem_stall <- t.cyc.mem_stall +. exposure

(* Leader fetch, with the same-line repeat filter of the fused
   [allcache] tool (DESIGN.md §5g): the core's L1I sees nothing but
   this fetch stream, so a fetch from the line the previous fetch
   touched is a guaranteed hit on the MRU line — a pure counter bump
   when measured, a no-op while warming.  Fetches never reach the
   timing counters, whatever level serves them. *)
let fetch_leader t bb =
  let a = (Array.unsafe_get t.blocks bb).Program.fetch_base in
  let line = a lsr t.i_line_shift in
  if line = t.last_i_line then begin
    let l1i = t.hier.Cachesim.l1i in
    if not t.warming then l1i.accesses <- l1i.accesses + 1
  end
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
   with their data references.  Bit-identical to a walk of the same
   events one at a time (the per-event reference core the test suites
   hold it to) because
   - base cycles still accumulate one instruction at a time, in
     retirement order and with the same association, so no float
     rounding changes (a per-block sum would).  A kind with no extra
     cycles skips its [+. 0.0], which on the positive finite sum
     changes no bit;
   - [Cachesim.core_segment] walks the references in order, with the
     allcache tool's exact L1D same-line filter, and reports each one's
     level; the misses are then charged in reference order, so the
     miss window sees the same sequence;
   - reference [r] is charged at [icount = first + offs.(r) + 1], the
     count once its own instruction is counted, and the count
     [charge_miss] measures its window in. *)
let process t pc0 n offs addrs nrefs =
  if t.warming then ignore (Cachesim.core_segment t.mem addrs nrefs t.levels)
  else begin
    let kinds = t.kinds and kind_extra = t.kind_extra in
    let dispatch = t.dispatch_cost in
    let acc = ref t.cyc.base in
    for pc = pc0 to pc0 + n - 1 do
      let x = !acc +. dispatch in
      let extra = Array.unsafe_get kind_extra (Array.unsafe_get kinds pc) in
      acc := if extra = 0.0 then x else x +. extra
    done;
    t.cyc.base <- !acc;
    if Array.length t.levels < nrefs then t.levels <- Array.make (2 * nrefs) 0;
    let levels = t.levels in
    let missed = Cachesim.core_segment t.mem addrs nrefs levels in
    let first = t.instructions in
    t.level_hits.(0) <- t.level_hits.(0) + (nrefs - missed);
    if missed > 0 then
      for r = 0 to nrefs - 1 do
        let level = Array.unsafe_get levels r in
        if level <> 0 then begin
          t.level_hits.(level) <- t.level_hits.(level) + 1;
          let v = Array.unsafe_get addrs r in
          charge_miss t
            ~icount:(first + Array.unsafe_get offs r + 1)
            ~is_write:(v land 1 <> 0) ~addr:(v asr 1) level
        end
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
  Cachesim.core_mem_forget t.mem;
  t.warming <- false

let config t = t.cfg

let seconds t = cycles t /. (t.cfg.freq_ghz *. 1e9)
