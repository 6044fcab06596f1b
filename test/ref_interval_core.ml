(* The interval timing model restated one event at a time: the reference
   [Interval_core.hooks] is held to.  Each [on_block_mems] segment is
   walked instruction by instruction — the instruction's dispatch cycles
   first, then its own data references in order — through plain
   hierarchy walks, with none of the library core's batching or
   same-line repeat filters.  The block's leader fetch comes on
   [on_block] and the predictor on [on_branch], as in the library. *)

open Sp_isa
open Sp_vm
open Sp_cache
open Sp_cpu

type t = {
  cfg : Core_config.t;
  hier : Hierarchy.t;
  bp : Branch_predictor.t;
  prog : Program.t;
  mutable warming : bool;
  mutable instructions : int;
  mutable base : float;
  mutable branch_stall : float;
  mutable mem_stall : float;
  level_hits : int array;
  mutable last_miss_line : int;
  mutable last_miss_icount : int;
}

let create ?(config = Core_config.i7_3770) (prog : Program.t) =
  {
    cfg = config;
    hier = Hierarchy.create config.caches;
    bp = Branch_predictor.create ();
    prog;
    warming = false;
    instructions = 0;
    base = 0.0;
    branch_stall = 0.0;
    mem_stall = 0.0;
    level_hits = Array.make 4 0;
    last_miss_line = min_int;
    last_miss_icount = min_int;
  }

(* exposed cycles of a long-latency operation beyond its dispatch slot *)
let extra kind =
  match Isa.kind_of_code kind with
  | K_div -> 4.0
  | K_fdiv -> 6.0
  | K_mul -> 0.3
  | K_fmul -> 0.5
  | K_falu -> 0.3
  | K_alu | K_load | K_store | K_movs | K_branch | K_jump | K_sys | K_halt ->
      0.0

let latency t = function
  | Hierarchy.L1 -> t.cfg.l1_latency
  | Hierarchy.L2 -> t.cfg.l2_latency
  | Hierarchy.L3 -> t.cfg.l3_latency
  | Hierarchy.Memory -> t.cfg.memory_latency

let instr t kind =
  if not t.warming then begin
    t.instructions <- t.instructions + 1;
    t.base <-
      t.base +. (1.0 /. float_of_int t.cfg.dispatch_width) +. extra kind
  end

(* a miss overlaps a next-line miss inside the ROB window almost fully,
   any other miss inside the window by half, and is exposed in full
   outside it; stores retire through the store buffer at half cost *)
let access t ~is_write addr =
  let where =
    if is_write then Hierarchy.write_where t.hier addr
    else Hierarchy.read_where t.hier addr
  in
  if not t.warming then begin
    let cls = Hierarchy.latency_class where in
    t.level_hits.(cls) <- t.level_hits.(cls) + 1;
    if where <> Hierarchy.L1 then begin
      let line = addr lsr 6 in
      let gap = t.instructions - t.last_miss_icount in
      let factor =
        if gap <= t.cfg.rob_entries && abs (line - t.last_miss_line) <= 2 then
          0.15
        else if gap <= t.cfg.rob_entries then 0.5
        else 1.0
      in
      t.last_miss_line <- line;
      t.last_miss_icount <- t.instructions;
      let exposure = float_of_int (latency t where) *. factor in
      let exposure = if is_write then exposure *. 0.5 else exposure in
      t.mem_stall <- t.mem_stall +. exposure
    end
  end

let hooks t =
  {
    Hooks.on_block =
      (fun bb ->
        ignore
          (Hierarchy.fetch_where t.hier t.prog.Program.blocks.(bb).fetch_base));
    on_block_span = Hooks.nil.on_block_span;
    on_block_mems =
      (fun pc0 n offs addrs nrefs ->
        let r = ref 0 in
        for i = 0 to n - 1 do
          instr t t.prog.Program.kinds.(pc0 + i);
          while !r < nrefs && offs.(!r) = i do
            let v = addrs.(!r) in
            access t ~is_write:(v land 1 = 1) (v asr 1);
            incr r
          done
        done);
    on_branch =
      (fun pc taken ->
        if t.warming then Branch_predictor.observe t.bp ~pc ~taken
        else if not (Branch_predictor.predict_and_update t.bp ~pc ~taken) then
          t.branch_stall <-
            t.branch_stall +. float_of_int t.cfg.branch_penalty);
  }

let cycles t = t.base +. t.branch_stall +. t.mem_stall

let stats t =
  {
    Interval_core.instructions = t.instructions;
    cycles = cycles t;
    base_cycles = t.base;
    branch_stall_cycles = t.branch_stall;
    memory_stall_cycles = t.mem_stall;
    branch_lookups = Branch_predictor.lookups t.bp;
    branch_mispredicts = Branch_predictor.mispredicts t.bp;
    level_hits = Array.copy t.level_hits;
  }

let set_warming t b =
  t.warming <- b;
  Hierarchy.set_warming t.hier b

let reset_state t =
  t.instructions <- 0;
  t.base <- 0.0;
  t.branch_stall <- 0.0;
  t.mem_stall <- 0.0;
  Array.fill t.level_hits 0 4 0;
  Hierarchy.reset_stats t.hier;
  Branch_predictor.reset_stats t.bp;
  Hierarchy.reset_state t.hier;
  Branch_predictor.reset_state t.bp;
  t.last_miss_line <- min_int;
  t.last_miss_icount <- min_int;
  t.warming <- false
