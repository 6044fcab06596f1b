open Sp_isa
open Sp_vm
open Sp_cache

type t = {
  cfg : Core_config.t;
  hier : Hierarchy.t;
  bp : Branch_predictor.t;
  code_base : int;
  blocks : Program.block array;
  extra : float array;  (* per-kind extra cycles beyond the base cycle *)
  mutable warming : bool;
  mutable instructions : int;
  mutable cycles : float;
}

(* In-order execution hides nothing: long operations stall the pipe. *)
let extra_of_kind kind =
  match Isa.kind_of_code kind with
  | K_div -> 20.0
  | K_fdiv -> 30.0
  | K_mul -> 2.0
  | K_fmul -> 4.0
  | K_falu -> 2.0
  | K_alu | K_load | K_store | K_movs | K_branch | K_jump | K_sys | K_halt ->
      0.0

let create ?(config = Core_config.i7_3770_sim) (prog : Program.t) =
  {
    cfg = config;
    hier = Hierarchy.create config.caches;
    bp = Branch_predictor.create ();
    code_base = prog.code_base;
    blocks = prog.blocks;
    extra = Array.init Isa.num_kinds extra_of_kind;
    warming = false;
    instructions = 0;
    cycles = 0.0;
  }

let latency t (where : Hierarchy.hit_level) =
  match where with
  | Hierarchy.L1 -> t.cfg.l1_latency
  | Hierarchy.L2 -> t.cfg.l2_latency
  | Hierarchy.L3 -> t.cfg.l3_latency
  | Hierarchy.Memory -> t.cfg.memory_latency

let on_access t ~is_write addr =
  let where =
    if is_write then Hierarchy.write_where t.hier addr
    else Hierarchy.read_where t.hier addr
  in
  if not t.warming then
    (* a blocking access stalls for its full latency (stores for half:
       a simple store buffer) *)
    let l = float_of_int (latency t where) in
    t.cycles <- t.cycles +. (if is_write then l /. 2.0 else l)

let hooks t =
  {
    Hooks.nil with
    Hooks.on_instr =
      (fun _pc kind ->
        if not t.warming then begin
          t.instructions <- t.instructions + 1;
          t.cycles <- t.cycles +. 1.0 +. Array.unsafe_get t.extra kind
        end);
    on_block =
      (fun bb ->
        let leader = (Array.unsafe_get t.blocks bb).Program.start_pc in
        ignore
          (Hierarchy.fetch_where t.hier
             (t.code_base + (leader * Isa.bytes_per_instr))));
    on_read = (fun addr -> on_access t ~is_write:false addr);
    on_write = (fun addr -> on_access t ~is_write:true addr);
    on_branch =
      (fun pc taken ->
        if t.warming then Branch_predictor.observe t.bp ~pc ~taken
        else if not (Branch_predictor.predict_and_update t.bp ~pc ~taken) then
          t.cycles <- t.cycles +. float_of_int t.cfg.branch_penalty);
  }

let cycles t = t.cycles
let instructions t = t.instructions

let cpi t =
  if t.instructions = 0 then 0.0 else t.cycles /. float_of_int t.instructions

let set_warming t b =
  t.warming <- b;
  Hierarchy.set_warming t.hier b

let reset_stats t =
  t.instructions <- 0;
  t.cycles <- 0.0;
  Hierarchy.reset_stats t.hier;
  Branch_predictor.reset_stats t.bp

let reset_state t =
  reset_stats t;
  Hierarchy.reset_state t.hier;
  Branch_predictor.reset_state t.bp;
  (* [Hierarchy.reset_state] turned the hierarchy's warming off: keep
     the core's flag in step, as a fresh core has both off *)
  t.warming <- false
