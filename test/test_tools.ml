(* Differential tests for the span and segment tools.

   [Inorder_core], [Reuse.hooks_of], [Roi_tool], [Inscount] and the
   [rate] experiment's [Shared_hierarchy.hooks] read block-level
   aggregates: spans and [on_block_mems] segments.  On the fused cache
   suite's random memory-heavy programs, each runs on the engine in
   random fuel legs and must equal a per-event form of itself fed
   one event at a time from [Test_blockstep]'s independent reference
   interpreter, run in the same legs:
   - the in-order core's instructions, and cycles by bits, with warming
     flipped at leg boundaries;
   - the reuse profile's total, cold count and histogram;
   - the ROI arrival of every pc, with one leg boundary placed exactly
     on a mid-block target's arrival;
   - per-kind instruction counts;
   - a two-core shared hierarchy's per-core and shared-L3 statistics,
     the cores taking the legs in turn. *)

open Sp_isa
open Sp_vm
open Sp_cache
open Sp_pin
module B = Test_blockstep
module F = Test_fusedcache
module C = Sp_cpu.Core_config

(* ------------------------------------------------------------------ *)
(* Per-event forms, fed the reference interpreter's events *)

(* The in-order model one event at a time: a block's fetch before its
   first instruction, one cycle plus the kind's extra per instruction,
   each reference's full latency (stores half) after its instruction,
   the mispredict penalty at the branch. *)
type inorder = {
  cfg : C.t;
  hier : Hierarchy.t;
  bp : Sp_cpu.Branch_predictor.t;
  code_base : int;
  mutable warming : bool;
  mutable fetch_next : bool;
  mutable instructions : int;
  mutable cycles : float;
}

let inorder_create cfg (p : Program.t) =
  {
    cfg;
    hier = Hierarchy.create cfg.C.caches;
    bp = Sp_cpu.Branch_predictor.create ();
    code_base = p.Program.code_base;
    warming = false;
    fetch_next = false;
    instructions = 0;
    cycles = 0.0;
  }

let inorder_set_warming t b =
  t.warming <- b;
  Hierarchy.set_warming t.hier b

let inorder_extra kind =
  match Isa.kind_of_code kind with
  | K_div -> 20.0
  | K_fdiv -> 30.0
  | K_mul -> 2.0
  | K_fmul -> 4.0
  | K_falu -> 2.0
  | K_alu | K_load | K_store | K_movs | K_branch | K_jump | K_sys | K_halt ->
      0.0

let inorder_access t ~is_write addr =
  let where =
    if is_write then Hierarchy.write_where t.hier addr
    else Hierarchy.read_where t.hier addr
  in
  if not t.warming then begin
    let l =
      float_of_int
        (match where with
        | Hierarchy.L1 -> t.cfg.C.l1_latency
        | Hierarchy.L2 -> t.cfg.C.l2_latency
        | Hierarchy.L3 -> t.cfg.C.l3_latency
        | Hierarchy.Memory -> t.cfg.C.memory_latency)
    in
    t.cycles <- t.cycles +. (if is_write then l /. 2.0 else l)
  end

let inorder_event t = function
  | B.E_block _ -> t.fetch_next <- true
  | B.E_instr (pc, kind) ->
      if t.fetch_next then begin
        t.fetch_next <- false;
        ignore
          (Hierarchy.fetch_where t.hier
             (t.code_base + (pc * Isa.bytes_per_instr)))
      end;
      if not t.warming then begin
        t.instructions <- t.instructions + 1;
        t.cycles <- t.cycles +. 1.0 +. inorder_extra kind
      end
  | B.E_read a -> inorder_access t ~is_write:false a
  | B.E_write a -> inorder_access t ~is_write:true a
  | B.E_branch (pc, taken) ->
      if t.warming then Sp_cpu.Branch_predictor.observe t.bp ~pc ~taken
      else if not (Sp_cpu.Branch_predictor.predict_and_update t.bp ~pc ~taken)
      then t.cycles <- t.cycles +. float_of_int t.cfg.C.branch_penalty

(* ------------------------------------------------------------------ *)
(* Legs *)

(* Split the leg that straddles retirement count [at], so a leg
   boundary falls exactly there; the two halves keep its warming. *)
let cut_at at legs =
  let rec go start = function
    | [] -> []
    | (n, warm) :: rest when start < at && at < start + n ->
        (at - start, warm) :: (start + n - at, warm) :: rest
    | ((n, _) as leg) :: rest -> leg :: go (start + n) rest
  in
  go 0 legs

let configs =
  [| C.i7_3770_sim; C.with_caches C.i7_3770_sim F.tiny_hierarchy |]

let scenario_gen =
  QCheck.Gen.(
    triple F.mem_prog_gen
      (list_size (int_range 1 40) (pair (int_range 1 23) bool))
      (pair (int_range 0 1) nat))

let scenario_print (instrs, legs, (cfg, pick)) =
  Printf.sprintf "len=%d legs=[%s] config=%d pick=%d" (Array.length instrs)
    (String.concat ";"
       (List.map (fun (n, w) -> Printf.sprintf "%d%s" n (if w then "w" else ""))
          legs))
    cfg pick

let prop_tools_match_per_event =
  QCheck.Test.make ~name:"span and segment tools equal their per-event forms"
    ~count:200
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (instrs, legs, (cfg, pick)) ->
      let p = Program.of_instrs instrs in
      let n = Array.length instrs in
      let config = configs.(cfg) in
      (* first arrival of every pc, from one uninterrupted reference
         run; the cut lands on a reached mid-block pc's arrival *)
      let arrivals = Array.make n None in
      let count = ref 0 in
      ignore
        (B.ref_run
           ~record:(function
             | B.E_instr (pc, _) ->
                 if arrivals.(pc) = None then arrivals.(pc) <- Some !count;
                 incr count
             | _ -> ())
           ~syscall:B.test_syscall ~fuel:F.test_fuel instrs (B.ref_create 0));
      let mid_block =
        List.filter
          (fun pc -> (not p.Program.is_leader.(pc)) && arrivals.(pc) <> None)
          (List.init n Fun.id)
      in
      let legs = legs @ [ (F.test_fuel, false) ] in
      let legs =
        match mid_block with
        | [] -> legs
        | pcs -> (
            match arrivals.(List.nth pcs (pick mod List.length pcs)) with
            | Some at -> cut_at at legs
            | None -> legs)
      in
      (* the tools, core 0 carrying all but core 1's share of the
         shared hierarchy *)
      let ino = Sp_cpu.Inorder_core.create ~config p in
      let reuse = Reuse.create ~line_bytes:32 () in
      let rois = Array.init n (fun pc -> Roi_tool.create ~target_pc:pc) in
      let ins = Inscount.create p in
      let shared = Shared_hierarchy.create ~cores:2 F.tiny_hierarchy in
      let hooks0 =
        Hooks.seq_all
          ([
             Sp_cpu.Inorder_core.hooks ino;
             Reuse.hooks_of reuse;
             Inscount.hooks ins;
             Shared_hierarchy.hooks shared ~core:0;
           ]
          @ Array.to_list (Array.map Roi_tool.hooks rois))
      in
      let hooks1 = Shared_hierarchy.hooks shared ~core:1 in
      (* their per-event forms *)
      let r_ino = inorder_create config p in
      let r_reuse = Reuse.create ~line_bytes:32 () in
      let r_ins = Array.make Isa.num_kinds 0 in
      let r_arrivals = Array.make n None in
      let r_count = ref 0 in
      let r_shared = Shared_hierarchy.create ~cores:2 F.tiny_hierarchy in
      let record0 e =
        inorder_event r_ino e;
        match e with
        | B.E_instr (pc, kind) ->
            r_ins.(kind) <- r_ins.(kind) + 1;
            if r_arrivals.(pc) = None then r_arrivals.(pc) <- Some !r_count;
            incr r_count
        | B.E_read a ->
            Reuse.access r_reuse a;
            Shared_hierarchy.read r_shared ~core:0 a
        | B.E_write a ->
            Reuse.access r_reuse a;
            Shared_hierarchy.write r_shared ~core:0 a
        | B.E_block _ | B.E_branch _ -> ()
      in
      let record1 = function
        | B.E_read a -> Shared_hierarchy.read r_shared ~core:1 a
        | B.E_write a -> Shared_hierarchy.write r_shared ~core:1 a
        | B.E_block _ | B.E_instr _ | B.E_branch _ -> ()
      in
      (* both cores take each leg in turn, on the engine and on the
         reference, until the fuel is spent or both stopped *)
      let core hooks record =
        (Interp.create ~entry:0 (), B.ref_create 0, hooks, record, ref B.R_fuel,
         ref B.R_fuel)
      in
      let cores = [ core hooks0 record0; core hooks1 record1 ] in
      let agree = ref true in
      let step f (m, st, hooks, record, out, r_out) =
        if !out = B.R_fuel then begin
          out := B.run_legs ~hooks ~syscall:B.test_syscall ~fuel:f p m;
          r_out := B.ref_run ~record ~syscall:B.test_syscall ~fuel:f instrs st;
          if !out <> !r_out || m.Interp.icount <> st.B.r_icount then
            agree := false
        end
      in
      let left = ref F.test_fuel in
      List.iter
        (fun (f, warm) ->
          let f = min f !left in
          if f > 0 then begin
            left := !left - f;
            Sp_cpu.Inorder_core.set_warming ino warm;
            inorder_set_warming r_ino warm;
            List.iter (step f) cores
          end)
        legs;
      let kinds = List.init Isa.num_kinds Isa.kind_of_code in
      let level (l : Hierarchy.level_stats) = (l.accesses, l.misses) in
      let core_view s c =
        let cs = Shared_hierarchy.core_stats s c in
        ( level cs.Shared_hierarchy.l1d,
          level cs.l2,
          cs.l3_accesses,
          cs.l3_misses )
      in
      !agree
      && Sp_cpu.Inorder_core.instructions ino = r_ino.instructions
      && Int64.bits_of_float (Sp_cpu.Inorder_core.cycles ino)
         = Int64.bits_of_float r_ino.cycles
      && Reuse.total reuse = Reuse.total r_reuse
      && Reuse.cold reuse = Reuse.cold r_reuse
      && Reuse.histogram reuse = Reuse.histogram r_reuse
      && Array.for_all2
           (fun roi arrival -> Roi_tool.reached_at roi = arrival)
           rois r_arrivals
      && List.for_all
           (fun k -> Inscount.by_kind ins k = r_ins.(Isa.kind_code k))
           kinds
      && Inscount.total ins = Array.fold_left ( + ) 0 r_ins
      && core_view shared 0 = core_view r_shared 0
      && core_view shared 1 = core_view r_shared 1
      && level (Shared_hierarchy.shared_l3 shared)
         = level (Shared_hierarchy.shared_l3 r_shared))

let suite = [ QCheck_alcotest.to_alcotest prop_tools_match_per_event ]
