(* Differential tests for the block-stepping execution engine.

   A per-instruction reference interpreter lives in this file, written
   against the ISA documentation and independent of lib/vm/interp.ml
   (its own memory model, its own leader/block computation).  Random
   programs exercising every terminator kind — fallthrough, conditional
   branch, jump, call, ret, halt — plus self-loops, mid-block syscalls
   and slice boundaries that land mid-block are executed by the
   reference and by the real engine tiers; icount, final machine state,
   memory, hook traces, BBV slices and syscall observation points must
   match bit-for-bit, for any fuel split.  The engines deliver events
   block by block; expanding their [on_block_mems] segments one event
   at a time must reproduce the reference's per-retirement trace, data
   addresses and write bits in order. *)

open Sp_isa
open Sp_vm
open Sp_pin

(* ------------------------------------------------------------------ *)
(* Reference interpreter *)

exception Ref_stack of string

type ref_outcome = R_halted | R_fuel | R_stack of string

type ref_state = {
  r_regs : int array;
  r_fregs : float array;
  mutable r_pc : int;
  r_stack : int array;
  mutable r_sp : int;
  r_mem : (int, int) Hashtbl.t;
  r_fmem : (int, float) Hashtbl.t;
  mutable r_icount : int;
}

let ref_create entry =
  {
    r_regs = Array.make Isa.num_regs 0;
    r_fregs = Array.make Isa.num_fregs 0.0;
    r_pc = entry;
    r_stack = Array.make 4096 0;
    r_sp = 0;
    r_mem = Hashtbl.create 64;
    r_fmem = Hashtbl.create 64;
    r_icount = 0;
  }

(* same 38-bit word addressing the documented Memory module uses *)
let word addr = (addr land ((1 lsl 38) - 1)) lsr 3
let rload st a = Option.value ~default:0 (Hashtbl.find_opt st.r_mem (word a))
let rstore st a v = Hashtbl.replace st.r_mem (word a) v

let rloadf st a =
  Option.value ~default:0.0 (Hashtbl.find_opt st.r_fmem (word a))

let rstoref st a v = Hashtbl.replace st.r_fmem (word a) v

(* leaders and block ids recomputed from the ISA documentation alone:
   a leader is the entry, a static control-transfer target, or the
   instruction after a control instruction *)
let ref_structure instrs =
  let n = Array.length instrs in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      match i with
      | Isa.Branch (_, _, _, t) | Isa.Jump t | Isa.Call t ->
          leader.(t) <- true;
          if pc + 1 < n then leader.(pc + 1) <- true
      | Isa.Ret | Isa.Halt -> if pc + 1 < n then leader.(pc + 1) <- true
      | _ -> ())
    instrs;
  let bb_of_pc = Array.make n 0 in
  let id = ref (-1) in
  for pc = 0 to n - 1 do
    if leader.(pc) then incr id;
    bb_of_pc.(pc) <- !id
  done;
  (leader, bb_of_pc)

type ev =
  | E_block of int
  | E_instr of int * int (* pc, kind code *)
  | E_read of int
  | E_write of int
  | E_branch of int * bool

let ref_alu op a b =
  match (op : Isa.alu_op) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)

let ref_falu op a b =
  match (op : Isa.falu_op) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> if b = 0.0 then 0.0 else a /. b

let ref_cond c a b =
  match (c : Isa.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let ref_run ~record ~syscall ~fuel instrs (st : ref_state) =
  let is_leader, bb_of_pc = ref_structure instrs in
  let outcome = ref R_fuel in
  (try
     let remaining = ref fuel in
     let running = ref (fuel > 0) in
     while !running do
       let pc = st.r_pc in
       if is_leader.(pc) then record (E_block bb_of_pc.(pc));
       record (E_instr (pc, Isa.kind_code (Isa.kind instrs.(pc))));
       st.r_icount <- st.r_icount + 1;
       decr remaining;
       (match instrs.(pc) with
       | Isa.Alu (op, rd, r1, r2) ->
           st.r_regs.(rd) <- ref_alu op st.r_regs.(r1) st.r_regs.(r2);
           st.r_pc <- pc + 1
       | Isa.Alui (op, rd, r1, imm) ->
           st.r_regs.(rd) <- ref_alu op st.r_regs.(r1) imm;
           st.r_pc <- pc + 1
       | Isa.Li (rd, imm) ->
           st.r_regs.(rd) <- imm;
           st.r_pc <- pc + 1
       | Isa.Mov (rd, rs) ->
           st.r_regs.(rd) <- st.r_regs.(rs);
           st.r_pc <- pc + 1
       | Isa.Load (rd, rs, off) ->
           let a = st.r_regs.(rs) + off in
           record (E_read a);
           st.r_regs.(rd) <- rload st a;
           st.r_pc <- pc + 1
       | Isa.Store (rv, rb, off) ->
           let a = st.r_regs.(rb) + off in
           record (E_write a);
           rstore st a st.r_regs.(rv);
           st.r_pc <- pc + 1
       | Isa.Movs (rdst, rsrc) ->
           let src = st.r_regs.(rsrc) in
           let dst = st.r_regs.(rdst) in
           record (E_read src);
           record (E_write dst);
           rstore st dst (rload st src);
           st.r_pc <- pc + 1
       | Isa.Falu (op, fd, f1, f2) ->
           st.r_fregs.(fd) <- ref_falu op st.r_fregs.(f1) st.r_fregs.(f2);
           st.r_pc <- pc + 1
       | Isa.Fload (fd, rs, off) ->
           let a = st.r_regs.(rs) + off in
           record (E_read a);
           st.r_fregs.(fd) <- rloadf st a;
           st.r_pc <- pc + 1
       | Isa.Fstore (fv, rb, off) ->
           let a = st.r_regs.(rb) + off in
           record (E_write a);
           rstoref st a st.r_fregs.(fv);
           st.r_pc <- pc + 1
       | Isa.Fmovi (fd, x) ->
           st.r_fregs.(fd) <- x;
           st.r_pc <- pc + 1
       | Isa.Cvtif (fd, rs) ->
           st.r_fregs.(fd) <- float_of_int st.r_regs.(rs);
           st.r_pc <- pc + 1
       | Isa.Cvtfi (rd, fs) ->
           st.r_regs.(rd) <- int_of_float st.r_fregs.(fs);
           st.r_pc <- pc + 1
       | Isa.Branch (c, r1, r2, target) ->
           let taken = ref_cond c st.r_regs.(r1) st.r_regs.(r2) in
           record (E_branch (pc, taken));
           st.r_pc <- (if taken then target else pc + 1)
       | Isa.Jump target -> st.r_pc <- target
       | Isa.Call target ->
           if st.r_sp >= 4096 then
             raise
               (Ref_stack (Printf.sprintf "call-stack overflow at pc %d" pc));
           st.r_stack.(st.r_sp) <- pc + 1;
           st.r_sp <- st.r_sp + 1;
           st.r_pc <- target
       | Isa.Ret ->
           if st.r_sp <= 0 then
             raise
               (Ref_stack (Printf.sprintf "ret on empty stack at pc %d" pc));
           st.r_sp <- st.r_sp - 1;
           st.r_pc <- st.r_stack.(st.r_sp)
       | Isa.Sys (n, rd) ->
           st.r_regs.(rd) <- syscall n;
           st.r_pc <- pc + 1
       | Isa.Halt ->
           st.r_pc <- pc;
           outcome := R_halted;
           running := false);
       if !remaining <= 0 then running := false
     done
   with Ref_stack msg -> outcome := R_stack msg);
  !outcome

(* ------------------------------------------------------------------ *)
(* Random program generator: every terminator kind, self-loops allowed *)

let test_fuel = 300

let prog_gen =
  QCheck.Gen.(
    int_range 4 40 >>= fun body_len ->
    let n = body_len + 1 in
    (* final Halt backstop keeps every pc reachable in-range *)
    let target = int_range 0 (n - 1) in
    let reg = 0 -- 7 in
    let freg = 0 -- 7 in
    let instr_gen =
      frequency
        [
          (3, map2 (fun rd imm -> Isa.Li (rd, imm)) reg (int_range (-64) 64));
          ( 3,
            map3
              (fun op rd (r1, r2) -> Isa.Alu (op, rd, r1, r2))
              (oneofl [ Isa.Add; Isa.Sub; Isa.Xor ])
              reg (pair reg reg) );
          ( 2,
            map3
              (fun rd rs off -> Isa.Load (rd, rs, off * 8))
              reg reg (int_range 0 32) );
          ( 2,
            map3
              (fun rv rb off -> Isa.Store (rv, rb, off * 8))
              reg reg (int_range 0 32) );
          ( 1,
            map2
              (fun fd x -> Isa.Fmovi (fd, float_of_int x))
              freg (int_range (-16) 16) );
          ( 1,
            map3
              (fun op fd (f1, f2) -> Isa.Falu (op, fd, f1, f2))
              (oneofl [ Isa.Fadd; Isa.Fmul ])
              freg (pair freg freg) );
          ( 1,
            map3
              (fun fd rs off -> Isa.Fload (fd, rs, off * 8))
              freg reg (int_range 0 32) );
          ( 1,
            map3
              (fun fv rb off -> Isa.Fstore (fv, rb, off * 8))
              freg reg (int_range 0 32) );
          ( 2,
            map3
              (fun c (r1, r2) t -> Isa.Branch (c, r1, r2, t))
              (oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge ])
              (pair reg reg) target );
          (1, map (fun t -> Isa.Jump t) target);
          (1, map (fun t -> Isa.Call t) target);
          (1, return Isa.Ret);
          (1, map2 (fun ch rd -> Isa.Sys (ch, rd)) (0 -- 3) reg);
          (1, return Isa.Halt);
        ]
    in
    map
      (fun body -> Array.of_list (body @ [ Isa.Halt ]))
      (list_repeat body_len instr_gen))

let test_syscall n = ((n * 37) + 11) land 0xFF

(* ------------------------------------------------------------------ *)
(* Helpers over the real engines *)

(* This suite targets the block-stepping tier, so every run is pinned
   to [Interpreted] by default — under [Auto] the interpreter routes
   hook sets without a segment consumer to the compiled tier (covered
   by test_compiled.ml), which would silently drop [run_block] from
   coverage.  [leg] splits the run into [Interp.run] calls of that
   many instructions; legs of one deliver single-instruction spans and
   segments. *)
let run_legs ?(engine = Interp.Interpreted) ?(leg = max_int) ~hooks ~syscall
    ~fuel p m =
  let rec go left =
    if left <= 0 then R_fuel
    else
      let f = min leg left in
      match Interp.run ~engine ~hooks ~syscall ~fuel:f p m with
      | Interp.Halted -> R_halted
      | Interp.Out_of_fuel -> go (left - f)
  in
  try go fuel with Interp.Stack_error msg -> R_stack msg

(* The per-event view of a block-level run: [E_block] at each block
   entry, then each segment one instruction at a time — its [E_instr]
   (kind from the program) followed by its own references, decoded
   from the address and write bit — then [E_branch] at the
   terminator. *)
let event_hooks (p : Program.t) record =
  {
    Hooks.nil with
    Hooks.on_block = (fun bb -> record (E_block bb));
    on_block_mems =
      (fun pc0 n offs addrs nrefs ->
        let r = ref 0 in
        for i = 0 to n - 1 do
          record (E_instr (pc0 + i, p.Program.kinds.(pc0 + i)));
          while !r < nrefs && offs.(!r) = i do
            let v = addrs.(!r) in
            record (if v land 1 = 0 then E_read (v asr 1) else E_write (v asr 1));
            incr r
          done
        done;
        if !r <> nrefs then failwith "segment reference past its instructions");
    on_branch = (fun pc taken -> record (E_branch (pc, taken)));
  }

(* expand a span trace to the per-retirement pc stream it names *)
let pcs_of_spans spans =
  List.concat_map (fun (pc0, n) -> List.init n (fun i -> pc0 + i)) spans

let pc_stream_of_events events =
  List.filter_map (function E_instr (pc, _) -> Some pc | _ -> None) events

let retire_stream_of_events bb_of_pc events =
  List.filter_map
    (function E_instr (pc, _) -> Some bb_of_pc.(pc) | _ -> None)
    events

let write_addrs events =
  List.filter_map (function E_write a -> Some a | _ -> None) events

let state_matches (st : ref_state) (m : Interp.machine) events =
  Array.for_all2 ( = ) st.r_regs m.Interp.regs
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       st.r_fregs m.Interp.fregs
  && st.r_pc = m.Interp.pc
  && st.r_sp = m.Interp.sp
  && st.r_icount = m.Interp.icount
  && List.for_all
       (fun a ->
         rload st a = Memory.load m.Interp.mem a
         && Int64.bits_of_float (rloadf st a)
            = Int64.bits_of_float (Memory.loadf m.Interp.mem a))
       (write_addrs events)

(* ------------------------------------------------------------------ *)
(* Program metadata consistency: block table vs a naive recomputation *)

let metadata_consistent instrs (p : Program.t) =
  let leaders, bb_of_pc = ref_structure instrs in
  Array.for_all2 ( = ) leaders p.Program.is_leader
  && Array.for_all2 ( = ) bb_of_pc p.Program.bb_of_pc
  && Array.for_all
       (fun (b : Program.block) ->
         let last = instrs.(b.start_pc + b.len - 1) in
         let term_ok =
           match (last, b.term) with
           | Isa.Branch _, Program.Cond_branch -> true
           | Isa.Jump _, Program.Jump -> true
           | Isa.Call _, Program.Call -> true
           | Isa.Ret, Program.Ret -> true
           | Isa.Halt, Program.Halt -> true
           | i, Program.Fallthrough -> not (Isa.is_control i)
           | _ -> false
         in
         let counted = Array.make Isa.num_kinds 0 in
         for pc = b.start_pc to b.start_pc + b.len - 1 do
           let k = Isa.kind_code (Isa.kind instrs.(pc)) in
           counted.(k) <- counted.(k) + 1
         done;
         term_ok
         && p.Program.block_end.(b.id) = b.start_pc + b.len
         && Array.fold_left ( + ) 0 b.kind_counts = b.len
         && Array.for_all2 ( = ) counted b.kind_counts)
       p.Program.blocks

(* ------------------------------------------------------------------ *)
(* Main differential property *)

let prop_engines_agree =
  QCheck.Test.make ~name:"engines agree with reference interpreter"
    ~count:400 (QCheck.make prog_gen) (fun instrs ->
      let p = Program.of_instrs instrs in
      if not (metadata_consistent instrs p) then false
      else begin
        (* reference *)
        let st = ref_create 0 in
        let ref_events = ref [] in
        let ref_sys = ref [] in
        let ref_out =
          ref_run
            ~record:(fun e -> ref_events := e :: !ref_events)
            ~syscall:(fun n ->
              ref_sys := (n, st.r_icount) :: !ref_sys;
              test_syscall n)
            ~fuel:test_fuel instrs st
        in
        let ref_events = List.rev !ref_events in
        let ref_pcs = pc_stream_of_events ref_events in
        let ref_sys = List.rev !ref_sys in
        (* block stepper with every aggregate live, in one run and in
           fuel legs of one instruction: its segments, expanded one
           event at a time, must be the reference's exact trace *)
        let traced leg =
          let events = ref [] and spans = ref [] and sys = ref [] in
          let m = Interp.create ~entry:0 () in
          let hooks =
            {
              (event_hooks p (fun e -> events := e :: !events)) with
              Hooks.on_block_span = (fun pc0 n -> spans := (pc0, n) :: !spans);
            }
          in
          let out =
            run_legs ?leg ~hooks
              ~syscall:(fun n ->
                sys := (n, m.Interp.icount) :: !sys;
                test_syscall n)
              ~fuel:test_fuel p m
          in
          out = ref_out
          && List.rev !events = ref_events
          && pcs_of_spans (List.rev !spans) = ref_pcs
          && List.rev !sys = ref_sys
          && state_matches st m ref_events
        in
        (* block-stepping engine without a segment consumer *)
        let b_blocks = ref [] in
        let b_spans = ref [] in
        let b_branches = ref [] in
        let b_sys = ref [] in
        let mb = Interp.create ~entry:0 () in
        let block_hooks =
          {
            Hooks.nil with
            Hooks.on_block = (fun bb -> b_blocks := bb :: !b_blocks);
            on_block_span = (fun pc0 n -> b_spans := (pc0, n) :: !b_spans);
            on_branch = (fun pc t -> b_branches := (pc, t) :: !b_branches);
          }
        in
        let b_out =
          run_legs ~hooks:block_hooks
            ~syscall:(fun n ->
              b_sys := (n, mb.Interp.icount) :: !b_sys;
              test_syscall n)
            ~fuel:test_fuel p mb
        in
        traced None && traced (Some 1)
        && b_out = ref_out
        && List.rev !b_blocks
           = List.filter_map
               (function E_block bb -> Some bb | _ -> None)
               ref_events
        && pcs_of_spans (List.rev !b_spans) = ref_pcs
        && List.rev !b_branches
           = List.filter_map
               (function E_branch (pc, t) -> Some (pc, t) | _ -> None)
               ref_events
        && List.rev !b_sys = ref_sys
        && state_matches st mb ref_events
      end)

(* ------------------------------------------------------------------ *)
(* Fuel-split property: resuming the block engine in arbitrary chunks
   is bit-identical to one uninterrupted run *)

let prop_fuel_split =
  QCheck.Test.make ~name:"block engine is fuel-split invariant" ~count:200
    (QCheck.make QCheck.Gen.(pair prog_gen (int_range 1 11)))
    (fun (instrs, chunk) ->
      let p = Program.of_instrs instrs in
      let run_chunked () =
        let m = Interp.create ~entry:0 () in
        let blocks = ref [] in
        let spans = ref [] in
        let sys = ref [] in
        let hooks =
          {
            Hooks.nil with
            Hooks.on_block = (fun bb -> blocks := bb :: !blocks);
            on_block_span = (fun pc0 n -> spans := (pc0, n) :: !spans);
          }
        in
        let syscall n =
          sys := (n, m.Interp.icount) :: !sys;
          test_syscall n
        in
        let outcome = ref R_fuel in
        let left = ref test_fuel in
        (try
           while !left > 0 && !outcome = R_fuel do
             let f = min chunk !left in
             left := !left - f;
             match
               Interp.run ~engine:Interp.Interpreted ~hooks ~syscall ~fuel:f p m
             with
             | Interp.Halted -> outcome := R_halted
             | Interp.Out_of_fuel -> ()
           done
         with Interp.Stack_error msg -> outcome := R_stack msg);
        (m, !outcome, List.rev !blocks, pcs_of_spans (List.rev !spans),
         List.rev !sys)
      in
      let run_oneshot () =
        let m = Interp.create ~entry:0 () in
        let blocks = ref [] in
        let spans = ref [] in
        let sys = ref [] in
        let hooks =
          {
            Hooks.nil with
            Hooks.on_block = (fun bb -> blocks := bb :: !blocks);
            on_block_span = (fun pc0 n -> spans := (pc0, n) :: !spans);
          }
        in
        let syscall n =
          sys := (n, m.Interp.icount) :: !sys;
          test_syscall n
        in
        let outcome =
          try
            match
              Interp.run ~engine:Interp.Interpreted ~hooks ~syscall
                ~fuel:test_fuel p m
            with
            | Interp.Halted -> R_halted
            | Interp.Out_of_fuel -> R_fuel
          with Interp.Stack_error msg -> R_stack msg
        in
        (m, outcome, List.rev !blocks, pcs_of_spans (List.rev !spans),
         List.rev !sys)
      in
      let mc, oc, blc, pcsc, sysc = run_chunked () in
      let m1, o1, bl1, pcs1, sys1 = run_oneshot () in
      oc = o1 && blc = bl1 && pcsc = pcs1 && sysc = sys1
      && Array.for_all2 ( = ) mc.Interp.regs m1.Interp.regs
      && mc.Interp.pc = m1.Interp.pc
      && mc.Interp.sp = m1.Interp.sp
      && mc.Interp.icount = m1.Interp.icount)

(* ------------------------------------------------------------------ *)
(* BBV slices: block-stepped delivery, in one run and in fuel legs of
   one instruction, vs a reference slicer over the per-retirement
   stream *)

let ref_slices ~slice_len retires =
  let slices = ref [] in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let cur_len = ref 0 in
  let start = ref 0 in
  let index = ref 0 in
  let close () =
    let bbv =
      Hashtbl.fold (fun bb c acc -> (bb, c) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> Array.of_list
    in
    slices :=
      {
        Bbv_tool.index = !index;
        start_icount = !start;
        length = !cur_len;
        bbv;
      }
      :: !slices;
    incr index;
    start := !start + !cur_len;
    cur_len := 0;
    Hashtbl.reset counts
  in
  List.iter
    (fun bb ->
      Hashtbl.replace counts bb
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts bb));
      incr cur_len;
      if !cur_len = slice_len then close ())
    retires;
  if !cur_len > 0 then close ();
  Array.of_list (List.rev !slices)

let slice_eq (a : Bbv_tool.slice) (b : Bbv_tool.slice) =
  a.index = b.index
  && a.start_icount = b.start_icount
  && a.length = b.length
  && a.bbv = b.bbv

let prop_bbv_slices =
  QCheck.Test.make ~name:"BBV slices identical across engines" ~count:200
    (QCheck.make QCheck.Gen.(pair prog_gen (int_range 3 9)))
    (fun (instrs, slice_len) ->
      let p = Program.of_instrs instrs in
      let _, bb_of_pc = ref_structure instrs in
      (* reference stream *)
      let st = ref_create 0 in
      let events = ref [] in
      ignore
        (ref_run
           ~record:(fun e -> events := e :: !events)
           ~syscall:test_syscall ~fuel:test_fuel instrs st);
      let retires = retire_stream_of_events bb_of_pc (List.rev !events) in
      let expected = ref_slices ~slice_len retires in
      let run ?leg () =
        let bbv = Bbv_tool.create ~slice_len p in
        let m = Interp.create ~entry:0 () in
        ignore
          (run_legs ?leg ~hooks:(Bbv_tool.hooks bbv) ~syscall:test_syscall
             ~fuel:test_fuel p m);
        Bbv_tool.finish bbv;
        Bbv_tool.slices bbv
      in
      let via_block = run () in
      let via_legs = run ~leg:1 () in
      Array.length via_block = Array.length expected
      && Array.length via_legs = Array.length expected
      && Array.for_all2 slice_eq via_block expected
      && Array.for_all2 slice_eq via_legs expected)

(* ------------------------------------------------------------------ *)
(* Memory TLB: slot-collision aliasing against the Hashtbl model, and
   clear/copy invalidation *)

let prop_tlb_aliasing =
  QCheck.Test.make ~name:"TLB slot aliasing matches model" ~count:200
    QCheck.(
      list_of_size
        Gen.(10 -- 120)
        (triple (int_range 0 5) (int_range 0 3) (pair bool int)))
    (fun ops ->
      (* page stride * tlb size: consecutive ops alias the same
         direct-mapped slot with different tags *)
      let slot_stride = 64 * Memory.page_bytes in
      let mem = Memory.create () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      List.for_all
        (fun (way, off, (is_store, v)) ->
          let addr = (way * slot_stride) + (off * 8) in
          if is_store then begin
            Memory.store mem addr v;
            Hashtbl.replace model addr v;
            true
          end
          else
            Memory.load mem addr
            = Option.value ~default:0 (Hashtbl.find_opt model addr))
        ops)

let test_tlb_clear_copy () =
  let mem = Memory.create () in
  Memory.store mem 0x100 7;
  Memory.storef mem 0x100 1.5;
  Alcotest.(check int) "store visible" 7 (Memory.load mem 0x100);
  let dup = Memory.copy mem in
  Memory.store dup 0x100 9;
  Alcotest.(check int) "copy is independent" 7 (Memory.load mem 0x100);
  Alcotest.(check int) "copy took the write" 9 (Memory.load dup 0x100);
  Alcotest.(check (float 0.0)) "float view copied" 1.5 (Memory.loadf dup 0x100);
  Memory.clear mem;
  Alcotest.(check int) "clear drops int view" 0 (Memory.load mem 0x100);
  Alcotest.(check (float 0.0)) "clear drops float view" 0.0
    (Memory.loadf mem 0x100);
  (* a TLB entry surviving clear would resurrect the old page *)
  Memory.store mem 0x100 3;
  Alcotest.(check int) "store after clear" 3 (Memory.load mem 0x100);
  Alcotest.(check int) "copy unaffected by clear" 9 (Memory.load dup 0x100)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_agree;
    QCheck_alcotest.to_alcotest prop_fuel_split;
    QCheck_alcotest.to_alcotest prop_bbv_slices;
    QCheck_alcotest.to_alcotest prop_tlb_aliasing;
    Alcotest.test_case "TLB clear/copy invalidation" `Quick
      test_tlb_clear_copy;
  ]
