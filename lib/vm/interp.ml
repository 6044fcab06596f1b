open Sp_isa

type machine = {
  regs : int array;
  fregs : float array;
  mutable pc : int;
  callstack : int array;
  mutable sp : int;
  mem : Memory.t;
  mutable icount : int;
}

type status = Halted | Out_of_fuel

exception Stack_error of string

let stack_depth = 4096

let create ?mem ~entry () =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  {
    regs = Array.make Isa.num_regs 0;
    fregs = Array.make Isa.num_fregs 0.0;
    pc = entry;
    callstack = Array.make stack_depth 0;
    sp = 0;
    mem;
    icount = 0;
  }

let default_syscall n = Sp_util.Rng.hash_string (string_of_int n) land 0xFFFF

(* Execution metrics, flushed once per [run] so the hot loops stay
   untouched.  Instruction, block-entry and TLB-refill totals are pure
   functions of the retired work and are registered stable. *)
module M = struct
  let instructions = Sp_obs.Metrics.counter "vm.instructions"
  let tlb_refills = Sp_obs.Metrics.counter "vm.tlb_refills"
  let blocks = Sp_obs.Metrics.counter "vm.blocks_stepped"
end

(* ------------------------------------------------------------------ *)
(* The engine.

   A pre-compilation pass walks the program once and turns every basic
   block into a chain of straight-line OCaml closures: one closure per
   instruction, each performing its effect on the raw machine arrays
   and tail-calling the next.  Executing a block is then one indirect
   call per instruction with no opcode decode, no per-instruction fuel
   check and no pc bookkeeping — the pc is implicit in which closure is
   running and is only materialised where a contract below requires it
   (syscalls, stack errors, chain exits).  Unconditional terminators
   with a forward static target ([Jump]/[Call]/fallthrough into the
   next leader) chain directly into the target block's closure, fusing
   superblocks; forward-only chaining makes the closure graph a DAG, so
   compilation in decreasing pc order always finds its continuations
   already built, and [max_chain_insns] bounds how much fuel a single
   dispatch can consume.

   Compiled closures are built once per program and shared across runs,
   so they cannot capture any per-run state: machine, syscall handler,
   hooks and the segment buffers travel in a [cenv] handed to every
   closure.

   Contracts, each equal to a per-instruction execution (the test
   suites' independent reference interpreter):
   - hook events: each block's closure chain starts with a prologue
     firing [on_block] then [on_block_span]; a mid-block resume entry
     fires the partial span without [on_block]; [on_branch] fires at
     the terminator, after the block's last segment;
   - [m.icount] is bulk-advanced for the whole chain at dispatch, and
     every [Sys] closure rolls it back to the exact per-instruction
     value (the remainder of its chain is a compile-time constant), so
     pinball syscall logging sees the retirement index of the syscall;
     a [Call] overflow rolls back the same way before raising;
   - fuel: a chain is dispatched only when the remaining fuel covers it
     entirely; otherwise the run's tail is stepped one block entry at a
     time through single-instruction closures, so the fuel boundary
     lands on exactly the same instruction, with the partial span of a
     truncated entry, and a resumed run is bit-identical to an
     uninterrupted one;
   - segments (only when an [on_block_mems] consumer is live): memory
     closures append each data reference to the [cenv] buffers, and
     the pending segment is delivered by the next block's prologue
     (before its [on_block]), by its conditional branch (before
     [on_branch]), by a [Sys] through itself (before the handler
     runs), by a faulting [Call]/[Ret] (before it raises) and at the
     end of the run.  Segments thus partition the retirement stream —
     at most one per block entry, split after each [Sys] — and a
     raising handler or stack error leaves the consumer having seen
     exactly the instructions retired, the faulting one included.
     Chained links stay direct closure references: a segment waits in
     the buffers until whoever runs next delivers it. *)

type cenv = {
  cm : machine;
  cregs : int array;
  cfregs : float array;
  cmem : Memory.t;
  csyscall : int -> int;
  c_block : int -> unit;
  c_span : int -> int -> unit;
  c_mems : int -> int -> int array -> int array -> int -> unit;
  c_branch : int -> bool -> unit;
  c_hooked : bool;
  c_segs : bool;  (* an [on_block_mems] consumer is live *)
  (* the pending segment: its references so far (offset from
     [seg_pc], address with the write bit in bit 0; at most two per
     instruction, so [2 * max_block_len] slots), its first pc and the
     exclusive end of the block entry it belongs to *)
  offs : int array;
  addrs : int array;
  mutable nrefs : int;
  mutable seg_pc : int;
  mutable seg_end : int;
  mutable c_halted : bool;
  mutable entered : int;  (* block entries of a hooked run, for [M.blocks] *)
}

type compiled = {
  entry_code : (cenv -> unit) array;
      (* per pc: closure executing from pc to the end of its chain *)
  entry_len : int array;
      (* instructions the chain from pc retires (all-or-nothing) *)
  steps : (cenv -> unit) array;
      (* per pc: the single-instruction closure fuel tails step
         through, built on a tail's first visit *)
}

(* Upper bound on the instructions one chain dispatch may retire.
   Chains are all-or-nothing against the remaining fuel, so this also
   bounds the fuel tail a run steps instruction by instruction. *)
let max_chain_insns = 1024

(* Deliver the pending segment's instructions before [upto]. *)
let deliver e upto =
  let pc0 = e.seg_pc in
  if upto > pc0 then begin
    e.c_mems pc0 (upto - pc0) e.offs e.addrs e.nrefs;
    e.nrefs <- 0;
    e.seg_pc <- upto
  end

let flush e = deliver e e.seg_end

(* A block entry retiring [n] instructions from [pc0]: the previous
   entry's segment is delivered and this one's opened. *)
let open_segment e pc0 n =
  flush e;
  e.seg_pc <- pc0;
  e.seg_end <- pc0 + n

let[@inline] record e pc v =
  let r = e.nrefs in
  Array.unsafe_set e.offs r (pc - e.seg_pc);
  Array.unsafe_set e.addrs r v;
  e.nrefs <- r + 1

(* One non-control instruction: perform the effect, tail-call [next].
   [clen_next] is the number of instructions the rest of the chain
   retires after this one — the compile-time icount rollback a [Sys]
   needs to expose the exact per-instruction count to its handler. *)
let compile_straight pc (i : Isa.instr) ~(next : cenv -> unit) ~clen_next :
    cenv -> unit =
  match i with
  | Alu (op, rd, r1, r2) -> (
      match (op : Isa.alu_op) with
      | Add ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 + Array.unsafe_get regs r2);
            next e
      | Sub ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 - Array.unsafe_get regs r2);
            next e
      | Mul ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 * Array.unsafe_get regs r2);
            next e
      | Div ->
          fun e ->
            let regs = e.cregs in
            let b = Array.unsafe_get regs r2 in
            Array.unsafe_set regs rd
              (if b = 0 then 0 else Array.unsafe_get regs r1 / b);
            next e
      | Rem ->
          fun e ->
            let regs = e.cregs in
            let b = Array.unsafe_get regs r2 in
            Array.unsafe_set regs rd
              (if b = 0 then 0 else Array.unsafe_get regs r1 mod b);
            next e
      | And ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 land Array.unsafe_get regs r2);
            next e
      | Or ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lor Array.unsafe_get regs r2);
            next e
      | Xor ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lxor Array.unsafe_get regs r2);
            next e
      | Shl ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lsl (Array.unsafe_get regs r2 land 63));
            next e
      | Shr ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (Array.unsafe_get regs r1 lsr (Array.unsafe_get regs r2 land 63));
            next e)
  | Alui (op, rd, r1, imm) -> (
      match (op : Isa.alu_op) with
      | Add ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 + imm);
            next e
      | Sub ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 - imm);
            next e
      | Mul ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 * imm);
            next e
      | Div ->
          let z = imm = 0 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (if z then 0 else Array.unsafe_get regs r1 / imm);
            next e
      | Rem ->
          let z = imm = 0 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd
              (if z then 0 else Array.unsafe_get regs r1 mod imm);
            next e
      | And ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 land imm);
            next e
      | Or ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lor imm);
            next e
      | Xor ->
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lxor imm);
            next e
      | Shl ->
          let s = imm land 63 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lsl s);
            next e
      | Shr ->
          let s = imm land 63 in
          fun e ->
            let regs = e.cregs in
            Array.unsafe_set regs rd (Array.unsafe_get regs r1 lsr s);
            next e)
  | Li (rd, imm) ->
      fun e ->
        Array.unsafe_set e.cregs rd imm;
        next e
  | Mov (rd, rs) ->
      fun e ->
        let regs = e.cregs in
        Array.unsafe_set regs rd (Array.unsafe_get regs rs);
        next e
  | Load (rd, rs, off) ->
      fun e ->
        let regs = e.cregs in
        let a = Array.unsafe_get regs rs + off in
        if e.c_segs then record e pc (a lsl 1);
        Array.unsafe_set regs rd (Memory.load e.cmem a);
        next e
  | Store (rv, rb, off) ->
      fun e ->
        let regs = e.cregs in
        let a = Array.unsafe_get regs rb + off in
        if e.c_segs then record e pc ((a lsl 1) lor 1);
        Memory.store e.cmem a (Array.unsafe_get regs rv);
        next e
  | Movs (rdst, rsrc) ->
      fun e ->
        let regs = e.cregs in
        let mem = e.cmem in
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
        if e.c_segs then begin
          record e pc (src lsl 1);
          record e pc ((dst lsl 1) lor 1)
        end;
        Memory.store mem dst (Memory.load mem src);
        next e
  | Falu (op, fd, f1, f2) -> (
      match (op : Isa.falu_op) with
      | Fadd ->
          fun e ->
            let fregs = e.cfregs in
            Array.unsafe_set fregs fd
              (Array.unsafe_get fregs f1 +. Array.unsafe_get fregs f2);
            next e
      | Fsub ->
          fun e ->
            let fregs = e.cfregs in
            Array.unsafe_set fregs fd
              (Array.unsafe_get fregs f1 -. Array.unsafe_get fregs f2);
            next e
      | Fmul ->
          fun e ->
            let fregs = e.cfregs in
            Array.unsafe_set fregs fd
              (Array.unsafe_get fregs f1 *. Array.unsafe_get fregs f2);
            next e
      | Fdiv ->
          fun e ->
            let fregs = e.cfregs in
            let b = Array.unsafe_get fregs f2 in
            Array.unsafe_set fregs fd
              (if b = 0.0 then 0.0 else Array.unsafe_get fregs f1 /. b);
            next e)
  | Fload (fd, rs, off) ->
      fun e ->
        let a = Array.unsafe_get e.cregs rs + off in
        if e.c_segs then record e pc (a lsl 1);
        Array.unsafe_set e.cfregs fd (Memory.loadf e.cmem a);
        next e
  | Fstore (fv, rb, off) ->
      fun e ->
        let a = Array.unsafe_get e.cregs rb + off in
        if e.c_segs then record e pc ((a lsl 1) lor 1);
        Memory.storef e.cmem a (Array.unsafe_get e.cfregs fv);
        next e
  | Fmovi (fd, x) ->
      fun e ->
        Array.unsafe_set e.cfregs fd x;
        next e
  | Cvtif (fd, rs) ->
      fun e ->
        Array.unsafe_set e.cfregs fd
          (float_of_int (Array.unsafe_get e.cregs rs));
        next e
  | Cvtfi (rd, fs) ->
      fun e ->
        Array.unsafe_set e.cregs rd
          (int_of_float (Array.unsafe_get e.cfregs fs));
        next e
  | Sys (num, rd) ->
      let rb = clen_next in
      fun e ->
        (* deliver the segment through the syscall, then expose the
           exact retirement index and pc to the handler: the chain's
           bulk advance overshoots by the statically known remainder
           [rb] *)
        if e.c_segs then deliver e (pc + 1);
        let m = e.cm in
        let bulk = m.icount in
        m.icount <- bulk - rb;
        m.pc <- pc;
        Array.unsafe_set e.cregs rd (e.csyscall num);
        m.icount <- bulk;
        next e
  | Branch _ | Jump _ | Call _ | Ret | Halt ->
      (* control instructions are compiled by [compile_step] *)
      assert false

(* a conditional branch ends its block: the block's last segment
   precedes the branch event *)
let branch_event e pc taken =
  if e.c_segs then flush e;
  e.c_branch pc taken

let compile_branch pc c r1 r2 target : cenv -> unit =
  let next_pc = pc + 1 in
  match (c : Isa.cond) with
  | Eq ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 = Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Ne ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 <> Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Lt ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 < Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Le ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 <= Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Gt ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 > Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Ge ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 >= Array.unsafe_get regs r2 in
        if e.c_hooked then branch_event e pc taken;
        e.cm.pc <- (if taken then target else next_pc)

(* A call-stack fault: the faulting instruction's segment is
   delivered and the machine left at it before the error escapes. *)
let stack_fault e pc msg =
  if e.c_segs then flush e;
  e.cm.pc <- pc;
  raise (Stack_error (Printf.sprintf "%s at pc %d" msg pc))

(* One instruction on its own, leaving [m.pc] at its successor: a
   control instruction's unchained terminator, or a non-control one
   with a "set pc" continuation.  Chains end in these, and fuel tails
   step through them. *)
let compile_step pc (i : Isa.instr) : cenv -> unit =
  match i with
  | Branch (c, r1, r2, target) -> compile_branch pc c r1 r2 target
  | Jump target -> fun e -> e.cm.pc <- target
  | Call target ->
      let ret_pc = pc + 1 in
      fun e ->
        let m = e.cm in
        if m.sp >= stack_depth then stack_fault e pc "call-stack overflow";
        m.callstack.(m.sp) <- ret_pc;
        m.sp <- m.sp + 1;
        m.pc <- target
  | Ret ->
      fun e ->
        let m = e.cm in
        if m.sp <= 0 then stack_fault e pc "ret on empty stack";
        m.sp <- m.sp - 1;
        m.pc <- m.callstack.(m.sp)
  | Halt ->
      fun e ->
        e.cm.pc <- pc;
        e.c_halted <- true
  | i ->
      let succ = pc + 1 in
      compile_straight pc i ~next:(fun e -> e.cm.pc <- succ) ~clen_next:0

let unbuilt (_ : cenv) = assert false

let compile (prog : Program.t) : compiled =
  let instrs = prog.instrs in
  let n = Array.length instrs in
  let blocks = prog.blocks in
  let nblocks = Array.length blocks in
  (* [code.(pc)]: closure for the in-chain continuation at [pc] — block
     leaders carry their hook prologue, body pcs do not, so a chain
     link into a leader fires the next block's events exactly like a
     fresh block entry.  [entry_code.(pc)] is what the dispatcher
     calls: the same closure for leaders, a partial-span wrapper for
     mid-block resume points.  Index [n] catches a program that runs
     off the end. *)
  let code : (cenv -> unit) array = Array.make (n + 1) unbuilt in
  let entry_code : (cenv -> unit) array = Array.make (n + 1) unbuilt in
  let clen = Array.make (n + 1) 0 in
  entry_code.(n) <-
    (fun _ -> invalid_arg "Interp: execution ran off the end of the program");
  (* Decreasing block order: every chain target (strictly beyond the
     current terminator) is already compiled and wrapped. *)
  for b = nblocks - 1 downto 0 do
    let blk = blocks.(b) in
    let start = blk.Program.start_pc in
    let len = blk.Program.len in
    let term_pc = start + len - 1 in
    let chainable t = t > term_pc && t < n && len + clen.(t) <= max_chain_insns in
    let link t = clen.(term_pc) <- 1 + clen.(t) in
    (match instrs.(term_pc) with
    | Jump target when chainable target ->
        (* the jump's only effect is the pc change the chain link
           makes implicit: compile it to the target's closure *)
        code.(term_pc) <- code.(target);
        link target
    | Call target when chainable target ->
        let ret_pc = term_pc + 1 in
        let tgt = code.(target) in
        let rb = clen.(target) in
        code.(term_pc) <-
          (fun e ->
            let m = e.cm in
            if m.sp >= stack_depth then begin
              m.icount <- m.icount - rb;
              stack_fault e term_pc "call-stack overflow"
            end;
            m.callstack.(m.sp) <- ret_pc;
            m.sp <- m.sp + 1;
            tgt e);
        link target
    | i when (not (Isa.is_control i)) && chainable (term_pc + 1) ->
        (* fallthrough into the next leader *)
        let succ = term_pc + 1 in
        code.(term_pc) <-
          compile_straight term_pc i ~next:code.(succ) ~clen_next:clen.(succ);
        link succ
    | i ->
        code.(term_pc) <- compile_step term_pc i;
        clen.(term_pc) <- 1);
    for pc = term_pc - 1 downto start do
      code.(pc) <-
        compile_straight pc instrs.(pc) ~next:code.(pc + 1)
          ~clen_next:clen.(pc + 1);
      clen.(pc) <- 1 + clen.(pc + 1)
    done;
    (* leader prologue: the previous segment, the block's events, then
       the straight body *)
    let body = code.(start) in
    code.(start) <-
      (fun e ->
        if e.c_hooked then begin
          if e.c_segs then open_segment e start len;
          e.entered <- e.entered + 1;
          e.c_block b;
          e.c_span start len
        end;
        body e);
    entry_code.(start) <- code.(start);
    (* mid-block resume entries: a partial span, no [on_block] *)
    for pc = start + 1 to term_pc do
      let npart = term_pc + 1 - pc in
      let body = code.(pc) in
      entry_code.(pc) <-
        (fun e ->
          if e.c_hooked then begin
            if e.c_segs then open_segment e pc npart;
            e.entered <- e.entered + 1;
            e.c_span pc npart
          end;
          body e)
    done
  done;
  { entry_code; entry_len = clen; steps = Array.make (n + 1) unbuilt }

(* Per-domain cache of compiled programs, keyed by physical identity of
   the [Program.t].  Compilation is deterministic and self-contained,
   so worker domains compile independently instead of sharing (no locks
   on the replay hot path); the bound only guards against unbounded
   growth when many distinct programs flow through one domain. *)
let compiled_cache_limit = 32

let compiled_cache : (Program.t * compiled) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compiled_for (prog : Program.t) : compiled =
  let cache = Domain.DLS.get compiled_cache in
  match !cache with
  | (p0, c0) :: _ when p0 == prog -> c0
  | entries -> (
      let rec find = function
        | [] -> None
        | (p, (c : compiled)) :: _ when p == prog -> Some c
        | _ :: rest -> find rest
      in
      match find entries with
      | Some c ->
          (* move-to-front keeps the repeated-replay case one compare *)
          cache := (prog, c) :: List.filter (fun (p, _) -> p != prog) entries;
          c
      | None ->
          let c = compile prog in
          let entries =
            if List.length entries >= compiled_cache_limit then
              List.filteri (fun i _ -> i < compiled_cache_limit - 1) entries
            else entries
          in
          cache := (prog, c) :: entries;
          c)

(* the single-instruction closure at [pc], built on first use *)
let step_at c (prog : Program.t) pc =
  let s = Array.unsafe_get c.steps pc in
  if s != unbuilt then s
  else begin
    let s = compile_step pc prog.instrs.(pc) in
    c.steps.(pc) <- s;
    s
  end

(* The dispatch loop: whole chains while the fuel covers them, then
   the fuel tail. *)
let run_compiled c (prog : Program.t) e ~fuel =
  let m = e.cm in
  let entry_code = c.entry_code in
  let entry_len = c.entry_len in
  let remaining = ref fuel in
  let running = ref (fuel > 0) in
  while !running do
    let pc = m.pc in
    let len = Array.unsafe_get entry_len pc in
    if len <= !remaining then begin
      m.icount <- m.icount + len;
      remaining := !remaining - len;
      (Array.unsafe_get entry_code pc) e;
      if e.c_halted || !remaining <= 0 then running := false
    end
    else begin
      (* Not enough fuel for the whole chain: step its first
         [remaining] instructions one block entry at a time, firing
         the events of each (possibly truncated) entry as the chain's
         prologues would. *)
      while !remaining > 0 && not e.c_halted do
        let pc0 = m.pc in
        let bb = Array.unsafe_get prog.bb_of_pc pc0 in
        let n = min (Array.unsafe_get prog.block_end bb - pc0) !remaining in
        if e.c_hooked then begin
          if e.c_segs then open_segment e pc0 n;
          if Array.unsafe_get prog.is_leader pc0 then e.c_block bb;
          e.c_span pc0 n;
          e.entered <- e.entered + 1
        end;
        for pc = pc0 to pc0 + n - 1 do
          let step = step_at c prog pc in
          m.icount <- m.icount + 1;
          step e
        done;
        remaining := !remaining - n
      done;
      running := false
    end
  done;
  if e.c_segs then flush e
[@@inline never]

(* A run's counters, added whether it returns or raises: a run ending
   in [Stack_error] or a raising syscall handler counts what it
   retired.  [vm.blocks_stepped] counts only hooked runs: nil-hook fuel
   splits legitimately differ between replay strategies (sequential
   scan vs capture-then-fan-out), so counting them would break the
   metric's jobs-invariance. *)
let add_counters e icount0 tlb0 =
  let m = e.cm in
  Sp_obs.Metrics.add M.instructions (m.icount - icount0);
  Sp_obs.Metrics.add M.tlb_refills (Memory.tlb_refills m.mem - tlb0);
  if e.c_hooked then Sp_obs.Metrics.add M.blocks e.entered

(* One engine for every hook set. *)
let run ?(hooks = Hooks.nil) ?(syscall = default_syscall) ?(fuel = max_int)
    (prog : Program.t) (m : machine) =
  let c = compiled_for prog in
  let segs = Hooks.has_block_mems hooks in
  let cap = if segs then 2 * prog.max_block_len else 0 in
  let e =
    {
      cm = m;
      cregs = m.regs;
      cfregs = m.fregs;
      cmem = m.mem;
      csyscall = syscall;
      c_block = hooks.Hooks.on_block;
      c_span = hooks.Hooks.on_block_span;
      c_mems = hooks.Hooks.on_block_mems;
      c_branch = hooks.Hooks.on_branch;
      c_hooked = not (Hooks.is_nil hooks);
      c_segs = segs;
      offs = Array.make cap 0;
      addrs = Array.make cap 0;
      nrefs = 0;
      seg_pc = 0;
      seg_end = 0;
      c_halted = false;
      entered = 0;
    }
  in
  let icount0 = m.icount in
  let tlb0 = Memory.tlb_refills m.mem in
  match run_compiled c prog e ~fuel with
  | () ->
      add_counters e icount0 tlb0;
      if e.c_halted then Halted else Out_of_fuel
  | exception x ->
      add_counters e icount0 tlb0;
      raise x
