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

(* Execution metrics, flushed once per [run] (and once per engine loop
   for block counts) so the hot loops stay untouched.  Instruction,
   TLB-refill and copy-on-write page-copy totals are pure functions of
   the retired work and are registered stable; per-tier run counts
   depend on which pipeline path drove the interpreter, so they are
   not. *)
module M = struct
  let instructions = Sp_obs.Metrics.counter "vm.instructions"
  let tlb_refills = Sp_obs.Metrics.counter "vm.tlb_refills"
  let page_copies = Sp_obs.Metrics.counter "vm.page_copies"
  let blocks = Sp_obs.Metrics.counter "vm.blocks_stepped"
  let runs_plain = Sp_obs.Metrics.counter ~stable:false "vm.runs.plain"
  let runs_block = Sp_obs.Metrics.counter ~stable:false "vm.runs.block"
  let runs_hooked = Sp_obs.Metrics.counter ~stable:false "vm.runs.hooked"
  let runs_compiled = Sp_obs.Metrics.counter ~stable:false "vm.runs.compiled"
end

let exec_alu op a b =
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

let exec_falu op a b =
  match (op : Isa.falu_op) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> if b = 0.0 then 0.0 else a /. b

let eval_cond c a b =
  match (c : Isa.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

(* The nil-hook reference: the same walk as [run_hooked] below with
   every hook site deleted.  Nil runs pinned to [Reference] and the
   compiled tier's nil fuel tails run here, so the duplication buys a
   loop with zero closure calls — keep the two copies in lockstep when
   touching either. *)
let run_plain ~syscall ~fuel (prog : Program.t) (m : machine) =
  let instrs = prog.instrs in
  let regs = m.regs in
  let fregs = m.fregs in
  let mem = m.mem in
  let remaining = ref fuel in
  let status = ref Out_of_fuel in
  let running = ref (fuel > 0) in
  while !running do
    let pc = m.pc in
    m.icount <- m.icount + 1;
    decr remaining;
    (match Array.unsafe_get instrs pc with
    | Alu (op, rd, r1, r2) ->
        Array.unsafe_set regs rd
          (exec_alu op (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
        m.pc <- pc + 1
    | Alui (op, rd, r1, imm) ->
        Array.unsafe_set regs rd (exec_alu op (Array.unsafe_get regs r1) imm);
        m.pc <- pc + 1
    | Li (rd, imm) ->
        Array.unsafe_set regs rd imm;
        m.pc <- pc + 1
    | Mov (rd, rs) ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs);
        m.pc <- pc + 1
    | Load (rd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        Array.unsafe_set regs rd (Memory.load mem a);
        m.pc <- pc + 1
    | Store (rv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        Memory.store mem a (Array.unsafe_get regs rv);
        m.pc <- pc + 1
    | Movs (rdst, rsrc) ->
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
        Memory.store mem dst (Memory.load mem src);
        m.pc <- pc + 1
    | Falu (op, fd, f1, f2) ->
        Array.unsafe_set fregs fd
          (exec_falu op (Array.unsafe_get fregs f1) (Array.unsafe_get fregs f2));
        m.pc <- pc + 1
    | Fload (fd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        Array.unsafe_set fregs fd (Memory.loadf mem a);
        m.pc <- pc + 1
    | Fstore (fv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        Memory.storef mem a (Array.unsafe_get fregs fv);
        m.pc <- pc + 1
    | Fmovi (fd, x) ->
        Array.unsafe_set fregs fd x;
        m.pc <- pc + 1
    | Cvtif (fd, rs) ->
        Array.unsafe_set fregs fd (float_of_int (Array.unsafe_get regs rs));
        m.pc <- pc + 1
    | Cvtfi (rd, fs) ->
        Array.unsafe_set regs rd (int_of_float (Array.unsafe_get fregs fs));
        m.pc <- pc + 1
    | Branch (c, r1, r2, target) ->
        let taken =
          eval_cond c (Array.unsafe_get regs r1) (Array.unsafe_get regs r2)
        in
        m.pc <- (if taken then target else pc + 1)
    | Jump target -> m.pc <- target
    | Call target ->
        if m.sp >= stack_depth then
          raise (Stack_error (Printf.sprintf "call-stack overflow at pc %d" pc));
        m.callstack.(m.sp) <- pc + 1;
        m.sp <- m.sp + 1;
        m.pc <- target
    | Ret ->
        if m.sp <= 0 then
          raise (Stack_error (Printf.sprintf "ret on empty stack at pc %d" pc));
        m.sp <- m.sp - 1;
        m.pc <- m.callstack.(m.sp)
    | Sys (n, rd) ->
        Array.unsafe_set regs rd (syscall n);
        m.pc <- pc + 1
    | Halt ->
        status := Halted;
        running := false);
    if !remaining <= 0 then running := false
  done;
  !status
[@@inline never]

(* The block stepper: all hook dispatch happens once per basic-block
   entry.  The block's extent comes from [Program.block_end]; the
   straight-line body then executes with no leader tests, no
   per-instruction fuel checks and no closure calls, collecting its
   data references into per-run buffers that reach [on_block_mems] as
   one aggregate segment per block entry (the no-op sentinel when no
   consumer is attached).  Only the final instruction of a block can
   transfer control, so the body match never sees one.

   Invariants kept in lockstep with the per-instruction engine:
   - [m.icount] is bulk-advanced at block entry, but any [Sys]
     instruction observes the exact per-instruction count (pinball
     logging records syscalls as [icount - 1]) and [m.pc] is set to the
     syscall's pc so a raising handler leaves the machine addressable;
   - a fuel boundary mid-block retires exactly [remaining] instructions
     and leaves [m.pc] at the next unexecuted one, so resumed runs are
     bit-identical to uninterrupted ones;
   - [on_block] fires only when entering through the leader (a resume
     mid-block does not re-announce the block), [on_block_span] fires on
     every entry with the retired extent, and [on_branch] fires at the
     terminator exactly as the per-instruction engine does;
   - segments partition the retirement stream: every retired
     instruction belongs to exactly one segment, in order, so a
     consumer's reconstructed fetch stream is the per-instruction one;
   - a [Sys] in the body flushes the segment up to and including the
     syscall instruction *before* invoking the handler — the
     per-instruction engine delivers each instruction before executing
     the next, so a raising handler must leave the consumer having seen
     exactly the same prefix;
   - the terminator's references are collected (addresses are
     computable before any state change) and the whole segment flushed
     before the terminator's effect runs, so a [Call]/[Ret] stack
     error also leaves the consumer exactly one instruction ahead of
     the machine, as the per-instruction engine does;
   - reference buffers are reused across segments; offsets are relative
     to the segment start and addresses carry the write bit in bit 0
     (see [Hooks.on_block_mems]). *)
let run_block ~hooks ~syscall ~fuel (prog : Program.t) (m : machine) =
  let instrs = prog.instrs in
  let is_leader = prog.is_leader in
  let bb_of_pc = prog.bb_of_pc in
  let block_end = prog.block_end in
  let regs = m.regs in
  let fregs = m.fregs in
  let mem = m.mem in
  let on_block = hooks.Hooks.on_block in
  let on_block_span = hooks.Hooks.on_block_span in
  let has_span = on_block_span != Hooks.nil.Hooks.on_block_span in
  let on_block_mems = hooks.Hooks.on_block_mems in
  let on_branch = hooks.Hooks.on_branch in
  (* at most two references per instruction (Movs: read then write) *)
  let cap = 2 * prog.max_block_len in
  let offs = Array.make cap 0 in
  let addrs = Array.make cap 0 in
  let remaining = ref fuel in
  let status = ref Out_of_fuel in
  let running = ref (fuel > 0) in
  let blocks = ref 0 in
  while !running do
    incr blocks;
    let pc0 = m.pc in
    let bb = Array.unsafe_get bb_of_pc pc0 in
    if Array.unsafe_get is_leader pc0 then on_block bb;
    let stop = Array.unsafe_get block_end bb in
    let avail = stop - pc0 in
    let n = if avail <= !remaining then avail else !remaining in
    if has_span then on_block_span pc0 n;
    m.icount <- m.icount + n;
    remaining := !remaining - n;
    let last = pc0 + n - 1 in
    let seg_start = ref pc0 in
    let nrefs = ref 0 in
    for pc = pc0 to last - 1 do
      match Array.unsafe_get instrs pc with
      | Alu (op, rd, r1, r2) ->
          Array.unsafe_set regs rd
            (exec_alu op (Array.unsafe_get regs r1) (Array.unsafe_get regs r2))
      | Alui (op, rd, r1, imm) ->
          Array.unsafe_set regs rd (exec_alu op (Array.unsafe_get regs r1) imm)
      | Li (rd, imm) -> Array.unsafe_set regs rd imm
      | Mov (rd, rs) -> Array.unsafe_set regs rd (Array.unsafe_get regs rs)
      | Load (rd, rs, off) ->
          let a = Array.unsafe_get regs rs + off in
          let r = !nrefs in
          Array.unsafe_set offs r (pc - !seg_start);
          Array.unsafe_set addrs r (a lsl 1);
          nrefs := r + 1;
          Array.unsafe_set regs rd (Memory.load mem a)
      | Store (rv, rb, off) ->
          let a = Array.unsafe_get regs rb + off in
          let r = !nrefs in
          Array.unsafe_set offs r (pc - !seg_start);
          Array.unsafe_set addrs r ((a lsl 1) lor 1);
          nrefs := r + 1;
          Memory.store mem a (Array.unsafe_get regs rv)
      | Movs (rdst, rsrc) ->
          let src = Array.unsafe_get regs rsrc in
          let dst = Array.unsafe_get regs rdst in
          let r = !nrefs in
          let o = pc - !seg_start in
          Array.unsafe_set offs r o;
          Array.unsafe_set addrs r (src lsl 1);
          Array.unsafe_set offs (r + 1) o;
          Array.unsafe_set addrs (r + 1) ((dst lsl 1) lor 1);
          nrefs := r + 2;
          Memory.store mem dst (Memory.load mem src)
      | Falu (op, fd, f1, f2) ->
          Array.unsafe_set fregs fd
            (exec_falu op (Array.unsafe_get fregs f1)
               (Array.unsafe_get fregs f2))
      | Fload (fd, rs, off) ->
          let a = Array.unsafe_get regs rs + off in
          let r = !nrefs in
          Array.unsafe_set offs r (pc - !seg_start);
          Array.unsafe_set addrs r (a lsl 1);
          nrefs := r + 1;
          Array.unsafe_set fregs fd (Memory.loadf mem a)
      | Fstore (fv, rb, off) ->
          let a = Array.unsafe_get regs rb + off in
          let r = !nrefs in
          Array.unsafe_set offs r (pc - !seg_start);
          Array.unsafe_set addrs r ((a lsl 1) lor 1);
          nrefs := r + 1;
          Memory.storef mem a (Array.unsafe_get fregs fv)
      | Fmovi (fd, x) -> Array.unsafe_set fregs fd x
      | Cvtif (fd, rs) ->
          Array.unsafe_set fregs fd (float_of_int (Array.unsafe_get regs rs))
      | Cvtfi (rd, fs) ->
          Array.unsafe_set regs rd (int_of_float (Array.unsafe_get fregs fs))
      | Sys (num, rd) ->
          (* flush through the syscall instruction, then expose the
             exact retirement index to the handler *)
          on_block_mems !seg_start (pc - !seg_start + 1) offs addrs !nrefs;
          nrefs := 0;
          seg_start := pc + 1;
          let bulk = m.icount in
          m.icount <- bulk - (last - pc);
          m.pc <- pc;
          Array.unsafe_set regs rd (syscall num);
          m.icount <- bulk
      | Branch _ | Jump _ | Call _ | Ret | Halt ->
          (* control instructions end their block *)
          assert false
    done;
    let pc = last in
    (* the terminator's data addresses depend only on registers, so they
       can be collected — and the whole segment flushed — before its
       effect runs (see the invariants above) *)
    (match Array.unsafe_get instrs pc with
    | Load (_, rs, off) ->
        let r = !nrefs in
        Array.unsafe_set offs r (pc - !seg_start);
        Array.unsafe_set addrs r ((Array.unsafe_get regs rs + off) lsl 1);
        nrefs := r + 1
    | Store (_, rb, off) ->
        let r = !nrefs in
        Array.unsafe_set offs r (pc - !seg_start);
        Array.unsafe_set addrs r
          (((Array.unsafe_get regs rb + off) lsl 1) lor 1);
        nrefs := r + 1
    | Movs (rdst, rsrc) ->
        let r = !nrefs in
        let o = pc - !seg_start in
        Array.unsafe_set offs r o;
        Array.unsafe_set addrs r (Array.unsafe_get regs rsrc lsl 1);
        Array.unsafe_set offs (r + 1) o;
        Array.unsafe_set addrs (r + 1) ((Array.unsafe_get regs rdst lsl 1) lor 1);
        nrefs := r + 2
    | Fload (_, rs, off) ->
        let r = !nrefs in
        Array.unsafe_set offs r (pc - !seg_start);
        Array.unsafe_set addrs r ((Array.unsafe_get regs rs + off) lsl 1);
        nrefs := r + 1
    | Fstore (_, rb, off) ->
        let r = !nrefs in
        Array.unsafe_set offs r (pc - !seg_start);
        Array.unsafe_set addrs r
          (((Array.unsafe_get regs rb + off) lsl 1) lor 1);
        nrefs := r + 1
    | _ -> ());
    on_block_mems !seg_start (pc - !seg_start + 1) offs addrs !nrefs;
    (match Array.unsafe_get instrs pc with
    | Alu (op, rd, r1, r2) ->
        Array.unsafe_set regs rd
          (exec_alu op (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
        m.pc <- pc + 1
    | Alui (op, rd, r1, imm) ->
        Array.unsafe_set regs rd (exec_alu op (Array.unsafe_get regs r1) imm);
        m.pc <- pc + 1
    | Li (rd, imm) ->
        Array.unsafe_set regs rd imm;
        m.pc <- pc + 1
    | Mov (rd, rs) ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs);
        m.pc <- pc + 1
    | Load (rd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        Array.unsafe_set regs rd (Memory.load mem a);
        m.pc <- pc + 1
    | Store (rv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        Memory.store mem a (Array.unsafe_get regs rv);
        m.pc <- pc + 1
    | Movs (rdst, rsrc) ->
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
        Memory.store mem dst (Memory.load mem src);
        m.pc <- pc + 1
    | Falu (op, fd, f1, f2) ->
        Array.unsafe_set fregs fd
          (exec_falu op (Array.unsafe_get fregs f1) (Array.unsafe_get fregs f2));
        m.pc <- pc + 1
    | Fload (fd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        Array.unsafe_set fregs fd (Memory.loadf mem a);
        m.pc <- pc + 1
    | Fstore (fv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        Memory.storef mem a (Array.unsafe_get fregs fv);
        m.pc <- pc + 1
    | Fmovi (fd, x) ->
        Array.unsafe_set fregs fd x;
        m.pc <- pc + 1
    | Cvtif (fd, rs) ->
        Array.unsafe_set fregs fd (float_of_int (Array.unsafe_get regs rs));
        m.pc <- pc + 1
    | Cvtfi (rd, fs) ->
        Array.unsafe_set regs rd (int_of_float (Array.unsafe_get fregs fs));
        m.pc <- pc + 1
    | Sys (num, rd) ->
        m.pc <- pc;
        Array.unsafe_set regs rd (syscall num);
        m.pc <- pc + 1
    | Branch (c, r1, r2, target) ->
        let taken =
          eval_cond c (Array.unsafe_get regs r1) (Array.unsafe_get regs r2)
        in
        on_branch pc taken;
        m.pc <- (if taken then target else pc + 1)
    | Jump target -> m.pc <- target
    | Call target ->
        if m.sp >= stack_depth then begin
          m.pc <- pc;
          raise (Stack_error (Printf.sprintf "call-stack overflow at pc %d" pc))
        end;
        m.callstack.(m.sp) <- pc + 1;
        m.sp <- m.sp + 1;
        m.pc <- target
    | Ret ->
        if m.sp <= 0 then begin
          m.pc <- pc;
          raise (Stack_error (Printf.sprintf "ret on empty stack at pc %d" pc))
        end;
        m.sp <- m.sp - 1;
        m.pc <- m.callstack.(m.sp)
    | Halt ->
        m.pc <- pc;
        status := Halted;
        running := false);
    if !remaining <= 0 then running := false
  done;
  Sp_obs.Metrics.add M.blocks !blocks;
  !status
[@@inline never]

(* The per-instruction engine: every hook dispatched per retirement.
   Block-level callbacks seq'd with per-instruction ones still see
   every retirement, as one [n = 1] span each; a live [on_block_mems]
   consumer gets one single-instruction segment per retirement, flushed
   after execution for ordinary instructions but *before* a syscall
   handler runs and before a [Call]/[Ret] stack error is raised — the
   visibility the block stepper gives its consumers.  Both aggregates
   are guarded by flags hoisted out of the loop, so hook sets without
   them pay one predictable branch per retirement. *)
let run_hooked ~hooks ~syscall ~fuel (prog : Program.t) (m : machine) =
  let instrs = prog.instrs in
  let kinds = prog.kinds in
  let is_leader = prog.is_leader in
  let bb_of_pc = prog.bb_of_pc in
  let regs = m.regs in
  let fregs = m.fregs in
  let mem = m.mem in
  let on_block = hooks.Hooks.on_block in
  let on_block_span = hooks.Hooks.on_block_span in
  let has_span = on_block_span != Hooks.nil.Hooks.on_block_span in
  let on_block_mems = hooks.Hooks.on_block_mems in
  let has_mems = Hooks.has_block_mems hooks in
  let on_instr = hooks.Hooks.on_instr in
  let on_read = hooks.Hooks.on_read in
  let on_write = hooks.Hooks.on_write in
  let on_branch = hooks.Hooks.on_branch in
  (* single-instruction segments: both offsets are 0, at most two refs *)
  let offs = Array.make 2 0 in
  let addrs = Array.make 2 0 in
  let remaining = ref fuel in
  let status = ref Out_of_fuel in
  let running = ref (fuel > 0) in
  while !running do
    let pc = m.pc in
    if Array.unsafe_get is_leader pc then on_block (Array.unsafe_get bb_of_pc pc);
    if has_span then on_block_span pc 1;
    on_instr pc (Array.unsafe_get kinds pc);
    m.icount <- m.icount + 1;
    decr remaining;
    (match Array.unsafe_get instrs pc with
    | Alu (op, rd, r1, r2) ->
        Array.unsafe_set regs rd
          (exec_alu op (Array.unsafe_get regs r1) (Array.unsafe_get regs r2));
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Alui (op, rd, r1, imm) ->
        Array.unsafe_set regs rd (exec_alu op (Array.unsafe_get regs r1) imm);
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Li (rd, imm) ->
        Array.unsafe_set regs rd imm;
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Mov (rd, rs) ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs);
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Load (rd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        on_read a;
        Array.unsafe_set regs rd (Memory.load mem a);
        if has_mems then begin
          Array.unsafe_set addrs 0 (a lsl 1);
          on_block_mems pc 1 offs addrs 1
        end;
        m.pc <- pc + 1
    | Store (rv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        on_write a;
        Memory.store mem a (Array.unsafe_get regs rv);
        if has_mems then begin
          Array.unsafe_set addrs 0 ((a lsl 1) lor 1);
          on_block_mems pc 1 offs addrs 1
        end;
        m.pc <- pc + 1
    | Movs (rdst, rsrc) ->
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
        on_read src;
        on_write dst;
        Memory.store mem dst (Memory.load mem src);
        if has_mems then begin
          Array.unsafe_set addrs 0 (src lsl 1);
          Array.unsafe_set addrs 1 ((dst lsl 1) lor 1);
          on_block_mems pc 1 offs addrs 2
        end;
        m.pc <- pc + 1
    | Falu (op, fd, f1, f2) ->
        Array.unsafe_set fregs fd
          (exec_falu op (Array.unsafe_get fregs f1) (Array.unsafe_get fregs f2));
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Fload (fd, rs, off) ->
        let a = Array.unsafe_get regs rs + off in
        on_read a;
        Array.unsafe_set fregs fd (Memory.loadf mem a);
        if has_mems then begin
          Array.unsafe_set addrs 0 (a lsl 1);
          on_block_mems pc 1 offs addrs 1
        end;
        m.pc <- pc + 1
    | Fstore (fv, rb, off) ->
        let a = Array.unsafe_get regs rb + off in
        on_write a;
        Memory.storef mem a (Array.unsafe_get fregs fv);
        if has_mems then begin
          Array.unsafe_set addrs 0 ((a lsl 1) lor 1);
          on_block_mems pc 1 offs addrs 1
        end;
        m.pc <- pc + 1
    | Fmovi (fd, x) ->
        Array.unsafe_set fregs fd x;
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Cvtif (fd, rs) ->
        Array.unsafe_set fregs fd (float_of_int (Array.unsafe_get regs rs));
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Cvtfi (rd, fs) ->
        Array.unsafe_set regs rd (int_of_float (Array.unsafe_get fregs fs));
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- pc + 1
    | Branch (c, r1, r2, target) ->
        let taken =
          eval_cond c (Array.unsafe_get regs r1) (Array.unsafe_get regs r2)
        in
        on_branch pc taken;
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- (if taken then target else pc + 1)
    | Jump target ->
        if has_mems then on_block_mems pc 1 offs addrs 0;
        m.pc <- target
    | Call target ->
        if has_mems then on_block_mems pc 1 offs addrs 0;
        if m.sp >= stack_depth then
          raise (Stack_error (Printf.sprintf "call-stack overflow at pc %d" pc));
        m.callstack.(m.sp) <- pc + 1;
        m.sp <- m.sp + 1;
        m.pc <- target
    | Ret ->
        if has_mems then on_block_mems pc 1 offs addrs 0;
        if m.sp <= 0 then
          raise (Stack_error (Printf.sprintf "ret on empty stack at pc %d" pc));
        m.sp <- m.sp - 1;
        m.pc <- m.callstack.(m.sp)
    | Sys (n, rd) ->
        if has_mems then on_block_mems pc 1 offs addrs 0;
        Array.unsafe_set regs rd (syscall n);
        m.pc <- pc + 1
    | Halt ->
        if has_mems then on_block_mems pc 1 offs addrs 0;
        status := Halted;
        running := false);
    if !remaining <= 0 then running := false
  done;
  !status
[@@inline never]

(* ------------------------------------------------------------------ *)
(* The compiled tier.

   A pre-compilation pass walks the program once and turns every basic
   block into a chain of straight-line OCaml closures: one closure per
   instruction, each performing its effect on the raw machine arrays
   and tail-calling the next.  Executing a block is then one indirect
   call per instruction with no opcode decode, no per-instruction fuel
   check and no pc bookkeeping — the pc is implicit in which closure is
   running and is only materialised where an engine contract requires
   it (syscalls, stack errors, chain exits).  Unconditional terminators
   with a forward static target ([Jump]/[Call]/fallthrough into the
   next leader) chain directly into the target block's closure, fusing
   superblocks; forward-only chaining makes the closure graph a DAG, so
   compilation in decreasing pc order always finds its continuations
   already built, and [max_chain_insns] bounds how much fuel a single
   dispatch can consume.

   Compiled closures are built once per program and shared across runs,
   so they cannot capture any per-run state: machine, syscall handler
   and hooks travel in a [cenv] handed to every closure.

   Contracts kept in lockstep with the other engines:
   - hook events: each block's closure chain starts with a prologue
     firing [on_block]/[on_block_span] exactly as [run_block] does at a
     block entry; mid-block resume entries fire the partial span
     without [on_block];
   - [m.icount] is bulk-advanced for the whole chain at dispatch, and
     every [Sys] closure rolls it back to the exact per-instruction
     value (the remainder of its chain is a compile-time constant), so
     pinball syscall logging stays tier-independent; a [Call] overflow
     rolls back the same way before raising;
   - fuel: a chain is dispatched only when the remaining fuel covers it
     entirely; otherwise the run tail is delegated to the block
     stepper (or the plain tier when nothing is hooked),
     which lands the fuel boundary on exactly the same instruction with
     identical partial-block events and machine state. *)

type cenv = {
  cm : machine;
  cregs : int array;
  cfregs : float array;
  cmem : Memory.t;
  csyscall : int -> int;
  c_block : int -> unit;
  c_span : int -> int -> unit;
  c_branch : int -> bool -> unit;
  c_hooked : bool;
  mutable c_halted : bool;
}

type compiled = {
  entry_code : (cenv -> unit) array;
      (* per pc: closure executing from pc to the end of its chain *)
  entry_len : int array;
      (* instructions the chain from pc retires (all-or-nothing) *)
  entry_blocks : int array;
      (* block entries the chain from pc makes, for [M.blocks] *)
}

(* Upper bound on the instructions one chain dispatch may retire.
   Chains are all-or-nothing against the remaining fuel, so this also
   bounds how early the dispatcher must hand a run's tail to the
   interpreted fallback. *)
let max_chain_insns = 1024

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
        Array.unsafe_set regs rd (Memory.load e.cmem a);
        next e
  | Store (rv, rb, off) ->
      fun e ->
        let regs = e.cregs in
        let a = Array.unsafe_get regs rb + off in
        Memory.store e.cmem a (Array.unsafe_get regs rv);
        next e
  | Movs (rdst, rsrc) ->
      fun e ->
        let regs = e.cregs in
        let mem = e.cmem in
        let src = Array.unsafe_get regs rsrc in
        let dst = Array.unsafe_get regs rdst in
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
        Array.unsafe_set e.cfregs fd (Memory.loadf e.cmem a);
        next e
  | Fstore (fv, rb, off) ->
      fun e ->
        let a = Array.unsafe_get e.cregs rb + off in
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
        (* expose the exact retirement index and pc to the handler: the
           chain's bulk advance overshoots by the statically known
           remainder [rb] *)
        let m = e.cm in
        let bulk = m.icount in
        m.icount <- bulk - rb;
        m.pc <- pc;
        Array.unsafe_set e.cregs rd (e.csyscall num);
        m.icount <- bulk;
        next e
  | Branch _ | Jump _ | Call _ | Ret | Halt ->
      (* control instructions are compiled by the terminator pass *)
      assert false

let compile_branch pc c r1 r2 target : cenv -> unit =
  let next_pc = pc + 1 in
  match (c : Isa.cond) with
  | Eq ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 = Array.unsafe_get regs r2 in
        if e.c_hooked then e.c_branch pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Ne ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 <> Array.unsafe_get regs r2 in
        if e.c_hooked then e.c_branch pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Lt ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 < Array.unsafe_get regs r2 in
        if e.c_hooked then e.c_branch pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Le ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 <= Array.unsafe_get regs r2 in
        if e.c_hooked then e.c_branch pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Gt ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 > Array.unsafe_get regs r2 in
        if e.c_hooked then e.c_branch pc taken;
        e.cm.pc <- (if taken then target else next_pc)
  | Ge ->
      fun e ->
        let regs = e.cregs in
        let taken = Array.unsafe_get regs r1 >= Array.unsafe_get regs r2 in
        if e.c_hooked then e.c_branch pc taken;
        e.cm.pc <- (if taken then target else next_pc)

let compile (prog : Program.t) : compiled =
  let instrs = prog.instrs in
  let n = Array.length instrs in
  let blocks = prog.blocks in
  let bb_of_pc = prog.bb_of_pc in
  let nblocks = Array.length blocks in
  let unreachable (_ : cenv) = assert false in
  (* [code.(pc)]: closure for the in-chain continuation at [pc] — block
     leaders carry their hook prologue, body pcs do not, so a chain
     link into a leader fires the next block's events exactly like a
     fresh [run_block] entry.  [entry_code.(pc)] is what the dispatcher
     calls: the same closure for leaders, a partial-aggregate wrapper
     for mid-block resume points.  Index [n] catches a program that
     runs off the end (the per-instruction tiers fault on the
     out-of-range fetch; here it raises cleanly). *)
  let code : (cenv -> unit) array = Array.make (n + 1) unreachable in
  let entry_code : (cenv -> unit) array = Array.make (n + 1) unreachable in
  let clen = Array.make (n + 1) 0 in
  let entry_blocks = Array.make (n + 1) 0 in
  (* dynamic block entries made by a chain entering block [b] *)
  let blocks_from = Array.make nblocks 1 in
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
    (match instrs.(term_pc) with
    | Branch (c, r1, r2, target) ->
        code.(term_pc) <- compile_branch term_pc c r1 r2 target;
        clen.(term_pc) <- 1
    | Jump target ->
        if chainable target then begin
          (* the jump's only effect is the pc change the chain link
             makes implicit: compile it to the target's closure *)
          code.(term_pc) <- code.(target);
          clen.(term_pc) <- 1 + clen.(target);
          blocks_from.(b) <- 1 + blocks_from.(bb_of_pc.(target))
        end
        else begin
          code.(term_pc) <- (fun e -> e.cm.pc <- target);
          clen.(term_pc) <- 1
        end
    | Call target ->
        let ret_pc = term_pc + 1 in
        if chainable target then begin
          let tgt = code.(target) in
          let rb = clen.(target) in
          code.(term_pc) <-
            (fun e ->
              let m = e.cm in
              if m.sp >= stack_depth then begin
                m.icount <- m.icount - rb;
                m.pc <- term_pc;
                raise
                  (Stack_error
                     (Printf.sprintf "call-stack overflow at pc %d" term_pc))
              end;
              m.callstack.(m.sp) <- ret_pc;
              m.sp <- m.sp + 1;
              tgt e);
          clen.(term_pc) <- 1 + clen.(target);
          blocks_from.(b) <- 1 + blocks_from.(bb_of_pc.(target))
        end
        else begin
          code.(term_pc) <-
            (fun e ->
              let m = e.cm in
              if m.sp >= stack_depth then begin
                m.pc <- term_pc;
                raise
                  (Stack_error
                     (Printf.sprintf "call-stack overflow at pc %d" term_pc))
              end;
              m.callstack.(m.sp) <- ret_pc;
              m.sp <- m.sp + 1;
              m.pc <- target);
          clen.(term_pc) <- 1
        end
    | Ret ->
        code.(term_pc) <-
          (fun e ->
            let m = e.cm in
            if m.sp <= 0 then begin
              m.pc <- term_pc;
              raise
                (Stack_error
                   (Printf.sprintf "ret on empty stack at pc %d" term_pc))
            end;
            m.sp <- m.sp - 1;
            m.pc <- m.callstack.(m.sp));
        clen.(term_pc) <- 1
    | Halt ->
        code.(term_pc) <-
          (fun e ->
            e.cm.pc <- term_pc;
            e.c_halted <- true);
        clen.(term_pc) <- 1
    | i ->
        (* fallthrough terminator: a non-control instruction whose
           successor is a leader (or the end of the program) *)
        let succ = term_pc + 1 in
        if chainable succ then begin
          code.(term_pc) <-
            compile_straight term_pc i ~next:code.(succ) ~clen_next:clen.(succ);
          clen.(term_pc) <- 1 + clen.(succ);
          blocks_from.(b) <- 1 + blocks_from.(bb_of_pc.(succ))
        end
        else begin
          code.(term_pc) <-
            compile_straight term_pc i
              ~next:(fun e -> e.cm.pc <- succ)
              ~clen_next:0;
          clen.(term_pc) <- 1
        end);
    for pc = term_pc - 1 downto start do
      code.(pc) <-
        compile_straight pc instrs.(pc) ~next:code.(pc + 1)
          ~clen_next:clen.(pc + 1);
      clen.(pc) <- 1 + clen.(pc + 1)
    done;
    (* leader prologue: the block's events, then the straight body *)
    let plain_start = code.(start) in
    code.(start) <-
      (fun e ->
        if e.c_hooked then begin
          e.c_block b;
          e.c_span start len
        end;
        plain_start e);
    entry_code.(start) <- code.(start);
    entry_blocks.(start) <- blocks_from.(b);
    (* mid-block resume entries: a partial span, no [on_block] —
       matching [run_block] resuming inside a block *)
    for pc = start + 1 to term_pc do
      let npart = term_pc + 1 - pc in
      let body = code.(pc) in
      entry_code.(pc) <-
        (fun e ->
          if e.c_hooked then e.c_span pc npart;
          body e);
      entry_blocks.(pc) <- blocks_from.(b)
    done
  done;
  { entry_code; entry_len = clen; entry_blocks }

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

let run_compiled ~hooks ~syscall ~fuel (prog : Program.t) (m : machine) =
  let c = compiled_for prog in
  let e =
    {
      cm = m;
      cregs = m.regs;
      cfregs = m.fregs;
      cmem = m.mem;
      csyscall = syscall;
      c_block = hooks.Hooks.on_block;
      c_span = hooks.Hooks.on_block_span;
      c_branch = hooks.Hooks.on_branch;
      c_hooked = not (Hooks.is_nil hooks);
      c_halted = false;
    }
  in
  let entry_code = c.entry_code in
  let entry_len = c.entry_len in
  let entry_blocks = c.entry_blocks in
  let remaining = ref fuel in
  let blocks = ref 0 in
  let status = ref Out_of_fuel in
  let running = ref (fuel > 0) in
  while !running do
    let pc = m.pc in
    let len = Array.unsafe_get entry_len pc in
    if len <= !remaining then begin
      m.icount <- m.icount + len;
      remaining := !remaining - len;
      blocks := !blocks + Array.unsafe_get entry_blocks pc;
      (Array.unsafe_get entry_code pc) e;
      if e.c_halted then begin
        status := Halted;
        running := false
      end
      else if !remaining <= 0 then running := false
    end
    else begin
      (* Not enough fuel for the whole chain: the block stepper (or
         the plain tier when nothing is hooked) retires exactly
         [remaining] instructions from here, landing the fuel boundary
         on the same instruction with identical partial-block events
         and machine state. *)
      status :=
        (if e.c_hooked then run_block ~hooks ~syscall ~fuel:!remaining prog m
         else run_plain ~syscall ~fuel:!remaining prog m);
      running := false
    end
  done;
  (* [vm.blocks_stepped] counts only hooked runs, mirroring the other
     tiers: nil-hook runs historically go through [run_plain] (which
     never counts) and their fuel splits legitimately differ between
     replay strategies (sequential scan vs capture-then-fan-out), so
     counting them would break the metric's jobs-invariance.  Hooked
     runs count exactly what [run_block] would for the same fuel. *)
  if e.c_hooked then Sp_obs.Metrics.add M.blocks !blocks;
  !status
[@@inline never]

type engine = Auto | Reference | Block_step

(* Engine tiers, one counter each; under [Auto] the fastest tier the
   hook set admits wins:
   - nil, or block-level with no [on_block_mems] consumer
                                   -> [run_compiled]: one closure call
     per instruction, chained per superblock, zero decode, block
     prologues firing the aggregates
   - block-level with a consumer   -> [run_block]: per-block dispatch,
     data references delivered as one aggregate segment per block
   - any per-instruction hook      -> [run_hooked]: dispatch per
     retirement, single-instruction segments when a consumer is live
   [engine] pins the run at (at most) a given tier for differential
   testing: [Block_step] caps it at [run_block], [Reference] at the
   per-instruction loops ([run_plain] for nil hooks).  A pin never
   changes what the hook set can observe — sets with per-instruction
   hooks keep [run_hooked] regardless.  All tiers retire identical
   instruction streams and leave identical machine state for any fuel
   split. *)
let run ?(engine = Auto) ?(hooks = Hooks.nil) ?(syscall = default_syscall)
    ?(fuel = max_int) (prog : Program.t) (m : machine) =
  let icount0 = m.icount in
  let tlb0 = Memory.tlb_refills m.mem in
  let copies0 = Memory.page_copies m.mem in
  let block_level = Hooks.block_level hooks in
  let status =
    match engine with
    | Reference when Hooks.is_nil hooks ->
        Sp_obs.Metrics.incr M.runs_plain;
        run_plain ~syscall ~fuel prog m
    | Auto when block_level && not (Hooks.has_block_mems hooks) ->
        Sp_obs.Metrics.incr M.runs_compiled;
        run_compiled ~hooks ~syscall ~fuel prog m
    | (Auto | Block_step) when block_level ->
        Sp_obs.Metrics.incr M.runs_block;
        run_block ~hooks ~syscall ~fuel prog m
    | Auto | Block_step | Reference ->
        Sp_obs.Metrics.incr M.runs_hooked;
        run_hooked ~hooks ~syscall ~fuel prog m
  in
  Sp_obs.Metrics.add M.instructions (m.icount - icount0);
  Sp_obs.Metrics.add M.tlb_refills (Memory.tlb_refills m.mem - tlb0);
  Sp_obs.Metrics.add M.page_copies (Memory.page_copies m.mem - copies0);
  status
