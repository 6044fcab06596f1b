type t = {
  regs : int array;
  fregs : float array;
  pc : int;
  callstack : int array;
  sp : int;
  mem : Memory.t;
  icount : int;
}

let captures = Sp_obs.Metrics.counter "vm.snapshots"

(* Both directions copy the memory image, so a snapshot shares no
   mutable state with any machine.  [restore] only reads the snapshot,
   which makes restoring one snapshot from many domains at once safe. *)
let capture (m : Interp.machine) =
  Sp_obs.Metrics.incr captures;
  {
    regs = Array.copy m.regs;
    fregs = Array.copy m.fregs;
    pc = m.pc;
    callstack = Array.copy m.callstack;
    sp = m.sp;
    mem = Memory.copy m.mem;
    icount = m.icount;
  }

let restore t : Interp.machine =
  {
    regs = Array.copy t.regs;
    fregs = Array.copy t.fregs;
    pc = t.pc;
    callstack = Array.copy t.callstack;
    sp = t.sp;
    mem = Memory.copy t.mem;
    icount = t.icount;
  }

let icount t = t.icount
let pc t = t.pc
let mem_bytes t = Memory.footprint_bytes t.mem

(* ------------------------------------------------------------------ *)
(* Serialisation (pinball format v2) *)

let write buf t =
  let open Sp_util in
  Binio.w_int_array buf t.regs;
  Binio.w_float_array buf t.fregs;
  Binio.w_i64 buf t.pc;
  Binio.w_int_array buf t.callstack;
  Binio.w_i64 buf t.sp;
  Binio.w_i64 buf t.icount;
  Memory.write buf t.mem

(* The engine fetches unchecked at [pc] and at every return address it
   pops, and pushes unchecked below [Interp.stack_depth]: a snapshot that
   resumes outside the program or with a short stack must not decode. *)
let read ~code_len r =
  let open Sp_util in
  let regs = Binio.r_int_array r in
  if Array.length regs <> Sp_isa.Isa.num_regs then
    Binio.fail "Snapshot: %d integer registers, expected %d"
      (Array.length regs) Sp_isa.Isa.num_regs;
  let fregs = Binio.r_float_array r in
  if Array.length fregs <> Sp_isa.Isa.num_fregs then
    Binio.fail "Snapshot: %d FP registers, expected %d" (Array.length fregs)
      Sp_isa.Isa.num_fregs;
  let pc = Binio.r_i64 r in
  if pc < 0 || pc >= code_len then
    Binio.fail "Snapshot: pc %d outside the %d-instruction program" pc code_len;
  let callstack = Binio.r_int_array r in
  if Array.length callstack <> Interp.stack_depth then
    Binio.fail "Snapshot: %d-slot call stack, expected %d"
      (Array.length callstack) Interp.stack_depth;
  let sp = Binio.r_i64 r in
  if sp < 0 || sp > Array.length callstack then
    Binio.fail "Snapshot: sp %d outside the %d-slot call stack" sp
      (Array.length callstack);
  for i = 0 to sp - 1 do
    let ret = callstack.(i) in
    if ret < 0 || ret >= code_len then
      Binio.fail "Snapshot: return address %d outside the %d-instruction program"
        ret code_len
  done;
  let icount = Binio.r_i64 r in
  if icount < 0 then Binio.fail "Snapshot: negative icount %d" icount;
  let mem = Memory.read r in
  { regs; fregs; pc; callstack; sp; mem; icount }
