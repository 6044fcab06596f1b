(* Tests for Sp_vm: memory, programs, assembler, interpreter, snapshots. *)

open Sp_isa
open Sp_vm

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_roundtrip () =
  let m = Memory.create () in
  Memory.store m 0x1000 42;
  Memory.store m 0x1008 (-17);
  Alcotest.(check int) "read back" 42 (Memory.load m 0x1000);
  Alcotest.(check int) "negative" (-17) (Memory.load m 0x1008);
  Alcotest.(check int) "untouched" 0 (Memory.load m 0x2000)

let test_memory_float_view () =
  let m = Memory.create () in
  Memory.store m 0x100 7;
  Memory.storef m 0x100 3.25;
  Alcotest.(check int) "int view intact" 7 (Memory.load m 0x100);
  Alcotest.(check (float 0.0)) "float view" 3.25 (Memory.loadf m 0x100);
  Alcotest.(check (float 0.0)) "untouched float" 0.0 (Memory.loadf m 0x8000)

let test_memory_copy_isolated () =
  let a = Memory.create () in
  Memory.store a 0 1;
  let b = Memory.copy a in
  Memory.store b 0 2;
  Alcotest.(check int) "original unchanged" 1 (Memory.load a 0);
  Alcotest.(check int) "copy updated" 2 (Memory.load b 0)

let test_memory_footprint () =
  let m = Memory.create () in
  Alcotest.(check int) "empty" 0 (Memory.footprint_bytes m);
  Memory.store m 0 1;
  Alcotest.(check int) "one page" Memory.page_bytes (Memory.footprint_bytes m);
  Memory.store m 8 1;
  Alcotest.(check int) "same page" Memory.page_bytes (Memory.footprint_bytes m);
  Memory.clear m;
  Alcotest.(check int) "cleared" 0 (Memory.footprint_bytes m)

let prop_memory_sparse =
  QCheck.Test.make ~name:"memory store/load across address space" ~count:200
    QCheck.(pair (int_range 0 ((1 lsl 30) - 1)) int)
    (fun (addr, v) ->
      let m = Memory.create () in
      let addr = addr land lnot 7 in
      Memory.store m addr v;
      Memory.load m addr = v)

(* ------------------------------------------------------------------ *)
(* Program / basic blocks *)

let test_program_blocks () =
  (* 0: li       <- leader (entry)
     1: branch 4 <- ends block
     2: li       <- leader (fallthrough)
     3: jump 0   <- ends block
     4: halt     <- leader (target) *)
  let instrs =
    [|
      Isa.Li (0, 1);
      Isa.Branch (Isa.Eq, 0, 1, 4);
      Isa.Li (1, 2);
      Isa.Jump 0;
      Isa.Halt;
    |]
  in
  let p = Program.of_instrs ~name:"blocks" instrs in
  Alcotest.(check int) "three blocks" 3 (Program.num_blocks p);
  Alcotest.(check (list int)) "leaders"
    [ 0; 2; 4 ]
    (List.filteri (fun i _ -> p.Program.is_leader.(i)) [ 0; 1; 2; 3; 4 ]
    |> List.mapi (fun _ x -> x));
  Alcotest.(check int) "block of pc1" p.Program.bb_of_pc.(0) p.Program.bb_of_pc.(1);
  Alcotest.(check bool) "pc2 new block" true
    (p.Program.bb_of_pc.(2) <> p.Program.bb_of_pc.(1))

let test_program_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Program.of_instrs: empty program") (fun () ->
      ignore (Program.of_instrs [||]));
  (try
     ignore (Program.of_instrs ~name:"bad" [| Isa.Jump 5; Isa.Halt |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_fetch_addr () =
  let p = Program.of_instrs ~code_base:0x1000 [| Isa.Halt |] in
  Alcotest.(check int) "fetch" (0x1000 + (0 * Isa.bytes_per_instr))
    (Program.fetch_addr p 0)

(* ------------------------------------------------------------------ *)
(* Asm *)

let test_asm_forward_backward () =
  let a = Asm.create () in
  let fwd = Asm.new_label a in
  Asm.li a 0 5;
  let back = Asm.here a in
  Asm.alui a Sub 0 0 1;
  Asm.branch a Gt 0 15 back;
  Asm.jump a fwd;
  Asm.li a 1 99;
  (* dead *)
  Asm.place a fwd;
  Asm.halt a;
  let p = Asm.assemble a in
  let m = Interp.create ~entry:0 () in
  let status = Interp.run p m in
  Alcotest.(check bool) "halted" true (status = Interp.Halted);
  Alcotest.(check int) "loop ran to 0" 0 m.Interp.regs.(0);
  Alcotest.(check int) "dead code skipped" 0 m.Interp.regs.(1)

let test_asm_unplaced_label () =
  let a = Asm.create ~name:"bad" () in
  let l = Asm.new_label a in
  Asm.jump a l;
  (try
     ignore (Asm.assemble a);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_asm_double_place () =
  let a = Asm.create () in
  let l = Asm.here a in
  try
    Asm.place a l;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_asm_rejects_control () =
  let a = Asm.create () in
  try
    Asm.instr a (Isa.Jump 0);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_asm_loop_down () =
  let a = Asm.create () in
  Asm.li a 1 0;
  Asm.loop_down a ~counter:2 ~from:7 (fun () -> Asm.alui a Add 1 1 1);
  Asm.halt a;
  let p = Asm.assemble a in
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run p m);
  Alcotest.(check int) "body ran 7 times" 7 m.Interp.regs.(1)

(* ------------------------------------------------------------------ *)
(* Interp *)

let run_instrs instrs =
  let p = Program.of_instrs (Array.of_list (instrs @ [ Isa.Halt ])) in
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run p m);
  m

let test_interp_arithmetic () =
  let m =
    run_instrs
      [
        Isa.Li (1, 20);
        Isa.Li (2, 6);
        Isa.Alu (Isa.Add, 3, 1, 2);
        Isa.Alu (Isa.Sub, 4, 1, 2);
        Isa.Alu (Isa.Mul, 5, 1, 2);
        Isa.Alu (Isa.Div, 6, 1, 2);
        Isa.Alu (Isa.Rem, 7, 1, 2);
        Isa.Alui (Isa.Shl, 8, 1, 2);
        Isa.Alui (Isa.Shr, 9, 1, 1);
      ]
  in
  Alcotest.(check int) "add" 26 m.Interp.regs.(3);
  Alcotest.(check int) "sub" 14 m.Interp.regs.(4);
  Alcotest.(check int) "mul" 120 m.Interp.regs.(5);
  Alcotest.(check int) "div" 3 m.Interp.regs.(6);
  Alcotest.(check int) "rem" 2 m.Interp.regs.(7);
  Alcotest.(check int) "shl" 80 m.Interp.regs.(8);
  Alcotest.(check int) "shr" 10 m.Interp.regs.(9)

let test_interp_div_by_zero () =
  let m =
    run_instrs
      [ Isa.Li (1, 5); Isa.Alu (Isa.Div, 2, 1, 0); Isa.Alu (Isa.Rem, 3, 1, 0) ]
  in
  Alcotest.(check int) "div0" 0 m.Interp.regs.(2);
  Alcotest.(check int) "rem0" 0 m.Interp.regs.(3)

let test_interp_branches () =
  List.iter
    (fun (c, a, b, expect) ->
      let m =
        run_instrs
          [
            Isa.Li (1, a);
            Isa.Li (2, b);
            Isa.Branch (c, 1, 2, 4);
            Isa.Li (3, 1);
            (* not taken path; pc 4 is the halt *)
          ]
      in
      let taken = m.Interp.regs.(3) = 0 in
      Alcotest.(check bool)
        (Printf.sprintf "cond %d %d" a b)
        expect taken)
    [
      (Isa.Eq, 3, 3, true);
      (Isa.Eq, 3, 4, false);
      (Isa.Ne, 3, 4, true);
      (Isa.Lt, 3, 4, true);
      (Isa.Lt, 4, 3, false);
      (Isa.Le, 4, 4, true);
      (Isa.Gt, 5, 4, true);
      (Isa.Ge, 4, 5, false);
    ]

let test_interp_call_ret () =
  (* 0: call 3 / 1: li r1 7 / 2: halt / 3: li r2 9 / 4: ret *)
  let p =
    Program.of_instrs
      [| Isa.Call 3; Isa.Li (1, 7); Isa.Halt; Isa.Li (2, 9); Isa.Ret |]
  in
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run p m);
  Alcotest.(check int) "callee ran" 9 m.Interp.regs.(2);
  Alcotest.(check int) "returned" 7 m.Interp.regs.(1);
  Alcotest.(check int) "stack balanced" 0 m.Interp.sp

let test_interp_ret_underflow () =
  let p = Program.of_instrs [| Isa.Ret |] in
  let m = Interp.create ~entry:0 () in
  (try
     ignore (Interp.run p m);
     Alcotest.fail "expected Stack_error"
   with Interp.Stack_error _ -> ())

let test_interp_fuel_resume () =
  let a = Asm.create () in
  Asm.li a 1 0;
  let top = Asm.here a in
  Asm.alui a Add 1 1 1;
  Asm.jump a top;
  let p = Asm.assemble a in
  let m = Interp.create ~entry:0 () in
  let s1 = Interp.run ~fuel:100 p m in
  Alcotest.(check bool) "out of fuel" true (s1 = Interp.Out_of_fuel);
  Alcotest.(check int) "exact count" 100 m.Interp.icount;
  ignore (Interp.run ~fuel:50 p m);
  Alcotest.(check int) "resumed exactly" 150 m.Interp.icount

let test_interp_memory_ops () =
  let m =
    run_instrs
      [
        Isa.Li (1, 0x1000);
        Isa.Li (2, 77);
        Isa.Store (2, 1, 8);
        Isa.Load (3, 1, 8);
        (* movs: copy [0x1008] -> [0x2000] *)
        Isa.Li (4, 0x2000);
        Isa.Alui (Isa.Add, 5, 1, 8);
        Isa.Movs (4, 5);
        Isa.Load (6, 4, 0);
      ]
  in
  Alcotest.(check int) "load" 77 m.Interp.regs.(3);
  Alcotest.(check int) "movs" 77 m.Interp.regs.(6)

let test_interp_float_ops () =
  let m =
    run_instrs
      [
        Isa.Fmovi (1, 2.5);
        Isa.Fmovi (2, 4.0);
        Isa.Falu (Isa.Fmul, 3, 1, 2);
        Isa.Li (1, 0x100);
        Isa.Fstore (3, 1, 0);
        Isa.Fload (4, 1, 0);
        Isa.Cvtfi (5, 4);
      ]
  in
  Alcotest.(check (float 0.0)) "fmul" 10.0 m.Interp.fregs.(3);
  Alcotest.(check (float 0.0)) "fload" 10.0 m.Interp.fregs.(4);
  Alcotest.(check int) "cvtfi" 10 m.Interp.regs.(5)

let test_interp_syscall () =
  let p = Program.of_instrs [| Isa.Sys (3, 1); Isa.Halt |] in
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run ~syscall:(fun n -> n * 11) p m);
  Alcotest.(check int) "injected" 33 m.Interp.regs.(1)

let test_hooks_fire () =
  let instr_count = ref 0 in
  let reads = ref [] in
  let writes = ref [] in
  let branches = ref [] in
  let blocks = ref 0 in
  let block_insns = ref 0 in
  let hooks =
    {
      Hooks.on_block = (fun _ -> incr blocks);
      on_block_span = (fun _ n -> block_insns := !block_insns + n);
      on_block_mems =
        (fun _ n _ addrs nrefs ->
          instr_count := !instr_count + n;
          for r = 0 to nrefs - 1 do
            let v = addrs.(r) in
            if v land 1 = 0 then reads := (v asr 1) :: !reads
            else writes := (v asr 1) :: !writes
          done);
      on_branch = (fun _ taken -> branches := taken :: !branches);
    }
  in
  let p =
    Program.of_instrs
      [|
        Isa.Li (1, 0x10);
        Isa.Store (1, 1, 0);
        Isa.Load (2, 1, 0);
        Isa.Branch (Isa.Eq, 1, 2, 5);
        Isa.Li (3, 1);
        Isa.Halt;
      |]
  in
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run ~hooks p m);
  Alcotest.(check int) "segment multiplicity" m.Interp.icount !instr_count;
  Alcotest.(check int) "block_span multiplicity" m.Interp.icount !block_insns;
  Alcotest.(check (list int)) "read addrs" [ 0x10 ] !reads;
  Alcotest.(check (list int)) "write addrs" [ 0x10 ] !writes;
  Alcotest.(check (list bool)) "branch taken" [ true ] !branches;
  Alcotest.(check bool) "blocks seen" true (!blocks >= 2)

let test_hooks_seq_order () =
  let log = ref [] in
  let mk tag =
    { Hooks.nil with on_block_span = (fun _ _ -> log := tag :: !log) }
  in
  let h = Hooks.seq_all [ mk "a"; mk "b"; mk "c" ] in
  h.Hooks.on_block_span 0 1;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_hooks_seq_all_flat_order () =
  (* a longer chain exercises the array-dispatch path of seq_all; every
     field must still fire in list order *)
  let log = ref [] in
  let mk tag =
    {
      Hooks.on_block = (fun _ -> log := ("b" ^ tag) :: !log);
      on_block_span = (fun _ _ -> log := ("x" ^ tag) :: !log);
      on_block_mems = (fun _ _ _ _ _ -> log := ("m" ^ tag) :: !log);
      on_branch = (fun _ _ -> log := ("j" ^ tag) :: !log);
    }
  in
  let h = Hooks.seq_all [ mk "1"; mk "2"; mk "3"; mk "4"; mk "5" ] in
  h.Hooks.on_block_span 0 1;
  h.Hooks.on_block_mems 0 1 [||] [||] 0;
  h.Hooks.on_branch 0 true;
  Alcotest.(check (list string)) "flattened order"
    [ "x1"; "x2"; "x3"; "x4"; "x5"; "m1"; "m2"; "m3"; "m4"; "m5";
      "j1"; "j2"; "j3"; "j4"; "j5" ]
    (List.rev !log)

let test_hooks_nil_detection () =
  Alcotest.(check bool) "nil is nil" true (Hooks.is_nil Hooks.nil);
  Alcotest.(check bool) "seq_all of two nils is nil" true
    (Hooks.is_nil (Hooks.seq_all [ Hooks.nil; Hooks.nil ]));
  Alcotest.(check bool) "seq_all of nils is nil" true
    (Hooks.is_nil (Hooks.seq_all [ Hooks.nil; Hooks.nil; Hooks.nil ]));
  Alcotest.(check bool) "seq_all [] is nil" true (Hooks.is_nil (Hooks.seq_all []));
  let live = { Hooks.nil with Hooks.on_block_mems = (fun _ _ _ _ _ -> ()) } in
  Alcotest.(check bool) "live hook is not nil" false (Hooks.is_nil live);
  Alcotest.(check bool) "seq_all keeps live hook" false
    (Hooks.is_nil (Hooks.seq_all [ Hooks.nil; live ]))

let test_interp_fast_path_equivalent () =
  (* the uninstrumented fast path must leave the machine in exactly the
     state the hooked loop does *)
  let p =
    Program.of_instrs
      [|
        Isa.Li (1, 0);
        Isa.Li (2, 100);
        Isa.Li (3, 0x40);
        Isa.Store (1, 3, 0);
        Isa.Load (4, 3, 0);
        Isa.Alui (Isa.Add, 1, 1, 1);
        Isa.Branch (Isa.Lt, 1, 2, 3);
        Isa.Halt;
      |]
  in
  let run hooks =
    let m = Interp.create ~entry:0 () in
    let status = Interp.run ~hooks ~fuel:350 p m in
    (status, m.Interp.pc, m.Interp.icount, Array.copy m.Interp.regs)
  in
  (* a segment consumer puts the hooked run on the block stepper *)
  let counting = { Hooks.nil with on_block_mems = (fun _ _ _ _ _ -> ()) } in
  let s1, pc1, ic1, regs1 = run Hooks.nil in
  let s2, pc2, ic2, regs2 = run counting in
  Alcotest.(check bool) "status" true (s1 = s2);
  Alcotest.(check int) "pc" pc2 pc1;
  Alcotest.(check int) "icount" ic2 ic1;
  Alcotest.(check bool) "registers" true (regs1 = regs2)

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let counting_program () =
  let a = Asm.create () in
  Asm.li a 1 0;
  Asm.li a 2 1000;
  let top = Asm.here a in
  Asm.alui a Add 1 1 1;
  Asm.li a 3 0x100;
  Asm.store a 1 3 0;
  Asm.alui a Sub 2 2 1;
  Asm.branch a Gt 2 15 top;
  Asm.halt a;
  Asm.assemble a

let test_snapshot_determinism () =
  let p = counting_program () in
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run ~fuel:500 p m);
  let snap = Snapshot.capture m in
  let finish machine =
    ignore (Interp.run p machine);
    (machine.Interp.icount, machine.Interp.regs.(1), Memory.load machine.Interp.mem 0x100)
  in
  let r1 = finish (Snapshot.restore snap) in
  let r2 = finish (Snapshot.restore snap) in
  let r0 = finish m in
  Alcotest.(check bool) "restore twice equal" true (r1 = r2);
  Alcotest.(check bool) "restore equals original" true (r1 = r0)

let test_snapshot_isolation () =
  let p = counting_program () in
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run ~fuel:500 p m);
  let snap = Snapshot.capture m in
  let mem_before = Memory.load m.Interp.mem 0x100 in
  (* mutating the original must not affect the snapshot *)
  ignore (Interp.run p m);
  let restored = Snapshot.restore snap in
  Alcotest.(check int) "snapshot froze memory" mem_before
    (Memory.load restored.Interp.mem 0x100);
  Alcotest.(check int) "icount recorded" 500 (Snapshot.icount snap)

let suite =
  [
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "memory float view" `Quick test_memory_float_view;
    Alcotest.test_case "memory copy isolation" `Quick test_memory_copy_isolated;
    Alcotest.test_case "memory footprint" `Quick test_memory_footprint;
    QCheck_alcotest.to_alcotest prop_memory_sparse;
    Alcotest.test_case "program blocks" `Quick test_program_blocks;
    Alcotest.test_case "program validation" `Quick test_program_validation;
    Alcotest.test_case "fetch addr" `Quick test_fetch_addr;
    Alcotest.test_case "asm labels" `Quick test_asm_forward_backward;
    Alcotest.test_case "asm unplaced label" `Quick test_asm_unplaced_label;
    Alcotest.test_case "asm double place" `Quick test_asm_double_place;
    Alcotest.test_case "asm rejects control" `Quick test_asm_rejects_control;
    Alcotest.test_case "asm loop_down" `Quick test_asm_loop_down;
    Alcotest.test_case "interp arithmetic" `Quick test_interp_arithmetic;
    Alcotest.test_case "interp div by zero" `Quick test_interp_div_by_zero;
    Alcotest.test_case "interp branches" `Quick test_interp_branches;
    Alcotest.test_case "interp call/ret" `Quick test_interp_call_ret;
    Alcotest.test_case "interp ret underflow" `Quick test_interp_ret_underflow;
    Alcotest.test_case "interp fuel/resume" `Quick test_interp_fuel_resume;
    Alcotest.test_case "interp memory ops" `Quick test_interp_memory_ops;
    Alcotest.test_case "interp float ops" `Quick test_interp_float_ops;
    Alcotest.test_case "interp syscall" `Quick test_interp_syscall;
    Alcotest.test_case "hooks fire" `Quick test_hooks_fire;
    Alcotest.test_case "hooks seq order" `Quick test_hooks_seq_order;
    Alcotest.test_case "hooks seq_all flat order" `Quick
      test_hooks_seq_all_flat_order;
    Alcotest.test_case "hooks nil detection" `Quick test_hooks_nil_detection;
    Alcotest.test_case "interp fast path equivalent" `Quick
      test_interp_fast_path_equivalent;
    Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
  ]
