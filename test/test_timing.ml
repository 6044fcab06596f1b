(* Differential tests for the block-level timing model.

   [Interval_core.hooks] consumes block aggregates — the leader fetch
   on [on_block], dispatch cycles and data references on
   [on_block_mems] segments, branch outcomes — with per-segment
   batching and same-line repeat filters; [Ref_interval_core] walks
   each segment one event at a time.  Random memory-heavy programs (the
   fused cache suite's generators, one of them aliasing in L2 so that
   L3 serves misses) run under the library core in whole
   chunks, under the same core in fuel legs of one instruction
   (single-instruction segments), and under the per-event reference.
   Fuel splits land mid-block, warming flips and state resets happen at
   fuel boundaries, syscall handlers raise and recursion overflows the
   call stack; every [stats] field must match, floats to the bit.

   The rest pins the [Ldstmix] span counter against the reference
   interpreter's events, in whole chunks and in fuel legs of one. *)

open Sp_isa
open Sp_vm
open Sp_pin
open Sp_cpu
module B = Test_blockstep
module F = Test_fusedcache
module R = Ref_interval_core

exception Boom

(* [Legs]: the library core with every chunk run in fuel legs of one
   instruction, which delivers single-instruction segments;
   [Per_event]: the per-event reference core *)
type tier = Block | Legs | Per_event

type outcome = Fuel | Halted | Stack | Raised

type observed = {
  o_stats : int * int64 * int64 * int64 * int64 * int * int * int list;
  o_icount : int;
  o_outcome : outcome;
}

let stats_bits (s : Interval_core.stats) =
  ( s.instructions,
    Int64.bits_of_float s.cycles,
    Int64.bits_of_float s.base_cycles,
    Int64.bits_of_float s.branch_stall_cycles,
    Int64.bits_of_float s.memory_stall_cycles,
    s.branch_lookups,
    s.branch_mispredicts,
    Array.to_list s.level_hits )

let configs =
  [|
    Core_config.i7_3770_sim;
    (* 32-byte lines: the filters take their line shift from the config *)
    Core_config.with_caches Core_config.i7_3770_sim Sp_cache.Config.allcache_sim;
    Core_config.i7_3770;
    (* an inexact dispatch slot, so a re-associated base-cycle sum
       changes bits, and a 3-entry ROB, so an instruction index off by
       one changes how misses overlap *)
    { Core_config.i7_3770_sim with dispatch_width = 3; rob_entries = 3 };
  |]

(* the cache suite's programs, with some integer ops turned into the
   long-latency kinds whose exposed cycles the core adds *)
let timing_prog_gen =
  QCheck.Gen.map
    (Array.mapi (fun pc (i : Isa.instr) ->
         match i with
         | Isa.Alu (_, rd, r1, r2) -> (
             match pc mod 5 with
             | 0 -> Isa.Alu (Isa.Mul, rd, r1, r2)
             | 1 -> Isa.Alu (Isa.Div, rd, r1, r2)
             | 2 -> Isa.Falu (Isa.Fmul, rd, r1, r2)
             | 3 -> Isa.Falu (Isa.Fdiv, rd, r1, r2)
             | _ -> i)
         | i -> i))
    F.mem_prog_gen

(* Run [instrs] for [fuel] instructions in [chunk]-sized [Interp.run]
   calls.  Warming starts at [warm] and flips after every [flip_every]-th
   chunk, the core's state resets after every [reset_every]-th (0 =
   never, for both); the [fatal]-th syscall raises (0 = never). *)
let run_tier tier ~config ~warm ~flip_every ~reset_every ~chunk ~fatal ~fuel
    instrs =
  let p = Program.of_instrs instrs in
  let hooks, set_warming, reset_state, stats =
    match tier with
    | Block | Legs ->
        let core = Interval_core.create ~config p in
        ( Interval_core.hooks core,
          Interval_core.set_warming core,
          (fun () -> Interval_core.reset_state core),
          fun () -> Interval_core.stats core )
    | Per_event ->
        let core = R.create ~config p in
        ( R.hooks core,
          R.set_warming core,
          (fun () -> R.reset_state core),
          fun () -> R.stats core )
  in
  let leg = if tier = Legs then 1 else max_int in
  let m = Interp.create ~entry:0 () in
  let calls = ref 0 in
  let syscall n =
    incr calls;
    if !calls = fatal then raise Boom;
    F.test_syscall n
  in
  let warming = ref warm in
  set_warming warm;
  let outcome = ref Fuel and left = ref fuel and chunks = ref 0 in
  let rec run_chunk left =
    if left > 0 then
      match Interp.run ~hooks ~syscall ~fuel:(min leg left) p m with
      | Interp.Halted -> outcome := Halted
      | Interp.Out_of_fuel -> run_chunk (left - leg)
  in
  (try
     while !left > 0 && !outcome = Fuel do
       let f = min chunk !left in
       left := !left - f;
       run_chunk f;
       incr chunks;
       if flip_every > 0 && !chunks mod flip_every = 0 then begin
         warming := not !warming;
         set_warming !warming
       end;
       if reset_every > 0 && !chunks mod reset_every = 0 then reset_state ()
     done
   with
  | Interp.Stack_error _ -> outcome := Stack
  | Boom -> outcome := Raised);
  {
    o_stats = stats_bits (stats ());
    o_icount = m.Interp.icount;
    o_outcome = !outcome;
  }

let all_tiers_agree run =
  let b = run Block in
  b = run Legs && b = run Per_event

let scenario_gen =
  QCheck.Gen.(
    pair
      (frequency [ (3, timing_prog_gen); (1, F.l3_alias_prog_gen) ])
      (pair
         (triple (int_range 0 3) bool (int_range 0 3))
         (triple (int_range 1 17) (int_range 0 3) (int_range 0 5))))

let scenario_print
    (instrs, ((cfg, warm, flip_every), (chunk, fatal, reset_every))) =
  Printf.sprintf
    "len=%d config=%d warm=%b flip_every=%d chunk=%d fatal=%d reset_every=%d"
    (Array.length instrs) cfg warm flip_every chunk fatal reset_every

let prop_block_matches_per_event =
  QCheck.Test.make ~name:"block-level core bit-identical to per-event reference"
    ~count:300
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (instrs, ((cfg, warm, flip_every), (chunk, fatal, reset_every))) ->
      all_tiers_agree (fun tier ->
          run_tier tier ~config:configs.(cfg) ~warm ~flip_every ~reset_every
            ~chunk ~fatal ~fuel:F.test_fuel instrs))

(* Unbounded recursion through a memory-heavy body: every tier must
   raise the overflow with the core one instruction ahead of the
   machine (the faulting [Call] counted) and identical statistics.  The
   recursion is a call back to the body's start, or a forward call
   into a body that jumps back to it, which the engine chains, so the
   overflow fires inside a chain *)
let straight_gen =
  QCheck.Gen.(
    let reg = 0 -- 7 in
    frequency
      [
        (2, map2 (fun rd imm -> Isa.Li (rd, imm)) reg (int_range 0 20000));
        (3, map3 (fun rd rs off -> Isa.Load (rd, rs, off * 8)) reg reg (0 -- 64));
        (3, map3 (fun rv rb off -> Isa.Store (rv, rb, off * 8)) reg reg (0 -- 64));
        (1, map2 (fun rd rs -> Isa.Movs (rd, rs)) reg reg);
        (1, map3 (fun rd r1 r2 -> Isa.Alu (Isa.Mul, rd, r1, r2)) reg reg reg);
      ])

let prop_stack_overflow =
  QCheck.Test.make ~name:"block-level core matches at call-stack overflow"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad
           (list_size (int_range 1 8) straight_gen)
           (int_range 0 3) (int_range 1 997) bool))
    (fun (body, cfg, chunk, forward) ->
      let instrs =
        Array.of_list
          (if forward then (Isa.Call 2 :: Isa.Halt :: body) @ [ Isa.Jump 0 ]
           else body @ [ Isa.Call 0 ])
      in
      (* well past the interpreter's 4096-deep call stack *)
      let fuel = Array.length instrs * 5000 in
      let run tier =
        run_tier tier ~config:configs.(cfg) ~warm:false ~flip_every:0
          ~reset_every:0 ~chunk ~fatal:0 ~fuel instrs
      in
      (run Block).o_outcome = Stack && all_tiers_agree run)

(* Slice boundaries: [Slice_timer.cpis] reads the block-level core's
   cycles between slice-sized fuel legs.  The per-event reference core
   run in the same legs must book the same cycles to every slice, so a
   slice is charged exactly its own instructions, the closing
   instruction's data references and branch included. *)
let prop_slice_timer_legs =
  QCheck.Test.make ~name:"slice timer charges each slice its own instructions"
    ~count:200
    (QCheck.make
       QCheck.Gen.(triple timing_prog_gen (int_range 0 3) (int_range 1 17)))
    (fun (instrs, cfg, slice_len) ->
      let p = Program.of_instrs instrs in
      let fuel = F.test_fuel in
      let timed =
        try
          Some
            (Slice_timer.cpis ~fuel ~slice_len
               (Interval_core.create ~config:configs.(cfg) p)
               p)
        with Interp.Stack_error _ -> None
      in
      let reference =
        let core = R.create ~config:configs.(cfg) p in
        let hooks = R.hooks core in
        let m = Interp.create ~entry:0 () in
        let rec legs left last acc =
          let status = Interp.run ~hooks ~fuel:(min slice_len left) p m in
          let n = m.Interp.icount - (fuel - left) in
          let c = R.cycles core in
          let acc =
            if n = slice_len || (n > 0 && n >= slice_len / 2) then
              ((c -. last) /. float_of_int n) :: acc
            else acc
          in
          if status = Interp.Out_of_fuel && left > n then legs (left - n) c acc
          else Array.of_list (List.rev acc)
        in
        try Some (legs fuel 0.0 []) with Interp.Stack_error _ -> None
      in
      let bits = Option.map (Array.map Int64.bits_of_float) in
      bits timed = bits reference)

(* hand-checked: 40 straight [Li] + [Halt] in one block is one leader
   fetch and 41 dispatch slots of 1/4 cycle, no stalls *)
let test_straightline_cycles () =
  let instrs = Array.append (Array.make 40 (Isa.Li (0, 0))) [| Isa.Halt |] in
  List.iter
    (fun tier ->
      let o =
        run_tier tier ~config:Core_config.i7_3770_sim ~warm:false
          ~flip_every:0 ~reset_every:0 ~chunk:1000 ~fatal:0 ~fuel:1000 instrs
      in
      let n, cycles, _, _, mem, _, _, hits = o.o_stats in
      Alcotest.(check int) "instructions" 41 n;
      Alcotest.(check (float 0.0)) "cycles" 10.25 (Int64.float_of_bits cycles);
      Alcotest.(check (float 0.0)) "memory stall" 0.0 (Int64.float_of_bits mem);
      Alcotest.(check (list int)) "no data references" [ 0; 0; 0; 0 ] hits)
    [ Block; Legs; Per_event ]

(* [reset_state] empties the caches, so the repeat filters must forget
   the line they last served: the same load before and after a reset
   misses both times *)
let test_reset_clears_filters () =
  let instrs = [| Isa.Li (0, 4096); Isa.Load (1, 0, 0); Isa.Halt |] in
  let p = Program.of_instrs instrs in
  List.iter
    (fun (name, hooks, reset_state, stats) ->
      let run () = ignore (Interp.run ~hooks p (Interp.create ~entry:0 ())) in
      run ();
      reset_state ();
      run ();
      let s = stats () in
      Alcotest.(check (list int)) (name ^ ": served from memory") [ 0; 0; 0; 1 ]
        (Array.to_list s.Interval_core.level_hits))
    (let core = Interval_core.create ~config:Core_config.i7_3770_sim p in
     let ref_core = R.create ~config:Core_config.i7_3770_sim p in
     [
       ( "block-level",
         Interval_core.hooks core,
         (fun () -> Interval_core.reset_state core),
         fun () -> Interval_core.stats core );
       ( "per-event",
         R.hooks ref_core,
         (fun () -> R.reset_state ref_core),
         fun () -> R.stats ref_core );
     ])

(* ------------------------------------------------------------------ *)
(* Ldstmix: the span counter against the reference interpreter's
   per-retirement kinds, in random fuel legs and in legs of one *)

let prop_ldstmix_engines =
  QCheck.Test.make ~name:"ldstmix span counts agree on every engine"
    ~count:200
    (QCheck.make QCheck.Gen.(pair F.mem_prog_gen (int_range 1 17)))
    (fun (instrs, chunk) ->
      let p = Program.of_instrs instrs in
      let run hooks leg =
        ignore
          (B.run_legs ~leg ~hooks ~syscall:F.test_syscall ~fuel:F.test_fuel p
             (Interp.create ~entry:0 ()))
      in
      let reference = Array.make 4 0 in
      ignore
        (B.ref_run
           ~record:(function
             | B.E_instr (_, kind) ->
                 let c = Ldstmix.class_code_of_kind kind in
                 reference.(c) <- reference.(c) + 1
             | _ -> ())
           ~syscall:F.test_syscall ~fuel:F.test_fuel instrs (B.ref_create 0));
      List.for_all
        (fun leg ->
          let t = Ldstmix.create p in
          run (Ldstmix.hooks t) leg;
          List.for_all
            (fun cls ->
              Ldstmix.count t cls = reference.(Isa.mem_class_code cls))
            Isa.all_mem_classes)
        [ chunk; 1 ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_block_matches_per_event;
    QCheck_alcotest.to_alcotest prop_stack_overflow;
    QCheck_alcotest.to_alcotest prop_slice_timer_legs;
    Alcotest.test_case "straight-line cycles" `Quick test_straightline_cycles;
    Alcotest.test_case "reset clears the repeat filters" `Quick
      test_reset_clears_filters;
    QCheck_alcotest.to_alcotest prop_ldstmix_engines;
  ]
