(* Differential tests for the block-level timing model.

   [Interval_core.hooks] consumes block aggregates — the leader fetch
   on [on_block], dispatch cycles and data references on
   [on_block_mems] segments, branch outcomes — where
   [Interval_core.hooks_per_instr] takes one callback per retired
   instruction and data reference.  Random memory-heavy programs (the
   fused cache suite's generator) run under the block-level set on the
   fused engine and, pinned to the reference family, on the mixed
   engine; seq'd with a per-instruction tool on the mixed engine; and
   as the per-instruction set on the hooked engine.  Fuel splits land
   mid-block, warming flips and state resets happen at fuel boundaries,
   syscall handlers raise and recursion overflows the call stack; every
   [stats] field must match, floats to the bit.

   The rest pins the engine tier the pipeline's tool sets select and
   the [Ldstmix] span counter against a per-instruction reference on
   every engine. *)

open Sp_isa
open Sp_vm
open Sp_pin
open Sp_cpu
module F = Test_fusedcache

exception Boom

(* [Block_ref]: the block-level set under [~engine:Reference], which
   delivers single-instruction segments; [Mixed]: the block-level set
   seq'd with a live per-instruction tool, same engine by necessity *)
type tier = Block | Block_ref | Mixed | Per_instr

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
  let core = Interval_core.create ~config p in
  let hooks =
    match tier with
    | Block | Block_ref -> Interval_core.hooks core
    | Mixed ->
        Hooks.seq (Interval_core.hooks core)
          { Hooks.nil with Hooks.on_instr = (fun _ _ -> ()) }
    | Per_instr -> Interval_core.hooks_per_instr core
  in
  let engine =
    match tier with Block_ref -> Interp.Reference | _ -> Interp.Auto
  in
  let m = Interp.create ~entry:0 () in
  let calls = ref 0 in
  let syscall n =
    incr calls;
    if !calls = fatal then raise Boom;
    F.test_syscall n
  in
  let warming = ref warm in
  Interval_core.set_warming core warm;
  let outcome = ref Fuel and left = ref fuel and chunks = ref 0 in
  (try
     while !left > 0 && !outcome = Fuel do
       let f = min chunk !left in
       left := !left - f;
       (match Interp.run ~engine ~hooks ~syscall ~fuel:f p m with
       | Interp.Halted -> outcome := Halted
       | Interp.Out_of_fuel -> ());
       incr chunks;
       if flip_every > 0 && !chunks mod flip_every = 0 then begin
         warming := not !warming;
         Interval_core.set_warming core !warming
       end;
       if reset_every > 0 && !chunks mod reset_every = 0 then
         Interval_core.reset_state core
     done
   with
  | Interp.Stack_error _ -> outcome := Stack
  | Boom -> outcome := Raised);
  {
    o_stats = stats_bits (Interval_core.stats core);
    o_icount = m.Interp.icount;
    o_outcome = !outcome;
  }

let all_tiers_agree run =
  let b = run Block in
  b = run Block_ref && b = run Mixed && b = run Per_instr

let scenario_gen =
  QCheck.Gen.(
    pair timing_prog_gen
      (pair
         (triple (int_range 0 3) bool (int_range 0 3))
         (triple (int_range 1 17) (int_range 0 3) (int_range 0 5))))

let scenario_print
    (instrs, ((cfg, warm, flip_every), (chunk, fatal, reset_every))) =
  Printf.sprintf
    "len=%d config=%d warm=%b flip_every=%d chunk=%d fatal=%d reset_every=%d"
    (Array.length instrs) cfg warm flip_every chunk fatal reset_every

let prop_block_matches_per_instr =
  QCheck.Test.make ~name:"block-level core bit-identical to per-instruction"
    ~count:300
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (instrs, ((cfg, warm, flip_every), (chunk, fatal, reset_every))) ->
      all_tiers_agree (fun tier ->
          run_tier tier ~config:configs.(cfg) ~warm ~flip_every ~reset_every
            ~chunk ~fatal ~fuel:F.test_fuel instrs))

(* Unbounded recursion through a memory-heavy body: every tier must
   raise the overflow with the core one instruction ahead of the
   machine (the faulting [Call] counted) and identical statistics *)
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
         triple
           (list_size (int_range 1 8) straight_gen)
           (int_range 0 3) (int_range 1 997)))
    (fun (body, cfg, chunk) ->
      let instrs = Array.of_list (body @ [ Isa.Call 0 ]) in
      (* well past the interpreter's 4096-deep call stack *)
      let fuel = Array.length instrs * 5000 in
      let run tier =
        run_tier tier ~config:configs.(cfg) ~warm:false ~flip_every:0
          ~reset_every:0 ~chunk ~fatal:0 ~fuel instrs
      in
      (run Block).o_outcome = Stack && all_tiers_agree run)

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
    [ Block; Block_ref; Mixed; Per_instr ]

(* [reset_state] empties the caches, so the repeat filters must forget
   the line they last served: the same load before and after a reset
   misses both times *)
let test_reset_clears_filters () =
  let instrs = [| Isa.Li (0, 4096); Isa.Load (1, 0, 0); Isa.Halt |] in
  let p = Program.of_instrs instrs in
  List.iter
    (fun (name, hooks) ->
      let core = Interval_core.create ~config:Core_config.i7_3770_sim p in
      let run () =
        ignore (Interp.run ~hooks:(hooks core) p (Interp.create ~entry:0 ()))
      in
      run ();
      Interval_core.reset_state core;
      run ();
      let s = Interval_core.stats core in
      Alcotest.(check (list int)) (name ^ ": served from memory") [ 0; 0; 0; 1 ]
        (Array.to_list s.Interval_core.level_hits))
    [
      ("block-level", Interval_core.hooks);
      ("per-instruction", Interval_core.hooks_per_instr);
    ]

(* ------------------------------------------------------------------ *)
(* Engine selection: the pipeline's tool sets are block-level with a
   fused consumer, so none of its replays reaches the per-instruction
   engines *)

let counter name =
  Option.value ~default:0.0
    (Sp_obs.Metrics.counter_value (Sp_obs.Metrics.snapshot ()) name)

let runs_delta f =
  let names = [ "vm.runs.fused"; "vm.runs.hooked"; "vm.runs.mixed" ] in
  let before = List.map counter names in
  f ();
  List.map2 (fun n b -> (n, int_of_float (counter n -. b))) names before

let test_pipeline_tool_sets_block_level () =
  let spec = Sp_workloads.Suite.find "557.xz_r" in
  let built = Sp_workloads.Benchspec.build ~slices_scale:0.05 spec in
  let prog = built.Sp_workloads.Benchspec.program in
  let profile () = Profile_tool.hooks (Profile_tool.create ~slice_len:100 prog) in
  let ldst () = Ldstmix.hooks (Ldstmix.create prog) in
  let cache () = Allcache_tool.hooks (Allcache_tool.create prog) in
  let core () = Interval_core.hooks (Interval_core.create prog) in
  List.iter
    (fun (name, tools) ->
      let h = Hooks.seq_all tools in
      Alcotest.(check bool) (name ^ " is block-level") true (Hooks.block_level h);
      Alcotest.(check bool) (name ^ " has a fused consumer") true
        (Hooks.has_block_mems h))
    [
      ("log+profile", [ profile (); cache (); core () ]);
      ("cold replay", [ ldst (); cache (); core () ]);
      ("warm prefix", [ cache (); core () ]);
      ("warm region", [ ldst (); cache (); core () ]);
      ("native", [ core () ]);
    ];
  (* and end to end: a whole pipeline run touches no per-instruction
     engine *)
  let options =
    {
      Specrepro.Pipeline.default_options with
      slices_scale = 0.05;
      collect_variance = false;
      progress = false;
    }
  in
  let delta =
    runs_delta (fun () ->
        ignore (Specrepro.Pipeline.run_benchmark ~options spec);
        ignore (Sp_perf.Native.run built.Sp_workloads.Benchspec.program))
  in
  Alcotest.(check bool) "fused runs" true (List.assoc "vm.runs.fused" delta > 0);
  Alcotest.(check int) "hooked runs" 0 (List.assoc "vm.runs.hooked" delta);
  Alcotest.(check int) "mixed runs" 0 (List.assoc "vm.runs.mixed" delta)

(* ------------------------------------------------------------------ *)
(* Ldstmix: the span counter against a port of the per-instruction
   callback it replaced, on every engine family *)

let prop_ldstmix_engines =
  QCheck.Test.make ~name:"ldstmix span counts agree on every engine"
    ~count:200
    (QCheck.make QCheck.Gen.(pair F.mem_prog_gen (int_range 1 17)))
    (fun (instrs, chunk) ->
      let p = Program.of_instrs instrs in
      let run hooks engine =
        let m = Interp.create ~entry:0 () in
        let left = ref F.test_fuel and halted = ref false in
        try
          while !left > 0 && not !halted do
            let f = min chunk !left in
            left := !left - f;
            match
              Interp.run ~engine ~hooks ~syscall:F.test_syscall ~fuel:f p m
            with
            | Interp.Halted -> halted := true
            | Interp.Out_of_fuel -> ()
          done
        with Interp.Stack_error _ -> ()
      in
      let reference = Array.make 4 0 in
      run
        {
          Hooks.nil with
          Hooks.on_instr =
            (fun _pc kind ->
              let c = Ldstmix.class_code_of_kind kind in
              reference.(c) <- reference.(c) + 1);
        }
        Interp.Auto;
      List.for_all
        (fun engine ->
          let t = Ldstmix.create p in
          run (Ldstmix.hooks t) engine;
          List.for_all
            (fun cls ->
              Ldstmix.count t cls = reference.(Isa.mem_class_code cls))
            Isa.all_mem_classes)
        [ Interp.Reference; Interp.Block_step; Interp.Compiled ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_block_matches_per_instr;
    QCheck_alcotest.to_alcotest prop_stack_overflow;
    Alcotest.test_case "straight-line cycles" `Quick test_straightline_cycles;
    Alcotest.test_case "reset clears the repeat filters" `Quick
      test_reset_clears_filters;
    Alcotest.test_case "pipeline tool sets are block-level" `Quick
      test_pipeline_tool_sets_block_level;
    QCheck_alcotest.to_alcotest prop_ldstmix_engines;
  ]
