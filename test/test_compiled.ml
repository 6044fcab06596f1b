(* Differential tests for the compiled-block execution engine.

   The compiled tier pre-compiles every basic block into a straight-line
   closure and chains superblocks across unconditional terminators; its
   contract is bit-identical observable behaviour to the independent
   reference and to block-stepping — same machine state, same icount,
   same hook traces and syscall observation points — for any fuel split,
   including handlers that raise out of the run.  This suite reuses the
   independent reference interpreter and program generator from
   {!Test_blockstep} and adds the compiled engine (and the combined
   single-pass profiler built on [on_block_span]) to the differential. *)

open Sp_isa
open Sp_vm
open Sp_pin
module B = Test_blockstep

(* one run on a chosen engine with the full block-level hook set *)
type obs = {
  o_out : B.ref_outcome;
  o_blocks : int list;
  o_spans : (int * int) list;
  o_branches : (int * bool) list;
  o_sys : (int * int) list;
  o_m : Interp.machine;
}

(* [leg] splits the run into [Interp.run] calls of that many
   instructions *)
let observe ~engine ?(extra = Hooks.nil) ?(leg = max_int) ~fuel p =
  let blocks = ref [] in
  let spans = ref [] in
  let branches = ref [] in
  let sys = ref [] in
  let m = Interp.create ~entry:0 () in
  let hooks =
    Hooks.seq_all
      [
        {
          Hooks.nil with
          Hooks.on_block = (fun bb -> blocks := bb :: !blocks);
          on_block_span = (fun pc0 n -> spans := (pc0, n) :: !spans);
          on_branch = (fun pc t -> branches := (pc, t) :: !branches);
        };
        extra;
      ]
  in
  let syscall n =
    sys := (n, m.Interp.icount) :: !sys;
    B.test_syscall n
  in
  let o_out = B.run_legs ~engine ~leg ~hooks ~syscall ~fuel p m in
  {
    o_out;
    o_blocks = List.rev !blocks;
    o_spans = List.rev !spans;
    o_branches = List.rev !branches;
    o_sys = List.rev !sys;
    o_m = m;
  }

let machines_match (a : Interp.machine) (b : Interp.machine) =
  Array.for_all2 ( = ) a.Interp.regs b.Interp.regs
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.Interp.fregs b.Interp.fregs
  && a.Interp.pc = b.Interp.pc
  && a.Interp.sp = b.Interp.sp
  && a.Interp.icount = b.Interp.icount

let snapshot_bytes m =
  let buf = Buffer.create 256 in
  Snapshot.write buf (Snapshot.capture m);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Compiled engine vs the reference interpreter and the other tiers *)

(* a live segment consumer: the block stepper under either engine *)
let mems_consumer = { Hooks.nil with Hooks.on_block_mems = (fun _ _ _ _ _ -> ()) }

let prop_compiled_agrees =
  QCheck.Test.make ~name:"compiled engine agrees with reference" ~count:400
    (QCheck.make B.prog_gen) (fun instrs ->
      let p = Program.of_instrs instrs in
      (* independent reference *)
      let st = B.ref_create 0 in
      let ref_events = ref [] in
      let ref_sys = ref [] in
      let ref_out =
        B.ref_run
          ~record:(fun e -> ref_events := e :: !ref_events)
          ~syscall:(fun n ->
            ref_sys := (n, st.B.r_icount) :: !ref_sys;
            B.test_syscall n)
          ~fuel:B.test_fuel instrs st
      in
      let ref_events = List.rev !ref_events in
      let ref_sys = List.rev !ref_sys in
      let ref_pcs = B.pc_stream_of_events ref_events in
      let ref_blocks =
        List.filter_map
          (function B.E_block bb -> Some bb | _ -> None)
          ref_events
      in
      let ref_branches =
        List.filter_map
          (function B.E_branch (pc, t) -> Some (pc, t) | _ -> None)
          ref_events
      in
      let agrees (o : obs) =
        o.o_out = ref_out && o.o_blocks = ref_blocks
        (* spans carry positions: expanding them must reproduce the
           exact per-retirement pc stream *)
        && B.pcs_of_spans o.o_spans = ref_pcs
        && o.o_branches = ref_branches
        && o.o_sys = ref_sys
        && B.state_matches st o.o_m ref_events
      in
      let oc = observe ~engine:Interp.Auto ~fuel:B.test_fuel p in
      let ob = observe ~engine:Interp.Interpreted ~fuel:B.test_fuel p in
      (* same hook set with a segment consumer, which puts [Auto] on
         the block stepper, in fuel legs of one instruction *)
      let oi =
        observe ~engine:Interp.Auto ~extra:mems_consumer ~leg:1
          ~fuel:B.test_fuel p
      in
      (* hooks-free compiled run: outcome and final state only *)
      let m0 = Interp.create ~entry:0 () in
      let out0 =
        try
          match
            Interp.run ~engine:Interp.Auto ~syscall:B.test_syscall
              ~fuel:B.test_fuel p m0
          with
          | Interp.Halted -> B.R_halted
          | Interp.Out_of_fuel -> B.R_fuel
        with Interp.Stack_error msg -> B.R_stack msg
      in
      agrees oc && agrees ob && agrees oi
      (* block tiers deliver at most one span per block entry, and one
         per retirement in legs of one — never more spans than
         retirements, and at least one per block entry *)
      && List.length oc.o_spans <= List.length ref_pcs
      && List.length oc.o_spans >= List.length ref_blocks
      && List.length oi.o_spans = List.length ref_pcs
      && out0 = ref_out
      && machines_match m0 oc.o_m)

(* ------------------------------------------------------------------ *)
(* Fuel splits: resuming the compiled engine in arbitrary chunks is
   bit-identical to one uninterrupted run and to block-stepping; chunk
   sizes range past typical superblock lengths so chains execute *)

let prop_compiled_fuel_split =
  QCheck.Test.make ~name:"compiled engine is fuel-split invariant" ~count:300
    (QCheck.make QCheck.Gen.(pair B.prog_gen (int_range 1 80)))
    (fun (instrs, chunk) ->
      let p = Program.of_instrs instrs in
      let chunked engine =
        let blocks = ref [] in
        let spans = ref [] in
        let sys = ref [] in
        let m = Interp.create ~entry:0 () in
        let hooks =
          {
            Hooks.nil with
            Hooks.on_block = (fun bb -> blocks := bb :: !blocks);
            on_block_span = (fun pc0 n -> spans := (pc0, n) :: !spans);
          }
        in
        let syscall n =
          sys := (n, m.Interp.icount) :: !sys;
          B.test_syscall n
        in
        let outcome = ref B.R_fuel in
        let left = ref B.test_fuel in
        (try
           while !left > 0 && !outcome = B.R_fuel do
             let f = min chunk !left in
             left := !left - f;
             match Interp.run ~engine ~hooks ~syscall ~fuel:f p m with
             | Interp.Halted -> outcome := B.R_halted
             | Interp.Out_of_fuel -> ()
           done
         with Interp.Stack_error msg -> outcome := B.R_stack msg);
        ( !outcome,
          List.rev !blocks,
          B.pcs_of_spans (List.rev !spans),
          List.rev !sys,
          m )
      in
      let oc = observe ~engine:Interp.Auto ~fuel:B.test_fuel p in
      let check (out, blocks, pcs, sys, m) =
        out = oc.o_out && blocks = oc.o_blocks
        && pcs = B.pcs_of_spans oc.o_spans
        && sys = oc.o_sys
        && machines_match m oc.o_m
        && snapshot_bytes m = snapshot_bytes oc.o_m
      in
      check (chunked Interp.Auto) && check (chunked Interp.Interpreted))

(* ------------------------------------------------------------------ *)
(* Syscall handlers that raise: the exception must escape every tier at
   the same observation point, with the machine showing the exact pc and
   retirement index of the faulting [Sys] (chained bulk icount rolled
   back), so pinball logging is tier-independent *)

exception Boom

let prop_syscall_raise =
  QCheck.Test.make ~name:"raising syscall handlers are tier-independent"
    ~count:300
    (QCheck.make QCheck.Gen.(pair B.prog_gen (int_range 1 4)))
    (fun (instrs, fatal) ->
      let p = Program.of_instrs instrs in
      let run ?(hooks = Hooks.nil) engine =
        let sys = ref [] in
        let calls = ref 0 in
        let m = Interp.create ~entry:0 () in
        let syscall n =
          incr calls;
          sys := (n, m.Interp.icount, m.Interp.pc) :: !sys;
          if !calls = fatal then raise Boom;
          B.test_syscall n
        in
        let out =
          try
            match
              Interp.run ~engine ~hooks ~syscall ~fuel:B.test_fuel p m
            with
            | Interp.Halted -> `Halted
            | Interp.Out_of_fuel -> `Fuel
          with
          | Boom -> `Boom
          | Interp.Stack_error _ -> `Stack
        in
        (out, List.rev !sys, m)
      in
      let out_c, sys_c, m_c = run Interp.Auto in
      let out_b, sys_b, m_b = run ~hooks:mems_consumer Interp.Interpreted in
      let out_r, sys_r, m_r = run Interp.Interpreted in
      out_c = out_b && out_c = out_r && sys_c = sys_b && sys_c = sys_r
      && machines_match m_c m_b
      && machines_match m_c m_r)

(* ------------------------------------------------------------------ *)
(* The combined single-pass profiler: one compiled replay must produce
   the BBV slices, ldst mix and per-kind counts of three dedicated-tool
   replays, bit for bit *)

let prop_profile_combined =
  QCheck.Test.make ~name:"combined profiler equals three dedicated replays"
    ~count:300
    (QCheck.make QCheck.Gen.(pair B.prog_gen (int_range 3 9)))
    (fun (instrs, slice_len) ->
      let p = Program.of_instrs instrs in
      let replay ~engine hooks =
        let m = Interp.create ~entry:0 () in
        try
          ignore
            (Interp.run ~engine ~hooks ~syscall:B.test_syscall
               ~fuel:B.test_fuel p m)
        with Interp.Stack_error _ -> ()
      in
      (* one combined replay on the compiled tier *)
      let prof = Profile_tool.create ~slice_len p in
      replay ~engine:Interp.Auto (Profile_tool.hooks prof);
      Profile_tool.finish prof;
      (* three dedicated replays, each on its natural tier *)
      let bbv = Bbv_tool.create ~slice_len p in
      replay ~engine:Interp.Interpreted (Bbv_tool.hooks bbv);
      Bbv_tool.finish bbv;
      let mixt = Ldstmix.create p in
      replay ~engine:Interp.Interpreted (Ldstmix.hooks mixt);
      let ins = Inscount.create p in
      replay ~engine:Interp.Interpreted (Inscount.hooks ins);
      let mix_bits (x : Mix.t) =
        ( Int64.bits_of_float x.Mix.no_mem,
          Int64.bits_of_float x.Mix.mem_r,
          Int64.bits_of_float x.Mix.mem_w,
          Int64.bits_of_float x.Mix.mem_rw )
      in
      let kinds = List.init Isa.num_kinds Isa.kind_of_code in
      (* no segment consumer: the combined replay stays compiled *)
      (not (Hooks.has_block_mems (Profile_tool.hooks prof)))
      && Array.length (Profile_tool.slices prof)
         = Array.length (Bbv_tool.slices bbv)
      && Array.for_all2 B.slice_eq (Profile_tool.slices prof)
           (Bbv_tool.slices bbv)
      && Profile_tool.total prof = Inscount.total ins
      && List.for_all
           (fun k -> Profile_tool.by_kind prof k = Inscount.by_kind ins k)
           kinds
      && List.for_all
           (fun c -> Profile_tool.ldst_count prof c = Ldstmix.count mixt c)
           [ Isa.No_mem; Isa.Mem_r; Isa.Mem_w; Isa.Mem_rw ]
      && mix_bits (Profile_tool.ldst_mix prof) = mix_bits (Ldstmix.mix mixt))

(* ------------------------------------------------------------------ *)
(* Per-program compilation cache: repeated runs (cache hits) and many
   distinct programs (evictions) keep behaving like fresh compiles *)

let test_cache_reuse_and_eviction () =
  let mk i =
    let a = Asm.create ~name:(Printf.sprintf "p%d" i) () in
    Asm.li a 1 i;
    Asm.alui a Isa.Add 1 1 1;
    Asm.halt a;
    Asm.assemble a
  in
  let progs = Array.init 40 mk in
  (* interleave two passes so early programs are re-run after the cache
     (limit 32) has evicted them *)
  for pass = 1 to 2 do
    Array.iteri
      (fun i p ->
        let m = Interp.create ~entry:p.Program.entry () in
        (match Interp.run ~engine:Interp.Auto p m with
        | Interp.Halted -> ()
        | Interp.Out_of_fuel -> Alcotest.fail "unexpected out-of-fuel");
        Alcotest.(check int)
          (Printf.sprintf "pass %d: p%d result" pass i)
          (i + 1) m.Interp.regs.(1);
        Alcotest.(check int)
          (Printf.sprintf "pass %d: p%d icount" pass i)
          3 m.Interp.icount)
      progs
  done

(* ------------------------------------------------------------------ *)
(* Projection: the row-memoised implementation must be bit-identical to
   the direct per-entry hashing it replaced *)

let naive_project ~dim ~seed (slices : Bbv_tool.slice array) =
  Array.map
    (fun (s : Bbv_tool.slice) ->
      let v = Array.make dim 0.0 in
      let total = float_of_int s.Bbv_tool.length in
      if total > 0.0 then
        Array.iter
          (fun (block, count) ->
            let w = float_of_int count /. total in
            for d = 0 to dim - 1 do
              v.(d) <-
                v.(d)
                +. (w *. Sp_simpoint.Projection.matrix_entry ~seed ~block ~dim:d)
            done)
          s.Bbv_tool.bbv;
      v)
    slices

let slices_gen =
  QCheck.Gen.(
    list_size (1 -- 20)
      (list_size (0 -- 12) (pair (int_range 0 500) (int_range 1 20)))
    >|= fun slices ->
    Array.of_list
      (List.mapi
         (fun i bbv ->
           let bbv =
             (* distinct blocks, sorted, as Bbv_tool emits *)
             List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) bbv
           in
           let length = List.fold_left (fun acc (_, c) -> acc + c) 0 bbv in
           {
             Bbv_tool.index = i;
             start_icount = i * 100;
             length;
             bbv = Array.of_list bbv;
           })
         slices))

let prop_projection_bit_identical =
  QCheck.Test.make ~name:"memoised projection is bit-identical" ~count:200
    (QCheck.make QCheck.Gen.(pair slices_gen (pair (int_range 1 9) (1 -- 6))))
    (fun (slices, (seed, dim)) ->
      let fast = Sp_simpoint.Projection.project ~dim ~seed slices in
      let slow = naive_project ~dim ~seed slices in
      Array.for_all2
        (Array.for_all2 (fun a b ->
             Int64.bits_of_float a = Int64.bits_of_float b))
        fast slow)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_compiled_agrees;
    QCheck_alcotest.to_alcotest prop_compiled_fuel_split;
    QCheck_alcotest.to_alcotest prop_syscall_raise;
    QCheck_alcotest.to_alcotest prop_profile_combined;
    Alcotest.test_case "compiled cache reuse and eviction" `Quick
      test_cache_reuse_and_eviction;
    QCheck_alcotest.to_alcotest prop_projection_bit_identical;
  ]
