(* Tests for Sp_pinball: logging, replay fidelity, regional capture,
   the on-disk store. *)

open Sp_isa
open Sp_vm
open Sp_pinball

(* a small program with non-deterministic inputs: sums sys values and
   writes a running pattern to memory *)
let sys_program ~iters =
  let a = Asm.create ~name:"syss" () in
  Asm.li a 1 0x1000;
  Asm.li a 2 iters;
  let top = Asm.here a in
  Asm.sys a 0 3;
  Asm.alu a Add 4 4 3;
  Asm.store a 4 1 0;
  Asm.alui a Add 1 1 8;
  Asm.alui a Sub 2 2 1;
  Asm.branch a Gt 2 15 top;
  Asm.halt a;
  Asm.assemble a

let noisy_syscall seed =
  let rng = Sp_util.Rng.create seed in
  fun (_ : int) -> Sp_util.Rng.int rng 1000

let test_log_whole () =
  let prog = sys_program ~iters:20 in
  let whole = Logger.log_whole ~benchmark:"t" prog in
  Alcotest.(check bool) "counted" true (whole.Logger.total_insns > 100);
  Alcotest.(check int) "recorded all inputs" 20
    (Array.length whole.Logger.pinball.Pinball.syscalls);
  Alcotest.(check int) "whole starts at zero" 0
    (Pinball.start_icount whole.Logger.pinball);
  Alcotest.(check (float 0.0)) "whole weight" 1.0
    (Pinball.weight whole.Logger.pinball)

let test_whole_replay_reproduces () =
  let prog = sys_program ~iters:25 in
  (* log with a non-trivial input source *)
  let whole = Logger.log_whole ~syscall:(noisy_syscall 3) ~benchmark:"t" prog in
  let result = Replayer.replay whole.Logger.pinball in
  Alcotest.(check int) "same instruction count" whole.Logger.total_insns
    result.Replayer.retired;
  (* re-run natively with the same inputs to get ground-truth state *)
  let m = Interp.create ~entry:0 () in
  ignore (Interp.run ~syscall:(noisy_syscall 3) prog m);
  Alcotest.(check int) "same accumulator" m.Interp.regs.(4)
    result.Replayer.machine.Interp.regs.(4);
  Alcotest.(check int) "same memory"
    (Memory.load m.Interp.mem 0x1008)
    (Memory.load result.Replayer.machine.Interp.mem 0x1008)

let mk_point cluster slice_index start length weight =
  { Sp_simpoint.Simpoints.cluster; slice_index; start_icount = start; length; weight }

let test_regional_capture_matches_ground_truth () =
  let prog = sys_program ~iters:100 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 7) ~benchmark:"t" prog in
  let start = 150 and len = 120 in
  let points = [| mk_point 0 0 start len 1.0 |] in
  let regions = Logger.capture_regions whole points in
  Alcotest.(check int) "one region" 1 (Array.length regions);
  let mixt = Sp_pin.Ldstmix.create prog in
  let r = Replayer.replay ~tools:[ Sp_pin.Ldstmix.hooks mixt ] regions.(0) in
  Alcotest.(check int) "exact length" len r.Replayer.retired;
  (* ground truth: native run, instrument the same interval *)
  let gt = Sp_pin.Ldstmix.create prog in
  let m = Interp.create ~entry:0 () in
  let syscall = noisy_syscall 7 in
  ignore (Interp.run ~syscall ~fuel:start prog m);
  ignore (Interp.run ~hooks:(Sp_pin.Ldstmix.hooks gt) ~syscall ~fuel:len prog m);
  List.iter
    (fun cls ->
      Alcotest.(check int)
        (Isa.mem_class_name cls)
        (Sp_pin.Ldstmix.count gt cls)
        (Sp_pin.Ldstmix.count mixt cls))
    Isa.all_mem_classes

let test_region_syscall_injection () =
  let prog = sys_program ~iters:50 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 11) ~benchmark:"t" prog in
  (* a region that contains syscalls: replaying twice is deterministic *)
  let points = [| mk_point 0 0 60 90 1.0 |] in
  let regions = Logger.capture_regions whole points in
  let run () =
    let r = Replayer.replay regions.(0) in
    r.Replayer.machine.Interp.regs.(4)
  in
  Alcotest.(check int) "deterministic replay" (run ()) (run ())

let test_replay_divergence () =
  let prog = sys_program ~iters:10 in
  let whole = Logger.log_whole ~benchmark:"t" prog in
  let pb = whole.Logger.pinball in
  (* corrupt: drop the recorded inputs *)
  let broken = { pb with Pinball.syscalls = [||] } in
  try
    ignore (Replayer.replay broken);
    Alcotest.fail "expected Divergence"
  with Replayer.Divergence _ -> ()

let test_scan_matches_capture () =
  let prog = sys_program ~iters:80 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 2) ~benchmark:"t" prog in
  let points =
    [| mk_point 1 0 100 50 0.5; mk_point 0 0 300 50 0.5 |]
  in
  let captured = Logger.capture_regions whole points in
  let scanned = ref [] in
  Scan_ref.scan_regions whole points (fun pb -> scanned := pb :: !scanned);
  let scanned = List.rev !scanned in
  Alcotest.(check int) "same count" 2 (List.length scanned);
  List.iteri
    (fun i pb ->
      (* scan order is by start; points were given in start order here *)
      let ref_pb = captured.(i) in
      let final pb = (Replayer.replay pb).Replayer.machine.Interp.regs.(4) in
      Alcotest.(check int) "same replay result" (final ref_pb) (final pb))
    scanned

let test_scan_warmup_hooks () =
  let prog = sys_program ~iters:200 in
  let whole = Logger.log_whole ~benchmark:"t" prog in
  let points = [| mk_point 0 0 600 100 1.0 |] in
  let warm_count = ref 0 in
  let started = ref 0 in
  let warmup =
    {
      Scan_ref.length = 250;
      hooks = { Hooks.nil with on_instr = (fun _ _ -> incr warm_count) };
      on_start = (fun () -> incr started);
    }
  in
  Scan_ref.scan_regions ~warmup whole points (fun _ -> ());
  Alcotest.(check int) "on_start once" 1 !started;
  Alcotest.(check int) "warm window length" 250 !warm_count

let test_scan_warmup_clamped () =
  let prog = sys_program ~iters:200 in
  let whole = Logger.log_whole ~benchmark:"t" prog in
  let points = [| mk_point 0 0 100 50 1.0 |] in
  let warm_count = ref 0 in
  let warmup =
    {
      Scan_ref.length = 10_000;
      hooks = { Hooks.nil with on_instr = (fun _ _ -> incr warm_count) };
      on_start = ignore;
    }
  in
  Scan_ref.scan_regions ~warmup whole points (fun _ -> ());
  Alcotest.(check int) "clamped to gap" 100 !warm_count

(* ------------------------------------------------------------------ *)
(* the on-disk store (format v2) *)

let fresh_dir () =
  let d = Filename.temp_file "spstore" "" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let load_ok path =
  match Store.load path with
  | Ok pb -> pb
  | Error e -> Alcotest.failf "load %s: %s" path (Store.error_message e)

let check_pinball_equal what (a : Pinball.t) (b : Pinball.t) =
  Alcotest.(check string) (what ^ ": benchmark") a.benchmark b.benchmark;
  Alcotest.(check bool) (what ^ ": kind") true (a.kind = b.kind);
  Alcotest.(check (option int)) (what ^ ": length") a.length b.length;
  Alcotest.(check bool) (what ^ ": syscalls") true (a.syscalls = b.syscalls);
  Alcotest.(check bool) (what ^ ": program instrs") true
    (a.program.Program.instrs = b.program.Program.instrs);
  Alcotest.(check int) (what ^ ": entry") a.program.Program.entry
    b.program.Program.entry;
  Alcotest.(check int) (what ^ ": start icount") (Pinball.start_icount a)
    (Pinball.start_icount b);
  (* replay equality is the property that matters *)
  let final pb =
    let r = Replayer.replay pb in
    (r.Replayer.retired, r.Replayer.machine.Interp.regs.(4))
  in
  Alcotest.(check bool) (what ^ ": replays equal") true (final a = final b)

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let prog = sys_program ~iters:30 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 5) ~benchmark:"bench.x" prog in
  let path = Store.save ~dir whole.Logger.pinball in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  let loaded = load_ok path in
  check_pinball_equal "whole" whole.Logger.pinball loaded;
  Alcotest.(check (list string)) "listed" [ path ] (Store.list_dir ~dir);
  Alcotest.(check bool) "verify ok" true (Store.verify path = Ok ());
  rm_rf dir

let test_store_region_roundtrip () =
  let dir = fresh_dir () in
  let prog = sys_program ~iters:100 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 9) ~benchmark:"rr" prog in
  (* capture past the start so the snapshot carries touched memory pages
     and a non-zero icount *)
  let points = [| mk_point 3 0 150 120 0.75 |] in
  let region = (Logger.capture_regions whole points).(0) in
  let path = Store.save ~dir region in
  let loaded = load_ok path in
  check_pinball_equal "region" region loaded;
  (match loaded.Pinball.kind with
  | Pinball.Region { cluster; weight } ->
      Alcotest.(check int) "cluster" 3 cluster;
      Alcotest.(check (float 0.0)) "weight" 0.75 weight
  | Pinball.Whole -> Alcotest.fail "expected a region");
  rm_rf dir

let test_store_errors () =
  let dir = fresh_dir () in
  Store.mkdir_p dir;
  let file name data =
    let p = Filename.concat dir name in
    write_file p data;
    p
  in
  (match Store.load (Filename.concat dir "absent.pb") with
  | Error (Store.No_such_file _) -> ()
  | _ -> Alcotest.fail "expected No_such_file");
  (* shorter than the magic+version header: used to raise End_of_file *)
  (match Store.load (file "short.pb" "SPRE") with
  | Error (Store.Short_file _) -> ()
  | _ -> Alcotest.fail "expected Short_file");
  (match Store.load (file "junk.pb" "NOT-A-PINBALL-AT-ALL") with
  | Error (Store.Bad_magic _) -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (* a legacy v1 file: magic + big-endian version 1 + a Marshal blob.
     The v2 loader must identify the version cleanly, not crash in
     Marshal. *)
  let v1 =
    let b = Buffer.create 64 in
    Buffer.add_string b "SPREPRO-PINBALL";
    Buffer.add_int32_be b 1l;
    Buffer.add_string b (Marshal.to_string (1, "not a pinball") []);
    Buffer.contents b
  in
  (match Store.load (file "legacy.pb" v1) with
  | Error (Store.Bad_version { found; _ } as e) ->
      Alcotest.(check int) "legacy version detected" 1 found;
      Alcotest.(check bool) "message names the version" true
        (Astring_contains.contains (Store.error_message e) "version 1")
  | _ -> Alcotest.fail "expected Bad_version");
  (* valid file with one payload byte corrupted: checksum must catch it *)
  let prog = sys_program ~iters:10 in
  let whole = Logger.log_whole ~benchmark:"c" prog in
  let path = Store.save ~dir whole.Logger.pinball in
  let data = read_file path in
  let broken = Bytes.of_string data in
  let mid = String.length data / 2 in
  Bytes.set broken mid (Char.chr (Char.code (Bytes.get broken mid) lxor 0x01));
  write_file path (Bytes.to_string broken);
  (match Store.load path with
  | Error (Store.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "corrupted file decoded"
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Store.error_message e));
  rm_rf dir

(* Offsets of every framing field: section starts, payload starts,
   payload ends, checksum fields.  Derived by walking the real file so
   the fuzzers always hit the exact boundaries. *)
let section_boundaries data =
  let header = 15 + 4 in
  let u32_le s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFF_FFFF in
  let acc = ref [ 0; 15; header ] in
  let pos = ref header in
  for _ = 1 to 4 do
    let len = u32_le data (!pos + 4) in
    acc := !pos :: (!pos + 4) :: (!pos + 8) :: (!pos + 8 + len)
           :: (!pos + 8 + len + 4) :: !acc;
    pos := !pos + 8 + len + 4
  done;
  List.sort_uniq compare (List.filter (fun o -> o <= String.length data) !acc)

let expect_error what data =
  match Store.of_bytes data with
  | Ok _ -> Alcotest.failf "%s: decoded successfully" what
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let test_store_fuzz_whole () =
  (* the whole pinball of a small program is a few hundred bytes, so
     fuzz it exhaustively: every truncation length and every single-bit
     flip must come back as a typed error — never an exception *)
  let prog = sys_program ~iters:20 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 5) ~benchmark:"fz" prog in
  let dir = fresh_dir () in
  let path = Store.save ~dir whole.Logger.pinball in
  let data = read_file path in
  rm_rf dir;
  Alcotest.(check bool) "baseline decodes" true
    (Result.is_ok (Store.of_bytes data));
  let n = String.length data in
  for len = 0 to n - 1 do
    expect_error
      (Printf.sprintf "truncation to %d" len)
      (String.sub data 0 len)
  done;
  for i = 0 to n - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code data.[i] lxor (1 lsl bit)));
      expect_error (Printf.sprintf "bit %d of byte %d" bit i) (Bytes.to_string b)
    done
  done

let test_store_fuzz_region () =
  (* a regional pinball carries memory pages, so the file is tens of kB;
     fuzz every section boundary exactly, plus a stride over the body *)
  let prog = sys_program ~iters:100 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 13) ~benchmark:"fz" prog in
  let region =
    (Logger.capture_regions whole [| mk_point 0 0 150 100 1.0 |]).(0)
  in
  let dir = fresh_dir () in
  let path = Store.save ~dir region in
  let data = read_file path in
  rm_rf dir;
  let n = String.length data in
  Alcotest.(check bool) "region file has memory pages" true (n > 10_000);
  let boundaries = section_boundaries data in
  let truncs =
    List.concat_map (fun o -> [ o - 1; o; o + 1 ]) boundaries
    |> List.filter (fun l -> l >= 0 && l < n)
  in
  let strided = List.init (n / 97) (fun i -> i * 97) in
  List.iter
    (fun len ->
      expect_error
        (Printf.sprintf "truncation to %d" len)
        (String.sub data 0 len))
    (List.sort_uniq compare (truncs @ strided));
  List.iter
    (fun i ->
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code data.[i] lxor (1 lsl (i mod 8))));
      expect_error (Printf.sprintf "flip in byte %d" i) (Bytes.to_string b))
    (List.filter (fun i -> i < n)
       (boundaries @ strided))

(* Cross-section consistency.  Every engine fetches unchecked at the
   snapshot's pc and at each return address it pops, so a pinball whose
   sections all carry valid checksums must still be rejected unless it
   resumes inside its program and can never fall or return past its
   end. *)
let encode_state program (m : Interp.machine) =
  Store.encode
    {
      Pinball.benchmark = "state";
      kind = Pinball.Whole;
      program;
      snapshot = Snapshot.capture m;
      length = None;
      syscalls = [||];
    }

let expect_corrupt what data =
  match Store.of_bytes data with
  | Error (Store.Corrupt _) -> ()
  | Ok _ -> Alcotest.failf "%s: decoded successfully" what
  | Error e ->
      Alcotest.failf "%s: expected Corrupt, got %s" what (Store.error_message e)

let expect_decodes what data =
  match Store.of_bytes data with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" what (Store.error_message e)

let test_store_pc_range () =
  let prog = sys_program ~iters:5 in
  let n = Array.length prog.Program.instrs in
  let at pc =
    let m = Interp.create ~entry:0 () in
    m.Interp.pc <- pc;
    encode_state prog m
  in
  expect_decodes "last pc" (at (n - 1));
  expect_corrupt "pc = program length" (at n);
  expect_corrupt "pc far past the end" (at 50_000_000)

let test_store_stack_depth () =
  let prog = sys_program ~iters:5 in
  expect_decodes "interpreter depth"
    (encode_state prog (Interp.create ~entry:0 ()));
  List.iter
    (fun depth ->
      let m = Interp.create ~entry:0 () in
      expect_corrupt
        (Printf.sprintf "%d-slot call stack" depth)
        (encode_state prog { m with Interp.callstack = Array.make depth 0 }))
    [ 0; 16; Interp.stack_depth + 1 ]

let test_store_return_addresses () =
  let prog = sys_program ~iters:5 in
  let n = Array.length prog.Program.instrs in
  let with_stack slots sp =
    let m = Interp.create ~entry:0 () in
    List.iteri (fun i a -> m.Interp.callstack.(i) <- a) slots;
    m.Interp.sp <- sp;
    encode_state prog m
  in
  (* only live slots (below sp) are ever popped *)
  expect_decodes "dead slot past the end" (with_stack [ 1; n - 1; 50_000_000 ] 2);
  expect_corrupt "live slot = program length" (with_stack [ 1; n ] 2);
  expect_corrupt "negative live slot" (with_stack [ -1 ] 1)

let test_store_program_end () =
  List.iter
    (fun (what, last, ok) ->
      let prog = Program.of_instrs [| Isa.Li (1, 0); last |] in
      let data = encode_state prog (Interp.create ~entry:0 ()) in
      if ok then expect_decodes what data else expect_corrupt what data)
    [
      ("ends in jump", Isa.Jump 0, true);
      ("ends in ret", Isa.Ret, true);
      ("ends in halt", Isa.Halt, true);
      ("ends in branch", Isa.Branch (Isa.Eq, 1, 1, 0), false);
      ("ends in call", Isa.Call 0, false);
      ("ends in alu", Isa.Alui (Isa.Add, 1, 1, 1), false);
      ("ends in sys", Isa.Sys (0, 1), false);
    ]

let test_store_concurrent_save () =
  (* 4 pool domains saving into the same fresh (nested) directory: the
     old Sys.file_exists/Sys.mkdir pair could throw EEXIST here *)
  let dir = Filename.concat (fresh_dir ()) "nested/deeper" in
  let prog = sys_program ~iters:100 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 1) ~benchmark:"cc" prog in
  let points = Array.init 8 (fun i -> mk_point i 0 (30 * i) 20 0.125) in
  let regions = Logger.capture_regions whole points in
  let paths =
    Sp_util.Pool.parallel_map ~jobs:4 (fun pb -> Store.save ~dir pb) regions
  in
  Alcotest.(check int) "all files listed" 8
    (List.length (Store.list_dir ~dir));
  Array.iteri
    (fun i path ->
      let loaded = load_ok path in
      check_pinball_equal (Printf.sprintf "concurrent %d" i) regions.(i) loaded)
    paths;
  rm_rf (Filename.dirname (Filename.dirname dir))

let test_artifact_cache () =
  let dir = fresh_dir () in
  let key =
    Artifact_cache.key ~benchmark:"b.x" ~slice_insns:1000 ~slices_scale:0.5
  in
  (* the key is a stable function of its inputs *)
  Alcotest.(check string) "key deterministic" key
    (Artifact_cache.key ~benchmark:"b.x" ~slice_insns:1000 ~slices_scale:0.5);
  Alcotest.(check bool) "key separates params" true
    (key
    <> Artifact_cache.key ~benchmark:"b.x" ~slice_insns:1001 ~slices_scale:0.5);
  Alcotest.(check bool) "miss on empty dir" true
    (Artifact_cache.find_whole ~dir ~key = Artifact_cache.Miss);
  let prog = sys_program ~iters:40 in
  let whole = Logger.log_whole ~syscall:(noisy_syscall 21) ~benchmark:"b.x" prog in
  let path = Artifact_cache.store_whole ~dir ~key whole in
  (match Artifact_cache.find_whole ~dir ~key with
  | Artifact_cache.Hit cached ->
      Alcotest.(check int) "total insns" whole.Logger.total_insns
        cached.Logger.total_insns;
      check_pinball_equal "cached" whole.Logger.pinball cached.Logger.pinball
  | _ -> Alcotest.fail "expected Hit");
  (* corrupt the entry: the next lookup quarantines it, then misses *)
  let data = read_file path in
  let broken = Bytes.of_string data in
  Bytes.set broken (String.length data - 10) '\xff';
  write_file path (Bytes.to_string broken);
  (match Artifact_cache.find_whole ~dir ~key with
  | Artifact_cache.Quarantined { path = qp; _ } ->
      Alcotest.(check bool) "entry moved aside" true
        (Sys.file_exists (qp ^ ".quarantined"));
      Alcotest.(check bool) "original gone" true (not (Sys.file_exists qp))
  | _ -> Alcotest.fail "expected Quarantined");
  Alcotest.(check bool) "miss after quarantine" true
    (Artifact_cache.find_whole ~dir ~key = Artifact_cache.Miss);
  (* re-store over the quarantine, then gc sweeps the residue *)
  ignore (Artifact_cache.store_whole ~dir ~key whole);
  write_file (Filename.concat dir "x.pb.tmp.1.2") "partial";
  let r = Artifact_cache.gc ~dir in
  Alcotest.(check int) "kept" 1 r.Artifact_cache.kept;
  Alcotest.(check int) "quarantined removed" 1 r.Artifact_cache.removed_quarantined;
  Alcotest.(check int) "tmp removed" 1 r.Artifact_cache.removed_tmp;
  Alcotest.(check int) "no corrupt left" 0 r.Artifact_cache.removed_corrupt;
  (match Artifact_cache.find_whole ~dir ~key with
  | Artifact_cache.Hit _ -> ()
  | _ -> Alcotest.fail "expected Hit after gc");
  rm_rf dir

(* Golden-bytes pin for the v2 encoder.  The encoding of a fixed
   pinball — int and float pages, recorded inputs, a region variant —
   is part of the compatibility contract: stored artifacts, both
   content-addressed caches and the fuzz corpus all assume the encoder
   never changes under a given format version.  Any legitimate format
   change must bump [Store.version] and re-pin these digests. *)
let golden_program =
  let a = Asm.create ~name:"golden" () in
  Asm.li a 1 0x2000;
  Asm.li a 2 30;
  Asm.fmovi a 1 1.5;
  let top = Asm.here a in
  Asm.sys a 0 3;
  Asm.alu a Add 4 4 3;
  Asm.store a 4 1 0;
  Asm.falu a Fadd 2 2 1;
  Asm.fstore a 2 1 512;
  Asm.alui a Add 1 1 8;
  Asm.alui a Sub 2 2 1;
  Asm.branch a Gt 2 15 top;
  Asm.halt a;
  Asm.assemble a

let test_golden_bytes () =
  let whole =
    Logger.log_whole ~syscall:(noisy_syscall 5) ~benchmark:"golden"
      golden_program
  in
  let digest pb = Digest.to_hex (Digest.string (Store.encode pb)) in
  Alcotest.(check string) "whole pinball bytes"
    "20ad27af6e5f01e188e3619bbbd2cc54"
    (digest whole.Logger.pinball);
  let regions =
    Logger.capture_regions whole [| mk_point 2 0 60 90 0.25 |]
  in
  Alcotest.(check string) "region pinball bytes"
    "900addee133ddfaf35f15181667099de"
    (digest regions.(0))

(* The same pin for the profile-cache encoding: a hand-built entry with
   two BBV slices, per-kind counts and float statistics that are not
   round numbers, so every field's byte layout is covered. *)
let golden_profile : Profile_store.data =
  let level accesses misses =
    {
      Sp_cache.Hierarchy.accesses;
      misses;
      miss_rate = float_of_int misses /. float_of_int accesses;
    }
  in
  {
    Profile_store.benchmark = "golden.prof";
    total_insns = 2400;
    slices =
      [|
        {
          Sp_pin.Bbv_tool.index = 0;
          start_icount = 0;
          length = 1200;
          bbv = [| (0, 400); (3, 800) |];
        };
        {
          Sp_pin.Bbv_tool.index = 1;
          start_icount = 1200;
          length = 1200;
          bbv = [| (1, 1000); (3, 150); (7, 50) |];
        };
      |];
    kind_counts = [| 900; 700; 400; 250; 150 |];
    cache_stats =
      {
        Sp_cache.Hierarchy.l1i = level 2400 12;
        l1d = level 1100 97;
        l2 = level 109 41;
        l3 = level 41 29;
      };
    core_stats =
      {
        Sp_cpu.Interval_core.instructions = 2400;
        cycles = 3141.592653589793;
        base_cycles = 600.25;
        branch_stall_cycles = 1.0 /. 3.0;
        memory_stall_cycles = 2541.009;
        branch_lookups = 310;
        branch_mispredicts = 17;
        level_hits = [| 1003; 56; 12; 29 |];
      };
  }

let test_golden_profile_bytes () =
  Alcotest.(check string) "profile entry bytes"
    "2aa6fddc018e89677fa9394811d4812c"
    (Digest.to_hex (Digest.string (Profile_store.encode golden_profile)));
  match Profile_store.of_bytes (Profile_store.encode golden_profile) with
  | Ok d -> Alcotest.(check bool) "decodes back" true (d = golden_profile)
  | Error e -> Alcotest.fail e

let expect_profile_error what data =
  match Profile_store.of_bytes data with
  | Ok _ -> Alcotest.failf "%s: decoded successfully" what
  | Error _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let test_profile_fuzz () =
  (* mirrors the whole-pinball fuzz: every truncation and every
     single-byte flip of an encoded entry is a typed error *)
  let data = Profile_store.encode golden_profile in
  let n = String.length data in
  for len = 0 to n - 1 do
    expect_profile_error
      (Printf.sprintf "truncation to %d" len)
      (String.sub data 0 len)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string data in
        Bytes.set b i (Char.chr (Char.code data.[i] lxor mask));
        expect_profile_error
          (Printf.sprintf "xor %02x at byte %d" mask i)
          (Bytes.to_string b))
      (0xff :: List.init 8 (fun bit -> 1 lsl bit))
  done

let test_describe () =
  let prog = sys_program ~iters:5 in
  let whole = Logger.log_whole ~benchmark:"b" prog in
  Alcotest.(check string) "whole" "b.whole"
    (Pinball.describe whole.Logger.pinball)

let suite =
  [
    Alcotest.test_case "log whole" `Quick test_log_whole;
    Alcotest.test_case "whole replay reproduces" `Quick test_whole_replay_reproduces;
    Alcotest.test_case "regional capture matches ground truth" `Quick
      test_regional_capture_matches_ground_truth;
    Alcotest.test_case "region syscall injection" `Quick test_region_syscall_injection;
    Alcotest.test_case "replay divergence" `Quick test_replay_divergence;
    Alcotest.test_case "scan matches capture" `Quick test_scan_matches_capture;
    Alcotest.test_case "scan warmup hooks" `Quick test_scan_warmup_hooks;
    Alcotest.test_case "scan warmup clamped" `Quick test_scan_warmup_clamped;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store region roundtrip" `Quick test_store_region_roundtrip;
    Alcotest.test_case "store typed errors" `Quick test_store_errors;
    Alcotest.test_case "store fuzz whole (exhaustive)" `Quick test_store_fuzz_whole;
    Alcotest.test_case "store fuzz region (boundaries)" `Quick test_store_fuzz_region;
    Alcotest.test_case "store rejects pc outside program" `Quick
      test_store_pc_range;
    Alcotest.test_case "store rejects wrong stack depth" `Quick
      test_store_stack_depth;
    Alcotest.test_case "store rejects return past program" `Quick
      test_store_return_addresses;
    Alcotest.test_case "store rejects fall-off program end" `Quick
      test_store_program_end;
    Alcotest.test_case "store concurrent save" `Quick test_store_concurrent_save;
    Alcotest.test_case "artifact cache" `Quick test_artifact_cache;
    Alcotest.test_case "golden encoder bytes" `Quick test_golden_bytes;
    Alcotest.test_case "golden profile entry bytes" `Quick
      test_golden_profile_bytes;
    Alcotest.test_case "profile entry fuzz (exhaustive)" `Quick
      test_profile_fuzz;
    Alcotest.test_case "describe" `Quick test_describe;
  ]
