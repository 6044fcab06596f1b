open Sp_util
open Sp_vm

let format : Frame.file =
  { magic = "SPREPRO-PINBALL"; version = 2; noun = "pinball" }

type error = Frame.error =
  | No_such_file of string
  | Short_file of string
  | Bad_magic of string
  | Bad_version of { path : string; found : int }
  | Corrupt of { path : string; reason : string }

let error_message = Frame.error_message format

(* ------------------------------------------------------------------ *)
(* naming *)

let filename (pb : Pinball.t) =
  match pb.kind with
  | Pinball.Whole -> Printf.sprintf "%s.whole.pb" pb.benchmark
  | Pinball.Region r -> Printf.sprintf "%s.region%03d.pb" pb.benchmark r.cluster

(* ------------------------------------------------------------------ *)
(* encoding: a {!Frame} sectioned file with four sections in fixed
   order, META, PROG, SNAP and SYSC *)

let encode_meta buf (pb : Pinball.t) =
  Binio.w_string buf pb.benchmark;
  (match pb.kind with
  | Pinball.Whole -> Binio.w_u8 buf 0
  | Pinball.Region { cluster; weight } ->
      Binio.w_u8 buf 1;
      Binio.w_i64 buf cluster;
      Binio.w_f64 buf weight);
  match pb.length with
  | None -> Binio.w_u8 buf 0
  | Some l ->
      Binio.w_u8 buf 1;
      Binio.w_i64 buf l

let encode_syscalls buf (pb : Pinball.t) =
  Binio.w_u32 buf (Array.length pb.syscalls);
  Array.iter
    (fun (icount, v) ->
      Binio.w_i64 buf icount;
      Binio.w_i64 buf v)
    pb.syscalls

let encode (pb : Pinball.t) =
  (* size hint: SNAP dominates (the memory image), PROG is roughly
     proportional to the instruction count.  Pre-sizing the buffer skips
     the doubling-growth copies, which for a multi-MiB image cost as
     much as an extra full encode pass. *)
  let size_hint =
    Snapshot.mem_bytes pb.Pinball.snapshot
    + (Array.length pb.Pinball.program.Program.instrs * 16)
    + 12288
  in
  Frame.encode_file format ~size_hint
    [
      ("META", fun b -> encode_meta b pb);
      ("PROG", fun b -> Program.write b pb.Pinball.program);
      ("SNAP", fun b -> Snapshot.write b pb.Pinball.snapshot);
      ("SYSC", fun b -> encode_syscalls b pb);
    ]

(* ------------------------------------------------------------------ *)
(* decoding *)

let decode_meta meta =
  let benchmark = Binio.r_string meta in
  let kind =
    match Binio.r_u8 meta with
    | 0 -> Pinball.Whole
    | 1 ->
        let cluster = Binio.r_i64 meta in
        let weight = Binio.r_f64 meta in
        Pinball.Region { cluster; weight }
    | n -> Binio.fail "META: bad pinball kind %d" n
  in
  let length =
    match Binio.r_u8 meta with
    | 0 -> None
    | 1 ->
        let l = Binio.r_i64 meta in
        if l < 0 then Binio.fail "META: negative length %d" l;
        Some l
    | n -> Binio.fail "META: bad length tag %d" n
  in
  (benchmark, kind, length)

let decode_syscalls r =
  let n = Binio.r_count r ~elem_bytes:16 "syscall log" in
  Array.init n (fun _ ->
      let icount = Binio.r_i64 r in
      let v = Binio.r_i64 r in
      (icount, v))

let decode_body s : Pinball.t =
  let benchmark, kind, length = Frame.section s "META" decode_meta in
  let program = Frame.section s "PROG" Program.read in
  let code_len = Array.length program.Program.instrs in
  (* the engine fetches unchecked: a replay must never fall or return
     past the last instruction *)
  (match program.Program.instrs.(code_len - 1) with
  | Sp_isa.Isa.Jump _ | Ret | Halt -> ()
  | _ -> Binio.fail "PROG: the last instruction can run past the end");
  let snapshot = Frame.section s "SNAP" (Snapshot.read ~code_len) in
  let syscalls = Frame.section s "SYSC" decode_syscalls in
  { Pinball.benchmark; kind; program; snapshot; length; syscalls }

let of_bytes ?path data = Frame.decode_file format ?path decode_body data
let load path = Frame.load_file format decode_body path

let load_exn path =
  match load path with Ok pb -> pb | Error e -> failwith (error_message e)

let verify path = Result.map ignore (load path)

(* ------------------------------------------------------------------ *)
(* writing *)

let mkdir_p = Frame.mkdir_p

let save ~dir pb =
  let path = Filename.concat dir (filename pb) in
  Frame.write_atomic ~path (encode pb);
  path

let list_dir ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pb")
    |> List.map (Filename.concat dir)
    |> List.sort compare
