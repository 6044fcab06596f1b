(* Helpers shared by the benchmark driver, its child processes and its
   smoke test: the percentile rule, result normalisation and digests,
   JSON accessors and child-process plumbing. *)

module Json = Sp_obs.Json

(* ------------------------------------------------------------------ *)
(* statistics *)

let median xs = Sp_util.Stats.percentile xs 50.0

(* Interference from other work on the host only ever slows a pass
   down, and on a shared host it comes in phases lasting tens of
   seconds, longer than many passes; the fastest pass of a run is then
   a steadier estimate of the code's own speed than the median
   (README.md has the measurements). *)
let fastest xs = Array.fold_left Float.min infinity xs

(* A reported percentile needs at least this many samples beyond it;
   with fewer, the "tail" is one or two unlucky samples. *)
let min_beyond = 10

(* [percentile xs q] is the [q]-th percentile ([q] in 0..99) when at
   least {!min_beyond} of the samples lie beyond it, i.e.
   floor(n * (100 - q) / 100) >= 10: p50 needs 20 samples, p90 100. *)
let percentile xs q =
  let n = Array.length xs in
  if q < 0 || q > 99 then invalid_arg "Util.percentile"
  else if n * (100 - q) / 100 < min_beyond then None
  else Some (Sp_util.Stats.percentile xs (float_of_int q))

(* ------------------------------------------------------------------ *)
(* result normalisation: the CI [norm()] filter, in OCaml *)

let is_num_char = function
  | '0' .. '9' | '.' | 'e' | '+' | '-' -> true
  | _ -> false

(* Zero the wall-clock fields and cut the metrics snapshot, exactly as
   CI's sed-based [norm()] does, so two runs of the same job compare
   byte for byte.  [~jobs:true] also zeroes the [jobs] fields, which
   echo an input knob rather than a result (used to compare --jobs 1
   against --jobs 2). *)
let norm ?(jobs = false) s =
  let keys =
    [ "\"wall_seconds\":"; "\"seconds\":" ] @ if jobs then [ "\"jobs\":" ] else []
  in
  let n = String.length s in
  let at i k =
    let l = String.length k in
    i + l <= n && String.sub s i l = k
  in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if at i "\"metrics\":" then Buffer.add_string b "\"metrics\":[]}"
    else
      match List.find_opt (at i) keys with
      | Some k ->
          Buffer.add_string b k;
          Buffer.add_char b '0';
          let j = ref (i + String.length k) in
          while !j < n && is_num_char s.[!j] do
            incr j
          done;
          go !j
      | None ->
          Buffer.add_char b s.[i];
          go (i + 1)
  in
  go 0;
  Buffer.contents b

let digest strings = Digest.to_hex (Digest.string (String.concat "\n" strings))

(* ------------------------------------------------------------------ *)
(* JSON accessors: a missing or mistyped field is a malformed child
   reply, reported as [Failure] and counted as a failed operation *)

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith ("missing field " ^ k)

let num k j =
  match Json.to_float (field k j) with
  | Some f -> f
  | None -> failwith ("field " ^ k ^ " is not a number")

let str k j =
  match Json.to_str (field k j) with
  | Some s -> s
  | None -> failwith ("field " ^ k ^ " is not a string")

let list k j =
  match Json.to_list (field k j) with
  | Some l -> l
  | None -> failwith ("field " ^ k ^ " is not a list")

let pairs k j =
  match field k j with
  | Json.Obj kvs -> kvs
  | _ -> failwith ("field " ^ k ^ " is not an object")

let floats k j =
  Array.of_list
    (List.map
       (fun v ->
         match Json.to_float v with
         | Some f -> f
         | None -> failwith ("field " ^ k ^ " holds a non-number"))
       (list k j))

let obj_of_floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

(* ------------------------------------------------------------------ *)
(* host measurements *)

let now_s () = Sp_obs.Clock.seconds_of_ns (Sp_obs.Clock.now_ns ())

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* VmHWM of process [pid] (default: this one) in MiB, from /proc; for
   this process the GC's peak heap where /proc is missing *)
let peak_rss_mb ?pid () =
  let from_proc () =
    let proc = match pid with Some p -> string_of_int p | None -> "self" in
    In_channel.with_open_text ("/proc/" ^ proc ^ "/status") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                   float_of_int kb /. 1024.0)
           | _ -> None)
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      if pid <> None then nan
      else
        let words = (Gc.quick_stat ()).Gc.top_heap_words in
        float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------------------------ *)
(* child processes: every child is registered until reaped, so a
   failure or the watchdog can kill whatever is still running *)

let live = ref []
let live_mutex = Mutex.create ()

let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Mutex.protect live_mutex (fun () ->
        let pid =
          Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w
            Unix.stderr
        in
        live := pid :: !live;
        pid)
  in
  Unix.close w;
  (pid, r)

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes b chunk 0 k;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

(* Read the child's stdout to EOF and reap it; the last line must be
   its JSON reply. *)
let finish (pid, fd) =
  let out = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> read_all fd) in
  let _, status = Unix.waitpid [] pid in
  Mutex.protect live_mutex (fun () -> live := List.filter (( <> ) pid) !live);
  match status with
  | Unix.WEXITED 0 -> (
      let last =
        String.split_on_char '\n' (String.trim out) |> List.rev |> List.hd
      in
      match Json.parse last with
      | Ok j -> j
      | Error e -> failwith ("child reply is not JSON: " ^ e))
  | Unix.WEXITED c -> failwith (Printf.sprintf "child exited with code %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      failwith (Printf.sprintf "child killed by signal %d" s)

let kill_all () =
  Mutex.protect live_mutex (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live;
      live := [])

(* Children are driven by one JSON argument after [--child]. *)
let child_args role config = [ "--child"; role; Json.to_string config ]
