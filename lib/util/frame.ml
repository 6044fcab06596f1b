(* The two checksummed byte layouts and the file plumbing they share
   (see the .mli for the layouts). *)

(* ------------------------------------------------------------------ *)
(* files *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" then ()
  else if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      failwith (Printf.sprintf "%s exists and is not a directory" dir)
  end
  else begin
    mkdir_p (Filename.dirname dir);
    (* another domain or process may create it between the check and the
       mkdir; treat that as success instead of racing to EEXIST *)
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let tmp_infix = ".tmp."

let write_atomic ~path data =
  mkdir_p (Filename.dirname path);
  (* unique per (process, domain): concurrent savers never share a temp
     file, and the final rename is atomic, so readers only ever see
     complete files *)
  let tmp =
    Printf.sprintf "%s%s%d.%d" path tmp_infix (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  (* a write or the flush at close can fail (disk full, file-size
     limit): drop the temp file and re-raise the plain error *)
  try
    output_string oc data;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let is_tmp name =
  let n = String.length name and m = String.length tmp_infix in
  let rec go i =
    i + m <= n && (String.sub name i m = tmp_infix || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* sectioned files *)

type file = { magic : string; version : int; noun : string }

type error =
  | No_such_file of string
  | Short_file of string
  | Bad_magic of string
  | Bad_version of { path : string; found : int }
  | Corrupt of { path : string; reason : string }

let header_bytes (f : file) = String.length f.magic + 4

let error_message (f : file) = function
  | No_such_file path -> Printf.sprintf "%s: no such file" path
  | Short_file path ->
      Printf.sprintf "%s: not a %s (shorter than the %d-byte header)" path
        f.noun (header_bytes f)
  | Bad_magic path -> Printf.sprintf "%s: not a %s (bad magic)" path f.noun
  | Bad_version { path; found } ->
      Printf.sprintf "%s: %s format version %d, expected %d" path f.noun found
        f.version
  | Corrupt { path; reason } ->
      Printf.sprintf "%s: corrupt %s (%s)" path f.noun reason

(* Sections are written straight into one buffer, with no per-section
   staging, so the largest payload is copied exactly once, by the final
   [Buffer.to_bytes].  Each length and CRC goes out as a placeholder and
   is patched into the final bytes, where the payload is readable. *)
let encode_file (f : file) ?(size_hint = 4096) sections =
  let buf = Buffer.create size_hint in
  Buffer.add_string buf f.magic;
  Buffer.add_int32_be buf (Int32.of_int f.version);
  let patches =
    List.fold_left
      (fun acc (tag, write_payload) ->
        Buffer.add_string buf tag;
        let pos = Buffer.length buf + 4 in
        Binio.w_u32 buf 0;
        write_payload buf;
        let len = Buffer.length buf - pos in
        Binio.w_u32 buf 0;
        (pos, len) :: acc)
      [] sections
  in
  let out = Buffer.to_bytes buf in
  let view = Bytes.unsafe_to_string out in
  List.iter
    (fun (pos, len) ->
      Bytes.set_int32_le out (pos - 4) (Int32.of_int len);
      Bytes.set_int32_le out (pos + len)
        (Int32.of_int (Crc32.sub view ~pos ~len)))
    patches;
  view

type sections = { data : string; body : Binio.reader }

let section s tag decode =
  let r = s.body in
  let t = Binio.r_bytes r 4 in
  if t <> tag then Binio.fail "expected section %s, found %S" tag t;
  let len = Binio.r_u32 r in
  if len + 4 > Binio.remaining r then
    Binio.fail "section %s: length %d overruns the file" tag len;
  let pos = Binio.pos r in
  Binio.skip r len;
  let stored = Binio.r_u32 r in
  if stored <> Crc32.sub s.data ~pos ~len then
    Binio.fail "section %s: checksum mismatch" tag;
  let payload = Binio.reader ~pos ~len s.data in
  let v = decode payload in
  Binio.expect_end payload tag;
  v

let decode_file (f : file) ?(path = "<bytes>") decode data =
  let m = String.length f.magic in
  if String.length data < header_bytes f then Error (Short_file path)
  else if String.sub data 0 m <> f.magic then Error (Bad_magic path)
  else
    let found = Int32.to_int (String.get_int32_be data m) in
    if found <> f.version then Error (Bad_version { path; found })
    else
      let s = { data; body = Binio.reader ~pos:(m + 4) data } in
      match
        let v = decode s in
        Binio.expect_end s.body "file";
        v
      with
      | v -> Ok v
      | exception
          (Binio.Corrupt reason | Invalid_argument reason | Failure reason) ->
          Error (Corrupt { path; reason })

let load_file f decode path =
  if not (Sys.file_exists path) then Error (No_such_file path)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | data -> decode_file f ~path decode data
    | exception Sys_error reason -> Error (Corrupt { path; reason })

(* ------------------------------------------------------------------ *)
(* self-framed records *)

type record = { magic : string; version : int; max_payload : int }

type record_error =
  | Short
  | Bad_record_magic of string
  | Bad_record_version of int
  | Oversized of int
  | Bad_crc of { expected : int; found : int }

let record_header_bytes = 4 + 1 + 4 + 4

let encode_record (f : record) payload =
  let len = String.length payload in
  let b = Bytes.create (record_header_bytes + len) in
  Bytes.blit_string f.magic 0 b 0 4;
  Bytes.set_uint8 b 4 f.version;
  Bytes.set_int32_le b 5 (Int32.of_int len);
  Bytes.set_int32_le b 9 (Int32.of_int (Crc32.string payload));
  Bytes.blit_string payload 0 b record_header_bytes len;
  Bytes.unsafe_to_string b

let record_header (f : record) s ~pos =
  let remaining = String.length s - pos in
  let m = min remaining 4 in
  (* the magic is checked first, so bytes that cannot begin a record are
     [Bad_record_magic] even when there are too few to fill a header *)
  if String.sub s pos m <> String.sub f.magic 0 m then
    Error (Bad_record_magic (String.sub s pos m))
  else if remaining < record_header_bytes then Error Short
  else
    let r = Binio.reader ~pos:(pos + 4) s in
    let v = Binio.r_u8 r in
    if v <> f.version then Error (Bad_record_version v)
    else
      let len = Binio.r_u32 r in
      let crc = Binio.r_u32 r in
      if len > f.max_payload then Error (Oversized len) else Ok (len, crc)

let check_crc ~crc s ~pos ~len =
  let found = Crc32.sub s ~pos ~len in
  if found <> crc then Error (Bad_crc { expected = crc; found }) else Ok ()

let decode_record f s ~pos =
  match record_header f s ~pos with
  | Error _ as e -> e
  | Ok (len, crc) ->
      let body = pos + record_header_bytes in
      if String.length s - body < len then Error Short
      else Result.map (fun () -> (body, len)) (check_crc ~crc s ~pos:body ~len)
