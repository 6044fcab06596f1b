(* Length-framed, CRC-checksummed JSON frames: {!Sp_util.Frame}
   self-framed records (see the .mli).  Every failure is a typed
   [error]; arbitrary bytes can never raise. *)

module Frame = Sp_util.Frame

let format : Frame.record =
  { magic = "SPRF"; version = 1; max_payload = 16 * 1024 * 1024 }

let max_payload = format.max_payload

type error =
  | Closed
  | Truncated of string
  | Bad_magic of string
  | Bad_version of int
  | Oversized of int
  | Bad_crc of { expected : int; found : int }
  | Bad_json of string
  | Transport of string

let error_message = function
  | Closed -> "connection closed"
  | Truncated what -> Printf.sprintf "truncated frame (%s)" what
  | Bad_magic got ->
      Printf.sprintf "bad frame magic %S (want %S)" got format.magic
  | Bad_version v ->
      Printf.sprintf "unsupported protocol version %d (want %d)" v
        format.version
  | Oversized n ->
      Printf.sprintf "oversized frame: %d bytes declared (max %d)" n
        max_payload
  | Bad_crc { expected; found } ->
      Printf.sprintf "frame checksum mismatch: stored %08x, computed %08x"
        expected found
  | Bad_json msg -> Printf.sprintf "frame payload is not valid JSON: %s" msg
  | Transport msg -> Printf.sprintf "transport error: %s" msg

let recoverable = function
  | Bad_crc _ | Bad_json _ -> true
  | Closed | Truncated _ | Bad_magic _ | Bad_version _ | Oversized _
  | Transport _ ->
      false

(* ------------------------------------------------------------------ *)
(* pure codec *)

let encode json = Frame.encode_record format (Sp_obs.Json.to_string json)

(* Every caller has the whole header in hand before it asks, so a short
   record can only be a short payload. *)
let of_frame : Frame.record_error -> error = function
  | Short -> Truncated "payload"
  | Bad_record_magic got -> Bad_magic got
  | Bad_record_version v -> Bad_version v
  | Oversized n -> Oversized n
  | Bad_crc { expected; found } -> Bad_crc { expected; found }

let parse payload =
  match Sp_obs.Json.parse payload with
  | Ok json -> Ok json
  | Error msg -> Error (Bad_json msg)

let decode_stream s ~pos =
  let remaining = String.length s - pos in
  if remaining = 0 then Error Closed
  else if remaining < Frame.record_header_bytes then Error (Truncated "header")
  else
    match Frame.decode_record format s ~pos with
    | Error e -> Error (of_frame e)
    | Ok (body, len) ->
        Result.map
          (fun json -> (json, body + len))
          (parse (String.sub s body len))

let decode s =
  match decode_stream s ~pos:0 with
  | Error e -> Error e
  | Ok (json, next) ->
      if next <> String.length s then
        Error (Truncated "trailing bytes after frame")
      else Ok json

(* ------------------------------------------------------------------ *)
(* socket I/O *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (pos + n) (len - n)
  end

let write fd json =
  let frame = encode json in
  write_all fd frame 0 (String.length frame)

(* Read exactly [n] bytes; [`Eof got] reports a short read.  Connection
   resets are surfaced as EOF so a vanished peer degrades to
   [Closed]/[Truncated] like a polite one. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> `Eof off
      | got -> go (off + got)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          `Eof off
  in
  go 0

let read fd =
  match read_exact fd Frame.record_header_bytes with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Transport (Unix.error_message e))
  | `Eof 0 -> Error Closed
  | `Eof _ -> Error (Truncated "header")
  | `Ok header -> (
      match Frame.record_header format header ~pos:0 with
      | Error e -> Error (of_frame e)
      | Ok (len, crc) -> (
          match read_exact fd len with
          | exception Unix.Unix_error (e, _, _) ->
              Error (Transport (Unix.error_message e))
          | `Eof _ -> Error (Truncated "payload")
          | `Ok payload -> (
              match Frame.check_crc ~crc payload ~pos:0 ~len with
              | Error e -> Error (of_frame e)
              | Ok () ->
                  Result.map (fun json -> (payload, json)) (parse payload))))
