(* Append-only results log.  Records are individually framed and
   checksummed (see the .mli); the writer's only mutation beyond
   appending is dropping a torn final frame left by a crash. *)

let magic = "SRRC"
let version = 1
let header_bytes = 4 + 1 + 4 + 4
let max_payload = 64 * 1024 * 1024

let m_appends = Sp_obs.Metrics.counter ~stable:false "results.appends"

let m_torn =
  Sp_obs.Metrics.counter ~stable:false "results.torn_recovered"

type tail =
  | Clean
  | Torn of { offset : int; bytes : int }
  | Corrupt of { offset : int; reason : string }

let tail_message = function
  | Clean -> None
  | Torn { offset; bytes } ->
      Some
        (Printf.sprintf
           "torn tail at offset %d (%d bytes of an unfinished record; \
            recovered on next append)"
           offset bytes)
  | Corrupt { offset; reason } ->
      Some (Printf.sprintf "corrupt record at offset %d: %s" offset reason)

(* Is [s.[pos..]] a prefix of what a valid frame could start with?  A
   torn single-write append is always such a prefix: up to 4 bytes it
   must match the magic, past that the header/payload may end early
   but every complete field must validate.  With [~parse:false] the
   payloads are only checksummed, not decoded, and no records are
   returned: enough to classify the tail before an append, since a
   payload whose CRC matches is exactly what the writer framed. *)
let scan ?(parse = true) contents =
  let len = String.length contents in
  let rec go pos acc =
    if pos = len then (List.rev acc, Clean, pos)
    else
      let remaining = len - pos in
      let torn bytes = (List.rev acc, Torn { offset = pos; bytes }, pos) in
      let corrupt reason =
        (List.rev acc, Corrupt { offset = pos; reason }, pos)
      in
      let magic_prefix_len = min remaining 4 in
      if
        String.sub contents pos magic_prefix_len
        <> String.sub magic 0 magic_prefix_len
      then corrupt "bad record magic"
      else if remaining < header_bytes then torn remaining
      else
        let r = Sp_util.Binio.reader ~pos:(pos + 4) contents in
        let v = Sp_util.Binio.r_u8 r in
        if v <> version then corrupt (Printf.sprintf "bad version %d" v)
        else
          let plen = Sp_util.Binio.r_u32 r in
          let crc = Sp_util.Binio.r_u32 r in
          if plen > max_payload then
            corrupt (Printf.sprintf "oversized record (%d bytes)" plen)
          else if remaining - header_bytes < plen then
            torn remaining
          else
            let body = pos + header_bytes in
            let found = Sp_util.Crc32.sub contents ~pos:body ~len:plen in
            let next = body + plen in
            if found <> crc then
              corrupt
                (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
                   crc found)
            else if not parse then go next acc
            else
              match Sp_obs.Json.parse (String.sub contents body plen) with
              | Error msg -> corrupt (Printf.sprintf "bad JSON: %s" msg)
              | Ok json -> go next (json :: acc)
  in
  go 0 []

let read_contents path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          Ok (really_input_string ic n))

let read_file path =
  match read_contents path with
  | Error _ when not (Sys.file_exists path) ->
      Ok ([], Clean) (* an absent store is just an empty history *)
  | Error msg -> Error msg
  | Ok contents ->
      let records, tail, _ = scan contents in
      Ok (records, tail)

let frame json =
  let payload = Sp_obs.Json.to_string json in
  let b = Buffer.create (header_bytes + String.length payload) in
  Buffer.add_string b magic;
  Sp_util.Binio.w_u8 b version;
  Sp_util.Binio.w_u32 b (String.length payload);
  Sp_util.Binio.w_u32 b (Sp_util.Crc32.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Appends from different domains of one process take turns: one
   append's torn-tail recovery must never read another's half-written
   record as a crash leftover and truncate it away. *)
let append_lock = Mutex.create ()

let append ~path json =
  Mutex.protect append_lock @@ fun () ->
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "/" then Sp_pinball.Store.mkdir_p dir;
  let recover () =
    if not (Sys.file_exists path) then Ok ()
    else
      match read_contents path with
      | Error msg -> Error msg
      | Ok contents -> (
          let _, tail, valid_end = scan ~parse:false contents in
          match tail with
          | Clean -> Ok ()
          | Corrupt { offset; reason } ->
              Error
                (Printf.sprintf
                   "refusing to append to a corrupt store (%s at offset %d)"
                   reason offset)
          | Torn { offset = _; bytes = _ } ->
              let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () -> Unix.ftruncate fd valid_end);
              Sp_obs.Metrics.incr m_torn;
              Ok ())
  in
  match recover () with
  | Error _ as e -> e
  | Ok () -> (
      match
        Unix.openfile path
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Unix.error_message e)
      | fd ->
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let s = frame json in
              (* one write: a crash can only leave a prefix (a torn
                 tail), never interleave with another record *)
              let n = Unix.write_substring fd s 0 (String.length s) in
              if n <> String.length s then
                Error "short write appending record"
              else begin
                Sp_obs.Metrics.incr m_appends;
                Ok ()
              end))

(* ------------------------------------------------------------------ *)
(* the record schema *)

let num x = Sp_obs.Json.Num x
let str s = Sp_obs.Json.Str s
let numi i = Sp_obs.Json.Num (float_of_int i)

let err_pct ~truth ~approx =
  if Float.abs truth < 1e-300 then 0.0
  else Float.abs (approx -. truth) /. truth *. 100.0

let record_of_result ~client ~time (r : Specrepro.Pipeline.bench_result) =
  let open Specrepro in
  let whole = r.Pipeline.whole in
  let warm = Pipeline.warmup_regional r in
  let reduced_warm = Pipeline.reduced_warm r in
  Sp_obs.Json.Obj
    [
      ("time", num time);
      ("client", str client);
      ("benchmark", str r.Pipeline.spec.Sp_workloads.Benchspec.name);
      ("options", Api.options_json r.Pipeline.options);
      ("whole_insns", numi r.Pipeline.whole_insns);
      ("points", numi (Array.length r.Pipeline.selection.Pipeline.points));
      ("reduced_points", numi (Pipeline.reduced_count r));
      ( "metrics",
        Sp_obs.Json.Obj
          [
            ("wall_seconds", num r.Pipeline.wall_seconds);
            ("whole_cpi", num whole.Runstats.cpi);
            ("warm_cpi", num warm.Runstats.cpi);
            ("reduced_warm_cpi", num reduced_warm.Runstats.cpi);
            ("whole_l3_miss", num whole.Runstats.l3_miss);
            ("warm_l3_miss", num warm.Runstats.l3_miss);
            ( "cpi_err_pct",
              num
                (err_pct ~truth:whole.Runstats.cpi ~approx:warm.Runstats.cpi)
            );
            ( "l3_err_pct",
              num
                (err_pct ~truth:whole.Runstats.l3_miss
                   ~approx:warm.Runstats.l3_miss) );
          ] );
      ( "diagnostics",
        Sp_obs.Json.Obj
          (List.map
             (fun (k, v) -> (k, num v))
             r.Pipeline.selection.Pipeline.diagnostics) );
      ( "stages",
        Sp_obs.Json.List
          (List.map
             (fun (t : Pipeline.stage_timing) ->
               Sp_obs.Json.Obj
                 [
                   ("stage", str t.Pipeline.stage);
                   ("seconds", num t.Pipeline.seconds);
                 ])
             r.Pipeline.report.Pipeline.stages) );
    ]

(* ------------------------------------------------------------------ *)
(* query accessors *)

let benchmark_of record =
  Option.bind (Sp_obs.Json.member "benchmark" record) Sp_obs.Json.to_str

let metric record name =
  Option.bind
    (Option.bind (Sp_obs.Json.member "metrics" record)
       (Sp_obs.Json.member name))
    Sp_obs.Json.to_float

let metric_names record =
  match Sp_obs.Json.member "metrics" record with
  | Some (Sp_obs.Json.Obj kvs) -> List.map fst kvs
  | _ -> []

let benchmarks records =
  List.rev
    (List.fold_left
       (fun acc r ->
         match benchmark_of r with
         | Some b when not (List.mem b acc) -> b :: acc
         | _ -> acc)
       [] records)

let history records ~benchmark =
  List.filter (fun r -> benchmark_of r = Some benchmark) records
