(* Append-only results log.  Records are {!Sp_util.Frame} self-framed
   records (see the .mli); the writer's only mutation beyond appending
   is dropping a torn final frame left by a crash. *)

module Frame = Sp_util.Frame

let format : Frame.record =
  { magic = "SRRC"; version = 1; max_payload = 64 * 1024 * 1024 }

let m_appends = Sp_obs.Metrics.counter ~stable:false "results.appends"

let m_torn =
  Sp_obs.Metrics.counter ~stable:false "results.torn_recovered"

let m_scanned = Sp_obs.Metrics.counter ~stable:false "results.scanned_bytes"

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

(* Walk the records.  A torn single-write append is always a prefix of
   a valid frame ([Short]); anything else that fails is corruption.
   With [~parse:false] the payloads are only checksummed, not decoded,
   and no records are returned: enough to classify the tail before an
   append, since a payload whose CRC matches is exactly what the writer
   framed. *)
let scan ?(parse = true) contents =
  let len = String.length contents in
  let rec go pos acc =
    if pos = len then (List.rev acc, Clean, pos)
    else
      let stop tail = (List.rev acc, tail, pos) in
      let corrupt reason = stop (Corrupt { offset = pos; reason }) in
      match Frame.decode_record format contents ~pos with
      | Error Short -> stop (Torn { offset = pos; bytes = len - pos })
      | Error (Bad_record_magic _) -> corrupt "bad record magic"
      | Error (Bad_record_version v) ->
          corrupt (Printf.sprintf "bad version %d" v)
      | Error (Oversized n) ->
          corrupt (Printf.sprintf "oversized record (%d bytes)" n)
      | Error (Bad_crc { expected; found }) ->
          corrupt
            (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
               expected found)
      | Ok (body, plen) -> (
          if not parse then go (body + plen) acc
          else
            match Sp_obs.Json.parse (String.sub contents body plen) with
            | Error msg -> corrupt (Printf.sprintf "bad JSON: %s" msg)
            | Ok json -> go (body + plen) (json :: acc))
  in
  go 0 []

let read_contents path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

(* Appends from different domains of one process take turns: one
   append's torn-tail recovery must never read another's half-written
   record as a crash leftover and truncate it away.  The lock also
   guards [verified]. *)
let append_lock = Mutex.create ()

(* What this process knows of each store it appended to: the file as it
   stood after the last append, every byte of which is a checked
   record.  Identity, size and both timestamps must all match for the
   file to count as unchanged. *)
type stamp = { dev : int; ino : int; size : int; mtime : float; ctime : float }

let verified : (string, stamp) Hashtbl.t = Hashtbl.create 4

let stamp_of (st : Unix.stats) =
  {
    dev = st.st_dev;
    ino = st.st_ino;
    size = st.st_size;
    mtime = st.st_mtime;
    ctime = st.st_ctime;
  }

let read_file path =
  match read_contents path with
  | Error _ when not (Sys.file_exists path) ->
      Ok ([], Clean) (* an absent store is just an empty history *)
  | Error msg -> Error msg
  | Ok contents ->
      let records, tail, _ = scan contents in
      (* damage a reader saw is damage the next append must see too,
         whatever the timestamps say *)
      if tail <> Clean then
        Mutex.protect append_lock (fun () -> Hashtbl.remove verified path);
      Ok (records, tail)

(* Before an append: make the file end on a whole record, reading as
   little of it as this process can vouch for.  A file as the last
   append left it is not read at all; one that only grew since (another
   writer's records, or a killed writer's torn tail) has just the new
   bytes scanned; anything else is scanned whole.  Returns the size of
   the checked prefix the record will follow. *)
let recover path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok 0
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | st -> (
      let now = stamp_of st in
      let from =
        match Hashtbl.find_opt verified path with
        | Some k
          when k.dev = now.dev && k.ino = now.ino
               && (k.size < now.size
                  || (k.size = now.size && k.mtime = now.mtime
                     && k.ctime = now.ctime)) ->
            k.size
        | Some _ | None -> 0
      in
      if from = now.size then Ok from
      else
        match
          In_channel.with_open_bin path (fun ic ->
              In_channel.seek ic (Int64.of_int from);
              In_channel.input_all ic)
        with
        | exception Sys_error msg -> Error msg
        | fresh -> (
            Sp_obs.Metrics.add m_scanned (String.length fresh);
            let _, tail, valid_end = scan ~parse:false fresh in
            match tail with
            | Clean -> Ok (from + valid_end)
            | Corrupt { offset; reason } ->
                Error
                  (Printf.sprintf
                     "refusing to append to a corrupt store (%s at offset %d)"
                     reason (from + offset))
            | Torn { offset = _; bytes = _ } ->
                let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
                Fun.protect
                  ~finally:(fun () -> Unix.close fd)
                  (fun () -> Unix.ftruncate fd (from + valid_end));
                Sp_obs.Metrics.incr m_torn;
                Ok (from + valid_end)))

let append ~path json =
  Mutex.protect append_lock @@ fun () ->
  Frame.mkdir_p (Filename.dirname path);
  match recover path with
  | Error _ as e ->
      Hashtbl.remove verified path;
      e
  | Ok start -> (
      match
        Unix.openfile path
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      with
      | exception Unix.Unix_error (e, _, _) ->
          Hashtbl.remove verified path;
          Error (Unix.error_message e)
      | fd ->
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let s =
                Frame.encode_record format (Sp_obs.Json.to_string json)
              in
              (* one write: a crash can only leave a prefix (a torn
                 tail), never interleave with another record *)
              let n = Unix.write_substring fd s 0 (String.length s) in
              (* the file is ours to vouch for only if the record landed
                 right after the checked prefix *)
              let st = Unix.fstat fd in
              if n = String.length s && st.st_size = start + n then
                Hashtbl.replace verified path (stamp_of st)
              else Hashtbl.remove verified path;
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
