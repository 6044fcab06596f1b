(* Tests for the serve subsystem (Sp_serve): the framed wire protocol
   (round-trips plus a fuzz suite: truncations, bit flips, oversized
   and garbage frames must yield typed errors, never exceptions), the
   bounded fair queue, the append-only results store's torn-tail
   recovery, regression gating, the v2 options codec, an in-process
   daemon exercised by concurrent clients (differentially against the
   direct pipeline), and the CLI's exit-code convention. *)

module J = Sp_obs.Json
module P = Sp_serve.Protocol
module Q = Sp_serve.Queue
module RS = Sp_serve.Results_store
module Api = Specrepro.Api
module Pipeline = Specrepro.Pipeline

let tmp_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "specrepro-test-%d-%s" (Unix.getpid ()) name)

let rm path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* protocol: round-trips *)

let sample_docs =
  [
    J.Null;
    J.Obj [];
    J.Obj [ ("a", J.Num 1.5); ("b", J.Str "x\"\n"); ("c", J.Bool true) ];
    J.List [ J.Num 0.0; J.Null; J.Obj [ ("nested", J.List [] ) ] ];
    J.Str (String.make 1000 'z');
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun doc ->
      match P.decode (P.encode doc) with
      | Ok doc' -> Alcotest.(check bool) "roundtrip" true (doc = doc')
      | Error e -> Alcotest.fail (P.error_message e))
    sample_docs

let test_protocol_stream () =
  let s = String.concat "" (List.map P.encode sample_docs) in
  let rec drain pos acc =
    if pos = String.length s then List.rev acc
    else
      match P.decode_stream s ~pos with
      | Ok (doc, next) -> drain next (doc :: acc)
      | Error e -> Alcotest.fail (P.error_message e)
  in
  Alcotest.(check bool) "stream decodes all" true (drain 0 [] = sample_docs)

(* every proper prefix of a frame is a typed error, and so is a frame
   with trailing bytes *)
let test_protocol_truncation () =
  let s = P.encode (List.nth sample_docs 2) in
  for len = 0 to String.length s - 1 do
    match P.decode (String.sub s 0 len) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix of %d accepted" len)
    | Error _ -> ()
  done;
  match P.decode (s ^ "x") with
  | Ok _ -> Alcotest.fail "trailing byte accepted"
  | Error _ -> ()

(* flipping any single byte of a valid frame must surface as a typed
   error — the checksum covers the payload, the framing validates the
   rest *)
let test_protocol_bitflip () =
  let s = P.encode (List.nth sample_docs 2) in
  for i = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    match P.decode (Bytes.to_string b) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "flip at %d accepted" i)
    | Error _ -> ()
  done

let frame_raw ?(version = 1) ?crc payload =
  let b = Buffer.create 64 in
  Buffer.add_string b "SPRF";
  Sp_util.Binio.w_u8 b version;
  Sp_util.Binio.w_u32 b (String.length payload);
  Sp_util.Binio.w_u32 b
    (match crc with Some c -> c | None -> Sp_util.Crc32.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

let test_protocol_classification () =
  (match P.decode (frame_raw "not json at all") with
  | Error (P.Bad_json _ as e) ->
      Alcotest.(check bool) "bad json recoverable" true (P.recoverable e)
  | _ -> Alcotest.fail "expected Bad_json");
  (match P.decode (frame_raw ~crc:0 "{}") with
  | Error (P.Bad_crc _ as e) ->
      Alcotest.(check bool) "bad crc recoverable" true (P.recoverable e)
  | _ -> Alcotest.fail "expected Bad_crc");
  (match P.decode (frame_raw ~version:9 "{}") with
  | Error (P.Bad_version 9 as e) ->
      Alcotest.(check bool) "bad version fatal" false (P.recoverable e)
  | _ -> Alcotest.fail "expected Bad_version");
  (match P.decode ("XRPF" ^ String.sub (frame_raw "{}") 4 9 ^ "{}") with
  | Error (P.Bad_magic _ as e) ->
      Alcotest.(check bool) "bad magic fatal" false (P.recoverable e)
  | _ -> Alcotest.fail "expected Bad_magic");
  (* oversized: a declared length past the cap is refused before any
     allocation *)
  let b = Buffer.create 16 in
  Buffer.add_string b "SPRF";
  Sp_util.Binio.w_u8 b 1;
  Sp_util.Binio.w_u32 b (P.max_payload + 1);
  Sp_util.Binio.w_u32 b 0;
  match P.decode (Buffer.contents b) with
  | Error (P.Oversized _ as e) ->
      Alcotest.(check bool) "oversized fatal" false (P.recoverable e)
  | _ -> Alcotest.fail "expected Oversized"

(* Golden-bytes pin for the wire framing: the frame of a fixed document
   is part of the protocol contract (a client and daemon from different
   builds must agree), so any legitimate change bumps the version and
   re-pins this digest. *)
let golden_doc =
  J.Obj
    [
      ("schema", J.Str "specrepro/v2");
      ("command", J.Str "submit");
      ("scale", J.Num 0.05);
      ("jobs", J.Num 2.0);
      ("only", J.List [ J.Str "657.xz_s"; J.Null; J.Bool true ]);
      ("ratio", J.Num (1.0 /. 3.0));
    ]

let test_protocol_golden_bytes () =
  Alcotest.(check string) "frame bytes" "82e613f8bfc27a324d79d9d04e2476a8"
    (Digest.to_hex (Digest.string (P.encode golden_doc)))

let prop_protocol_never_raises =
  QCheck.Test.make ~name:"protocol decode never raises on arbitrary bytes"
    ~count:500
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      match P.decode s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* queue: fairness, bounds, close *)

let test_queue_round_robin () =
  let q = Q.create ~capacity:16 in
  List.iter
    (fun (client, x) ->
      Alcotest.(check bool) "pushed" true (Q.push q ~client x = Q.Pushed))
    [ ("a", "a1"); ("a", "a2"); ("a", "a3"); ("b", "b1"); ("c", "c1") ];
  let popped = List.init 5 (fun _ -> Option.get (Q.try_pop q)) in
  (* one job per client per turn: a's flood cannot starve b and c *)
  Alcotest.(check (list string))
    "fair order"
    [ "a1"; "b1"; "c1"; "a2"; "a3" ]
    popped;
  Alcotest.(check bool) "drained" true (Q.try_pop q = None)

let test_queue_capacity () =
  let q = Q.create ~capacity:2 in
  Alcotest.(check bool) "p1" true (Q.push q ~client:"a" 1 = Q.Pushed);
  Alcotest.(check bool) "p2" true (Q.push q ~client:"b" 2 = Q.Pushed);
  Alcotest.(check bool) "full" true (Q.push q ~client:"c" 3 = Q.Full);
  ignore (Q.try_pop q);
  Alcotest.(check bool) "room again" true (Q.push q ~client:"c" 3 = Q.Pushed);
  Alcotest.(check bool) "bad capacity" true
    (match Q.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_queue_close () =
  let q = Q.create ~capacity:4 in
  ignore (Q.push q ~client:"a" 1);
  ignore (Q.push q ~client:"b" 2);
  Q.close q;
  Alcotest.(check bool) "push refused" true (Q.push q ~client:"a" 3 = Q.Closed_);
  (* queued jobs drain out, then pop yields None forever *)
  Alcotest.(check bool) "drain 1" true (Q.pop q = Some 1);
  Alcotest.(check bool) "drain 2" true (Q.pop q = Some 2);
  Alcotest.(check bool) "then none" true (Q.pop q = None);
  Alcotest.(check bool) "still none" true (Q.pop q = None)

let test_queue_blocking_pop () =
  let q = Q.create ~capacity:4 in
  let result = ref None in
  let th = Thread.create (fun () -> result := Q.pop q) () in
  Thread.delay 0.05;
  ignore (Q.push q ~client:"a" 42);
  Thread.join th;
  Alcotest.(check bool) "blocked pop woke" true (!result = Some 42)

(* ------------------------------------------------------------------ *)
(* results store *)

let synth_record ?(client = "t") ?(time = 0.0) bench v =
  J.Obj
    [
      ("time", J.Num time);
      ("client", J.Str client);
      ("benchmark", J.Str bench);
      ("metrics", J.Obj [ ("cpi_err_pct", J.Num v) ]);
    ]

let append_ok path record =
  match RS.append ~path record with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_store_roundtrip () =
  let path = tmp_path "store-roundtrip.bin" in
  rm path;
  (match RS.read_file path with
  | Ok ([], RS.Clean) -> ()
  | _ -> Alcotest.fail "missing store should read as empty");
  let r1 = synth_record "505.mcf_r" 1.0 in
  let r2 = synth_record "557.xz_r" 2.0 in
  let r3 = synth_record "505.mcf_r" 3.0 in
  List.iter (append_ok path) [ r1; r2; r3 ];
  (match RS.read_file path with
  | Ok (records, RS.Clean) ->
      Alcotest.(check bool) "records back" true (records = [ r1; r2; r3 ]);
      Alcotest.(check (list string))
        "benchmarks in first-appearance order"
        [ "505.mcf_r"; "557.xz_r" ]
        (RS.benchmarks records);
      Alcotest.(check bool) "history filters" true
        (RS.history records ~benchmark:"505.mcf_r" = [ r1; r3 ]);
      Alcotest.(check bool) "metric lookup" true
        (RS.metric r2 "cpi_err_pct" = Some 2.0);
      Alcotest.(check bool) "missing metric" true (RS.metric r2 "nope" = None)
  | Ok (_, t) ->
      Alcotest.fail
        (Option.value (RS.tail_message t) ~default:"unexpected tail")
  | Error e -> Alcotest.fail e);
  rm path

(* a crash can only leave a prefix of the final record; every such
   prefix must classify as Torn, and the next append must recover *)
let test_store_torn_tail () =
  let r1 = synth_record "505.mcf_r" 1.0 in
  let r2 = synth_record "557.xz_r" 2.0 in
  let r3 = synth_record "505.mcf_r" 3.0 in
  let path = tmp_path "store-torn.bin" in
  rm path;
  append_ok path r1;
  let intact = (Unix.stat path).Unix.st_size in
  append_ok path r2;
  let full = (Unix.stat path).Unix.st_size in
  for keep = intact + 1 to full - 1 do
    (* re-create the torn state at every possible crash point *)
    rm path;
    append_ok path r1;
    append_ok path r2;
    Unix.truncate path keep;
    (match RS.read_file path with
    | Ok ([ r ], RS.Torn { offset; bytes }) ->
        Alcotest.(check bool) "valid prefix intact" true (r = r1);
        Alcotest.(check int) "torn offset" intact offset;
        Alcotest.(check int) "torn bytes" (keep - intact) bytes
    | Ok (_, t) ->
        Alcotest.fail
          (Printf.sprintf "keep=%d: %s" keep
             (Option.value (RS.tail_message t) ~default:"clean?!"))
    | Error e -> Alcotest.fail e);
    (* appending truncates the torn bytes away, then writes *)
    append_ok path r3;
    match RS.read_file path with
    | Ok (records, RS.Clean) ->
        Alcotest.(check bool)
          (Printf.sprintf "recovered at keep=%d" keep)
          true
          (records = [ r1; r3 ])
    | _ -> Alcotest.fail "append did not recover torn tail"
  done;
  rm path

let test_store_corrupt () =
  let path = tmp_path "store-corrupt.bin" in
  rm path;
  append_ok path (synth_record "505.mcf_r" 1.0);
  append_ok path (synth_record "557.xz_r" 2.0);
  (* flip one payload byte mid-file: a complete frame with a wrong
     checksum is bit rot, not a crash — truncation must NOT repair it *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  (match RS.read_file path with
  | Ok ([], RS.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected Corrupt with no reachable records");
  (match RS.append ~path (synth_record "505.mcf_r" 3.0) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "append must refuse a corrupt store");
  rm path

(* the same pin for the results log: the file after appending a fixed
   record to an empty store *)
let test_store_golden_bytes () =
  let path = tmp_path "store-golden.bin" in
  rm path;
  append_ok path (synth_record ~client:"golden" ~time:1700000000.25 "505.mcf_r" 12.5);
  Alcotest.(check string) "results file bytes" "697772ac0ac9a1d2ec7635b283baf0f0"
    (Digest.to_hex (Digest.file path));
  rm path

let counter name =
  Option.value ~default:0.0
    (Sp_obs.Metrics.counter_value (Sp_obs.Metrics.snapshot ()) name)

(* daemon jobs finish on different domains: their appends must not
   mistake each other's half-written record for a torn tail.  Records
   span two pages, so an unserialised write is visibly partial to a
   concurrent reader for a while. *)
let test_store_concurrent_appends () =
  let path = tmp_path "store-concurrent.bin" in
  rm path;
  let appends_before = counter "results.appends" in
  let pad = J.Str (String.make 6000 'p') in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 50 do
              match
                synth_record ~client:(string_of_int d) "505.mcf_r"
                  (float_of_int i)
              with
              | J.Obj kvs -> append_ok path (J.Obj (("pad", pad) :: kvs))
              | _ -> assert false
            done))
  in
  Array.iter Domain.join domains;
  (match RS.read_file path with
  | Ok (records, RS.Clean) ->
      Alcotest.(check int) "every record kept" 200 (List.length records)
  | Ok (_, t) ->
      Alcotest.fail (Option.value (RS.tail_message t) ~default:"unexpected tail")
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 0.0)) "results.appends" 200.0
    (counter "results.appends" -. appends_before);
  rm path

(* an append reads only what this process cannot vouch for: nothing in
   steady state, just the new bytes when the file grew behind its back.
   A killed writer's torn tail written from outside between two appends
   is still found and truncated away, and another writer's whole record
   is kept *)
let test_store_append_scans_new_bytes () =
  let path = tmp_path "store-incremental.bin" in
  let src = tmp_path "store-incremental-src.bin" in
  rm path;
  let r i = synth_record "505.mcf_r" (float_of_int i) in
  (* the exact bytes [append] writes for a record, from a scratch store *)
  let frame_of record =
    rm src;
    append_ok src record;
    let bytes = In_channel.with_open_bin src In_channel.input_all in
    rm src;
    bytes
  in
  let write_outside bytes =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
    ignore (Unix.write_substring fd bytes 0 (String.length bytes));
    Unix.close fd
  in
  append_ok path (r 1);
  let scanned = counter "results.scanned_bytes" in
  List.iter (fun i -> append_ok path (r i)) [ 2; 3; 4 ];
  Alcotest.(check (float 0.0)) "steady-state appends scan nothing" 0.0
    (counter "results.scanned_bytes" -. scanned);
  let whole = frame_of (r 5) in
  write_outside whole;
  let scanned = counter "results.scanned_bytes" in
  append_ok path (r 6);
  Alcotest.(check (float 0.0)) "a grown file has its new bytes scanned"
    (float_of_int (String.length whole))
    (counter "results.scanned_bytes" -. scanned);
  let torn = String.sub (frame_of (r 7)) 0 (String.length whole - 3) in
  write_outside torn;
  let scanned = counter "results.scanned_bytes" in
  let recovered = counter "results.torn_recovered" in
  append_ok path (r 8);
  Alcotest.(check (float 0.0)) "results.torn_recovered" 1.0
    (counter "results.torn_recovered" -. recovered);
  Alcotest.(check (float 0.0)) "only the torn bytes scanned"
    (float_of_int (String.length torn))
    (counter "results.scanned_bytes" -. scanned);
  (match RS.read_file path with
  | Ok (records, RS.Clean) ->
      Alcotest.(check bool) "records kept, torn tail dropped" true
        (records = List.map r [ 1; 2; 3; 4; 5; 6; 8 ])
  | Ok (_, t) ->
      Alcotest.fail (Option.value (RS.tail_message t) ~default:"unexpected tail")
  | Error e -> Alcotest.fail e);
  rm path

(* ------------------------------------------------------------------ *)
(* regression gating *)

let test_regress () =
  let records =
    [
      synth_record "505.mcf_r" 1.0;
      synth_record "557.xz_r" 50.0;
      synth_record "505.mcf_r" 2.0;
      synth_record "505.mcf_r" 6.0;
    ]
  in
  (match
     Sp_serve.Regress.evaluate ~records ~benchmark:"999.none"
       ~metric:"cpi_err_pct" ~gate:1.25
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no stored runs must be an error");
  (match
     Sp_serve.Regress.evaluate ~records ~benchmark:"557.xz_r"
       ~metric:"cpi_err_pct" ~gate:1.25
   with
  | Ok None -> ()
  | _ -> Alcotest.fail "single run has no baseline");
  (match
     Sp_serve.Regress.evaluate ~records ~benchmark:"505.mcf_r"
       ~metric:"cpi_err_pct" ~gate:1.25
   with
  | Ok (Some v) ->
      Alcotest.(check int) "runs" 3 v.Sp_serve.Regress.runs;
      Alcotest.(check (float 1e-9)) "latest" 6.0 v.Sp_serve.Regress.latest;
      (* baseline is the mean of the priors: (1 + 2) / 2 *)
      Alcotest.(check (float 1e-9)) "baseline" 1.5 v.Sp_serve.Regress.baseline;
      Alcotest.(check (float 1e-9)) "ratio" 4.0 v.Sp_serve.Regress.ratio;
      Alcotest.(check bool) "regressed" true v.Sp_serve.Regress.regressed
  | _ -> Alcotest.fail "expected a verdict");
  (match
     Sp_serve.Regress.evaluate ~records ~benchmark:"505.mcf_r"
       ~metric:"cpi_err_pct" ~gate:5.0
   with
  | Ok (Some v) ->
      Alcotest.(check bool) "within wide gate" false
        v.Sp_serve.Regress.regressed
  | _ -> Alcotest.fail "expected a verdict");
  match
    Sp_serve.Regress.evaluate ~records ~benchmark:"505.mcf_r" ~metric:"nope"
      ~gate:1.25
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing metric must be an error"

(* ------------------------------------------------------------------ *)
(* the v2 options codec *)

let test_api_options_roundtrip () =
  let o =
    Pipeline.normalize
      {
        Pipeline.default_options with
        Pipeline.slices_scale = 0.03;
        jobs = 4;
        sampler = Sp_simpoint.Sampler.Systematic;
        warmup_insns = 70000;
      }
  in
  let rendered = Api.options_json ~benchmark:"505.mcf_r" o in
  match Api.options_of_json rendered with
  | Error e -> Alcotest.fail e
  | Ok (bench, o') ->
      Alcotest.(check (option string)) "benchmark" (Some "505.mcf_r") bench;
      Alcotest.(check string) "re-render is byte-identical"
        (J.to_string rendered)
        (J.to_string (Api.options_json ~benchmark:"505.mcf_r" o'))

let test_api_options_strict () =
  let bad =
    [
      J.Obj [ ("bogus", J.Num 1.0) ];
      J.Obj [ ("scale", J.Str "fast") ];
      J.Obj [ ("scale", J.Num (-1.0)) ];
      J.Obj [ ("jobs", J.Num 1.5) ];
      J.Obj [ ("sampler", J.Str "nonesuch") ];
      J.Str "not an object";
    ]
  in
  List.iter
    (fun json ->
      match Api.options_of_json json with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.fail
            (Printf.sprintf "accepted bad options %s" (J.to_string json)))
    bad

let test_api_envelope_shape () =
  let s =
    J.to_string
      (Api.envelope ~command:"x" ~options:Api.no_options
         ~result:(J.Obj []))
  in
  Alcotest.(check string) "canonical field order"
    {|{"schema":"specrepro/v2","command":"x","options":{},"result":{}}|} s;
  let e = J.to_string (Api.error_envelope ~code:"c" ~message:"m") in
  Alcotest.(check string) "error envelope"
    {|{"schema":"specrepro/v2","command":"error","options":{},"result":{"code":"c","message":"m"}}|}
    e

(* ------------------------------------------------------------------ *)
(* the daemon, in-process *)

let test_options scale jobs =
  Pipeline.normalize
    {
      Pipeline.default_options with
      Pipeline.slices_scale = scale;
      jobs;
      progress = false;
    }

let start_server ?(parallel = 2) ?(queue_capacity = 16) ?(job_timeout = 0.0)
    ?results_path ~name options =
  let socket_path = tmp_path (name ^ ".sock") in
  rm socket_path;
  ( Sp_serve.Server.start
      {
        Sp_serve.Server.socket_path;
        results_path;
        queue_capacity;
        parallel;
        job_timeout;
        base_options = options;
        quiet = true;
      },
    socket_path )

(* a bare socket, for tests that need to misbehave at the byte level
   (send garbage, or vanish without reading a reply) *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

(* strip the fields that legitimately vary run to run (timings and the
   metrics snapshot); everything else must match bit for bit *)
let rec normalize = function
  | J.Obj kvs ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "wall_seconds" | "seconds" -> (k, J.Num 0.0)
             | "metrics" -> (k, J.List [])
             | _ -> (k, normalize v))
           kvs)
  | J.List vs -> J.List (List.map normalize vs)
  | v -> v

let norm_string json = J.to_string (normalize json)

let request_ok client req =
  match Sp_serve.Client.request client req with
  | Ok (raw, reply) -> (raw, reply)
  | Error e -> Alcotest.fail e

let reply_command reply =
  Option.bind (J.member "command" reply) J.to_str

let error_code reply =
  Option.bind
    (Option.bind (J.member "result" reply) (J.member "code"))
    J.to_str

(* three concurrent clients, each at a different job width, against
   direct pipeline runs: after timing normalisation the daemon replies
   must be byte-identical to `run --json` output for the same options *)
let test_daemon_differential () =
  let bench = "557.xz_r" in
  let spec = Sp_workloads.Suite.find bench in
  let expected jobs =
    let options = test_options 0.02 jobs in
    norm_string (Api.run_envelope (Pipeline.run_benchmark ~options spec))
  in
  let expect1 = expected 1 and expect4 = expected 4 in
  let server, socket = start_server ~name:"diff" (test_options 0.02 1) in
  let replies = Array.make 3 "" in
  let threads =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            let jobs = if i = 2 then 4 else 1 in
            match Sp_serve.Client.connect socket with
            | Error e -> replies.(i) <- "connect error: " ^ e
            | Ok client ->
                Fun.protect
                  ~finally:(fun () -> Sp_serve.Client.close client)
                  (fun () ->
                    match
                      Sp_serve.Client.request client
                        (Sp_serve.Client.submit ~benchmark:bench
                           (test_options 0.02 jobs))
                    with
                    | Ok (_, reply) -> replies.(i) <- norm_string reply
                    | Error e -> replies.(i) <- "request error: " ^ e))
          ())
  in
  List.iter Thread.join threads;
  Sp_serve.Server.stop server;
  Alcotest.(check string) "client 0 (jobs 1)" expect1 replies.(0);
  Alcotest.(check string) "client 1 (jobs 1)" expect1 replies.(1);
  Alcotest.(check string) "client 2 (jobs 4)" expect4 replies.(2)

let test_daemon_protocol_faults () =
  let server, socket = start_server ~name:"faults" (test_options 0.02 1) in
  Fun.protect
    ~finally:(fun () -> Sp_serve.Server.stop server)
    (fun () ->
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let write_raw s =
            ignore (Unix.write_substring fd s 0 (String.length s))
          in
          (* a corrupt checksum gets a typed error reply and the
             connection survives *)
          write_raw (frame_raw ~crc:0 "{}");
          (match P.read fd with
          | Ok (_, reply) ->
              Alcotest.(check (option string))
                "bad frame reported" (Some "error") (reply_command reply);
              Alcotest.(check (option string))
                "bad-frame code" (Some "bad-frame") (error_code reply)
          | Error e -> Alcotest.fail (P.error_message e));
          P.write fd Sp_serve.Client.status;
          (match P.read fd with
          | Ok (_, reply) ->
              Alcotest.(check (option string))
                "connection survives" (Some "status") (reply_command reply)
          | Error e -> Alcotest.fail (P.error_message e));
          (* an unframed byte stream is answered then dropped — that
             connection only *)
          write_raw (String.make 32 'X');
          (match P.read fd with
          | Ok (_, reply) ->
              Alcotest.(check (option string))
                "garbage reported" (Some "error") (reply_command reply)
          | Error e -> Alcotest.fail (P.error_message e));
          match P.read fd with
          | Error P.Closed -> ()
          | Ok _ -> Alcotest.fail "connection should be dropped"
          | Error _ -> ());
      (* other clients are unaffected *)
      match Sp_serve.Client.connect socket with
      | Error e -> Alcotest.fail e
      | Ok client ->
          Fun.protect
            ~finally:(fun () -> Sp_serve.Client.close client)
            (fun () ->
              let _, reply = request_ok client Sp_serve.Client.status in
              Alcotest.(check (option string))
                "daemon still serving" (Some "status") (reply_command reply)))

let test_daemon_bad_requests () =
  let server, socket = start_server ~name:"badreq" (test_options 0.02 1) in
  Fun.protect
    ~finally:(fun () -> Sp_serve.Server.stop server)
    (fun () ->
      match Sp_serve.Client.connect socket with
      | Error e -> Alcotest.fail e
      | Ok client ->
          Fun.protect
            ~finally:(fun () -> Sp_serve.Client.close client)
            (fun () ->
              let check_err name req =
                let _, reply = request_ok client req in
                Alcotest.(check (option string))
                  name (Some "error") (reply_command reply);
                Alcotest.(check (option string))
                  (name ^ " code") (Some "bad-request") (error_code reply)
              in
              check_err "wrong schema"
                (J.Obj
                   [
                     ("schema", J.Str "specrepro/v1");
                     ("command", J.Str "status");
                   ]);
              check_err "unknown command"
                (J.Obj
                   [ ("schema", J.Str Api.schema); ("command", J.Str "dance") ]);
              check_err "unknown benchmark"
                (J.Obj
                   [
                     ("schema", J.Str Api.schema);
                     ("command", J.Str "submit");
                     ("options", J.Obj [ ("benchmark", J.Str "999.none") ]);
                   ]);
              check_err "missing benchmark"
                (J.Obj
                   [
                     ("schema", J.Str Api.schema);
                     ("command", J.Str "submit");
                     ("options", J.Obj []);
                   ]);
              check_err "unknown option field"
                (J.Obj
                   [
                     ("schema", J.Str Api.schema);
                     ("command", J.Str "submit");
                     ( "options",
                       J.Obj
                         [
                           ("benchmark", J.Str "557.xz_r");
                           ("profile_cache", J.Str "/tmp/x");
                         ] );
                   ])))

(* parallel=1 serialises jobs, so the second of two submissions waits
   out the first's full runtime and must exceed a 0.05s deadline.  The
   first job carries the margin: 505.mcf_r at scale 0.2 takes about
   0.3s on a 2-vCPU host, 6x the deadline, so the test holds until the
   pipeline gets several times faster again.  557.xz_r at scale 0.02
   takes about 0.05s, the deadline itself, so it cannot be the first. *)
let test_daemon_timeout () =
  let server, socket =
    start_server ~name:"timeout" ~parallel:1 ~job_timeout:0.05
      (test_options 0.02 1)
  in
  Fun.protect
    ~finally:(fun () -> Sp_serve.Server.stop server)
    (fun () ->
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let long =
            Sp_serve.Client.submit ~benchmark:"505.mcf_r" (test_options 0.2 1)
          in
          let short =
            Sp_serve.Client.submit ~benchmark:"557.xz_r" (test_options 0.02 1)
          in
          (* fire both before reading either reply, so the second is
             queued for the first's whole runtime *)
          P.write fd long;
          P.write fd short;
          match (P.read fd, P.read fd) with
          | Ok (_, rep1), Ok (_, rep2) ->
              Alcotest.(check (option string))
                "first completes" (Some "run") (reply_command rep1);
              Alcotest.(check (option string))
                "second reported" (Some "error") (reply_command rep2);
              Alcotest.(check (option string))
                "timeout code" (Some "timeout") (error_code rep2)
          | Error e, _ | _, Error e -> Alcotest.fail (P.error_message e)))

let test_daemon_disconnect_mid_job () =
  let results_path = tmp_path "disconnect-results.bin" in
  rm results_path;
  let server, socket =
    start_server ~name:"disco" ~results_path (test_options 0.02 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Sp_serve.Server.stop server;
      rm results_path)
    (fun () ->
      (* client A submits and vanishes without reading its reply *)
      let a = raw_connect socket in
      P.write a
        (Sp_serve.Client.submit ~benchmark:"557.xz_r" (test_options 0.02 1));
      Unix.close a;
      (* the daemon must survive and keep serving client B *)
      match Sp_serve.Client.connect socket with
      | Error e -> Alcotest.fail e
      | Ok b ->
          Fun.protect
            ~finally:(fun () -> Sp_serve.Client.close b)
            (fun () ->
              let _, reply =
                request_ok b
                  (Sp_serve.Client.submit ~benchmark:"557.xz_r"
                     (test_options 0.02 1))
              in
              Alcotest.(check (option string))
                "B still served" (Some "run") (reply_command reply)))

let test_daemon_drain_on_shutdown () =
  let results_path = tmp_path "drain-results.bin" in
  rm results_path;
  let server, socket =
    start_server ~name:"drain" ~parallel:1 ~results_path
      (test_options 0.02 1)
  in
  let fd = raw_connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let submit =
        Sp_serve.Client.submit ~benchmark:"557.xz_r" (test_options 0.02 1)
      in
      (* two jobs in the pipe, then ask the daemon to drain — but only
         once status shows both were accepted (the submits and the
         shutdown travel on different connections, so ordering must be
         established, not assumed) *)
      P.write fd submit;
      P.write fd submit;
      let accepted () =
        match Sp_serve.Client.connect socket with
        | Error e -> Alcotest.fail e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Sp_serve.Client.close c)
              (fun () ->
                let _, reply = request_ok c Sp_serve.Client.status in
                let field name =
                  match
                    Option.bind
                      (Option.bind (J.member "result" reply) (J.member name))
                      J.to_float
                  with
                  | Some v -> int_of_float v
                  | None -> Alcotest.fail ("status lacks " ^ name)
                in
                field "queue_depth" + field "jobs_inflight"
                + field "completed")
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while accepted () < 2 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "both jobs accepted" true (accepted () >= 2);
      let _, shutdown_reply =
        match Sp_serve.Client.connect socket with
        | Error e -> Alcotest.fail e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Sp_serve.Client.close c)
              (fun () -> request_ok c Sp_serve.Client.shutdown)
      in
      Alcotest.(check (option string))
        "shutdown acknowledged" (Some "shutdown")
        (reply_command shutdown_reply);
      (* both in-flight jobs are still answered *)
      match (P.read fd, P.read fd) with
      | Ok (_, r1), Ok (_, r2) ->
          Alcotest.(check (option string))
            "job 1 drained" (Some "run") (reply_command r1);
          Alcotest.(check (option string))
            "job 2 drained" (Some "run") (reply_command r2)
      | Error e, _ | _, Error e -> Alcotest.fail (P.error_message e));
  Sp_serve.Server.wait server;
  (* and both landed in the results store *)
  (match RS.read_file results_path with
  | Ok (records, RS.Clean) ->
      Alcotest.(check int) "both recorded" 2 (List.length records)
  | _ -> Alcotest.fail "results store damaged");
  rm results_path

let status_field client name =
  let _, reply = request_ok client Sp_serve.Client.status in
  match
    Option.bind (Option.bind (J.member "result" reply) (J.member name)) J.to_float
  with
  | Some v -> int_of_float v
  | None -> Alcotest.fail ("status lacks " ^ name)

(* continuous dispatch: with a slow job running in one slot, a quick
   job submitted on another connection is answered from the other slot
   before the slow one finishes *)
let test_daemon_fast_passes_slow () =
  let server, socket =
    start_server ~name:"fastslow" ~parallel:2 (test_options 0.02 1)
  in
  Fun.protect
    ~finally:(fun () -> Sp_serve.Server.stop server)
    (fun () ->
      let slow = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close slow with Unix.Unix_error _ -> ())
        (fun () ->
          P.write slow
            (Sp_serve.Client.submit ~benchmark:"557.xz_r" (test_options 0.5 1));
          match Sp_serve.Client.connect socket with
          | Error e -> Alcotest.fail e
          | Ok fast ->
              Fun.protect
                ~finally:(fun () -> Sp_serve.Client.close fast)
                (fun () ->
                  let deadline = Unix.gettimeofday () +. 10.0 in
                  while
                    status_field fast "jobs_inflight" < 1
                    && Unix.gettimeofday () < deadline
                  do
                    Thread.delay 0.005
                  done;
                  let _, reply =
                    request_ok fast
                      (Sp_serve.Client.submit ~benchmark:"620.omnetpp_s"
                         (test_options 0.02 1))
                  in
                  Alcotest.(check (option string))
                    "fast job answered" (Some "run") (reply_command reply);
                  (* a host with one recommended domain has one worker,
                     so the two slots cannot run side by side there *)
                  if Domain.recommended_domain_count () >= 2 then begin
                    let slow_ready, _, _ = Unix.select [ slow ] [] [] 0.0 in
                    Alcotest.(check bool)
                      "slow job still running" true (slow_ready = [])
                  end;
                  match P.read slow with
                  | Ok (_, r) ->
                      Alcotest.(check (option string))
                        "slow job answered" (Some "run") (reply_command r)
                  | Error e -> Alcotest.fail (P.error_message e))))

let reply_counter reply name =
  match J.member "metrics" (Option.get (J.member "result" reply)) with
  | Some (J.List samples) -> (
      match
        List.find_opt
          (fun m -> Option.bind (J.member "name" m) J.to_str = Some name)
          samples
      with
      | Some m -> Option.bind (J.member "value" m) J.to_float
      | None -> None)
  | _ -> None

(* the pool's workers outlive every job: 8 submits at --jobs 2 spawn at
   most the daemon's 2 workers, not fresh domains per parallel step *)
let test_daemon_spawn_bound () =
  let before = counter "pool.domains_spawned" in
  let server, socket =
    start_server ~name:"spawns" ~parallel:2 (test_options 0.02 2)
  in
  Fun.protect
    ~finally:(fun () -> Sp_serve.Server.stop server)
    (fun () ->
      match Sp_serve.Client.connect socket with
      | Error e -> Alcotest.fail e
      | Ok client ->
          Fun.protect
            ~finally:(fun () -> Sp_serve.Client.close client)
            (fun () ->
              let last = ref J.Null in
              for _ = 1 to 8 do
                let _, reply =
                  request_ok client
                    (Sp_serve.Client.submit ~benchmark:"620.omnetpp_s"
                       (test_options 0.02 2))
                in
                Alcotest.(check (option string))
                  "job answered" (Some "run") (reply_command reply);
                last := reply
              done;
              match reply_counter !last "pool.domains_spawned" with
              | None -> Alcotest.fail "reply metrics lack pool.domains_spawned"
              | Some v ->
                  Alcotest.(check bool)
                    (Printf.sprintf "spawned %.0f domains (at most 2)"
                       (v -. before))
                    true
                    (v -. before <= 2.0)))

(* ------------------------------------------------------------------ *)
(* the CLI exit-code convention, pinned end to end

   The executables are siblings of the test binary inside _build
   (declared as test deps in dune); resolve them relative to this
   binary so the pins work regardless of the invoking directory. *)

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)
let cli = Filename.concat build_root "bin/specrepro_cli.exe"
let bench_exe = Filename.concat build_root "bench/main.exe"

let run_cmd cmd = Sys.command (cmd ^ " >/dev/null 2>&1")

(* a shell command's exit code, stdout and stderr, through pipes *)
let run_capture cmd =
  let out, inp, err = Unix.open_process_full cmd (Unix.environment ()) in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED code -> (code, stdout, stderr)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, stdout, stderr)

let rm_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> rm (Filename.concat dir f)) (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let flip_byte path off =
  let b =
    Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let test_cli_exit_codes () =
  let store = tmp_path "cli-store.bin" in
  let qstore = Filename.quote store in
  rm store;
  append_ok store (synth_record "505.mcf_r" 1.0);
  append_ok store (synth_record "505.mcf_r" 10.0);
  let single = tmp_path "cli-single.bin" in
  let qsingle = Filename.quote single in
  rm single;
  append_ok single (synth_record "505.mcf_r" 1.0);
  let garbage = tmp_path "cli-garbage" in
  let oc = open_out garbage in
  output_string oc "not a trace";
  close_out oc;
  let pbdir = tmp_path "cli-pbdir" in
  (try Unix.mkdir pbdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat pbdir "bad.pb") in
  output_string oc "junk";
  close_out oc;
  (* a cache directory holding only a corrupt profile entry *)
  let profdir = tmp_path "cli-profdir" in
  (try Unix.mkdir profdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat profdir "bad.prof") in
  output_string oc "junk";
  close_out oc;
  let checks =
    [
      (* 0: success *)
      (0, cli ^ " list --json");
      (0, Printf.sprintf "%s query --results %s" cli qstore);
      (0, Printf.sprintf "%s bench-regress 505.mcf_r --results %s --gate 100"
           cli qstore);
      (0, Printf.sprintf "%s bench-regress 505.mcf_r --results %s" cli qsingle);
      (0, cli ^ " experiment table1");
      (* 1: bad input or corrupt artifact *)
      (1, cli ^ " run 999.none --json");
      (1, cli ^ " experiment nonesuch");
      (1, Printf.sprintf "%s report %s" cli (Filename.quote garbage));
      (1, Printf.sprintf "%s pinballs verify %s" cli (Filename.quote pbdir));
      (1, Printf.sprintf "%s pinballs verify %s" cli (Filename.quote profdir));
      (1, Printf.sprintf "%s query --results %s" cli
           (Filename.quote (tmp_path "cli-none.bin")));
      (1, Printf.sprintf "%s bench-regress 505.mcf_r --results %s" cli
           (Filename.quote (tmp_path "cli-none.bin")));
      (1, Printf.sprintf "%s submit 557.xz_r --socket %s" cli
           (Filename.quote (tmp_path "cli-no-daemon.sock")));
      (* an output that cannot be written: one line and exit 1, not an
         uncaught exception *)
      (1, cli ^ " experiment table1 --csv /dev/null/x");
      (1, cli ^ " profile 557.xz_r --scale 0.05 --quiet --trace-out /dev/null/t.json");
      (* bench/main.exe runs only the micros: any other argument is
         bad input *)
      (1, bench_exe ^ " nonesuch-experiment");
      (1, bench_exe ^ " --gate malformed");
      (1, bench_exe ^ " --gate-all nope");
      (* 2: a gate failed — the synthetically regressed stored run *)
      (2, Printf.sprintf "%s bench-regress 505.mcf_r --results %s" cli qstore);
    ]
  in
  let check (expected, cmd) = Alcotest.(check int) cmd expected (run_cmd cmd) in
  List.iter check checks;
  (* a real cache directory with a byte-flipped profile entry: verify
     fails, gc sweeps the entry, verify then passes, and no index file
     is ever written beside the entries *)
  let cachedir = tmp_path "cli-cachedir" in
  let qcache = Filename.quote cachedir in
  rm_dir cachedir;
  check
    ( 0,
      Printf.sprintf "%s run 657.xz_s --scale 0.05 --quiet --profile-cache %s"
        cli qcache );
  (match
     List.filter
       (fun f -> Filename.check_suffix f ".prof")
       (Array.to_list (Sys.readdir cachedir))
   with
  | [ prof ] -> flip_byte (Filename.concat cachedir prof) 200
  | l -> Alcotest.failf "expected one .prof entry, found %d" (List.length l));
  List.iter check
    [
      (1, Printf.sprintf "%s pinballs verify %s" cli qcache);
      (0, Printf.sprintf "%s pinballs gc %s" cli qcache);
      (0, Printf.sprintf "%s pinballs verify %s" cli qcache);
    ];
  Alcotest.(check bool) "no MANIFEST.tsv" false
    (Sys.file_exists (Filename.concat cachedir "MANIFEST.tsv"));
  rm_dir cachedir;
  rm store;
  rm single;
  rm garbage;
  rm (Filename.concat pbdir "bad.pb");
  (try Unix.rmdir pbdir with Unix.Unix_error _ -> ());
  rm (Filename.concat profdir "bad.prof");
  (try Unix.rmdir profdir with Unix.Unix_error _ -> ())

(* The cache simulation's counters do not depend on the worker count.
   [suite --json] at [--jobs 1] and [--jobs 4] must report the same
   stable [vm.instructions] and [cache.*] metric entries, with a cold
   profile cache per run and the in-memory decoded-artifact cache live
   (the segment cache path, with snapshot restore and store), and with
   no cache (the compiled tier alone).  Each run has two benchmarks, so
   that at [--jobs 4] a helper domain can take one of them and its
   counters reach the report only through that domain's metrics
   shard; with one benchmark, every counter is recorded on the calling
   domain. *)
let test_cli_suite_jobs_invariance () =
  let stable_cache_metrics cmd =
    match run_capture cmd with
    | 0, out, _ -> (
        match J.parse out with
        | Error e -> Alcotest.failf "%s: bad JSON (%s)" cmd e
        | Ok doc ->
            let metrics =
              Option.bind (J.member "result" doc) (J.member "metrics")
              |> Fun.flip Option.bind J.to_list
              |> Option.value ~default:[]
            in
            List.filter
              (fun m ->
                J.member "stable" m = Some (J.Bool true)
                &&
                match Option.bind (J.member "name" m) J.to_str with
                | Some n ->
                    n = "vm.instructions"
                    || String.length n > 6 && String.sub n 0 6 = "cache."
                | None -> false)
              metrics
            |> List.map J.to_string)
    | code, _, err -> Alcotest.failf "%s: exit %d (%s)" cmd code err
  in
  List.iter
    (fun (what, cached) ->
      let run jobs =
        let dir = tmp_path (Printf.sprintf "jobs-inv-%s-%d" what jobs) in
        rm_dir dir;
        let cache =
          if cached then
            Printf.sprintf " --profile-cache %s --mem-cache-mb 64"
              (Filename.quote dir)
          else ""
        in
        let lines =
          stable_cache_metrics
            (Printf.sprintf
               "%s suite --only 620.omnetpp_s,657.xz_s --scale 0.05 --jobs %d%s \
                --quiet --json"
               cli jobs cache)
        in
        rm_dir dir;
        lines
      in
      let j1 = run 1 in
      Alcotest.(check bool)
        (what ^ ": vm.instructions reported") true
        (List.exists
           (fun l -> Astring_contains.contains l "\"vm.instructions\"")
           j1);
      Alcotest.(check bool)
        (what ^ ": cache.* reported") true (List.length j1 > 1);
      Alcotest.(check (list string)) (what ^ ": jobs 1 vs 4") j1 (run 4))
    [ ("cached", true); ("uncached", false) ]

(* A cache write that fails (here at the file-size limit; a full disk
   takes the same path) never fails a run: the stage warns, leaves no
   temporary file behind and reports what an uncached run reports.  An
   explicit save is different: [simpoints --out] exits 1. *)
let test_cli_failed_cache_write () =
  let limited cmd =
    "sh -c " ^ Filename.quote ("trap '' XFSZ; ulimit -f 8; exec " ^ cmd)
  in
  let dir = tmp_path "cli-fsize" in
  let qdir = Filename.quote dir in
  rm_dir dir;
  let run extra =
    Printf.sprintf "%s run 657.xz_s --scale 0.05 --quiet --json%s" cli extra
  in
  let norm json =
    match J.parse json with
    | Ok j -> norm_string j
    | Error e -> Alcotest.failf "bad run --json output: %s" e
  in
  let code, cached, err =
    run_capture (limited (run (" --profile-cache " ^ qdir)))
  in
  Alcotest.(check int) "run exits 0" 0 code;
  List.iter
    (fun cache ->
      let warning =
        Printf.sprintf "[657.xz_s] %s cache: could not store entry" cache
      in
      Alcotest.(check bool)
        warning true
        (Astring_contains.contains err warning))
    [ "pinball"; "profile" ];
  Alcotest.(check (list string)) "no temporary file left" []
    (List.filter Sp_util.Frame.is_tmp (Array.to_list (Sys.readdir dir)));
  let code, uncached, _ = run_capture (run "") in
  Alcotest.(check int) "uncached run exits 0" 0 code;
  Alcotest.(check string) "same results as an uncached run" (norm uncached)
    (norm cached);
  let code, _, _ =
    run_capture
      (limited
         (Printf.sprintf "%s simpoints 657.xz_s --scale 0.05 --quiet --out %s"
            cli qdir))
  in
  Alcotest.(check int) "simpoints --out exits 1" 1 code;
  rm_dir dir

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol stream" `Quick test_protocol_stream;
    Alcotest.test_case "protocol truncation fuzz" `Quick
      test_protocol_truncation;
    Alcotest.test_case "protocol bit-flip fuzz" `Quick test_protocol_bitflip;
    Alcotest.test_case "protocol error classes" `Quick
      test_protocol_classification;
    Alcotest.test_case "protocol golden bytes" `Quick
      test_protocol_golden_bytes;
    QCheck_alcotest.to_alcotest prop_protocol_never_raises;
    Alcotest.test_case "queue round-robin fairness" `Quick
      test_queue_round_robin;
    Alcotest.test_case "queue capacity bound" `Quick test_queue_capacity;
    Alcotest.test_case "queue close drains" `Quick test_queue_close;
    Alcotest.test_case "queue blocking pop" `Quick test_queue_blocking_pop;
    Alcotest.test_case "store roundtrip and accessors" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store torn-tail recovery" `Quick test_store_torn_tail;
    Alcotest.test_case "store append scans only new bytes" `Quick
      test_store_append_scans_new_bytes;
    Alcotest.test_case "store corrupt is terminal" `Quick test_store_corrupt;
    Alcotest.test_case "store golden bytes" `Quick test_store_golden_bytes;
    Alcotest.test_case "store concurrent appends" `Quick
      test_store_concurrent_appends;
    Alcotest.test_case "regress verdicts" `Quick test_regress;
    Alcotest.test_case "api options roundtrip" `Quick
      test_api_options_roundtrip;
    Alcotest.test_case "api options strict" `Quick test_api_options_strict;
    Alcotest.test_case "api envelope shape" `Quick test_api_envelope_shape;
    Alcotest.test_case "daemon differential vs CLI" `Quick
      test_daemon_differential;
    Alcotest.test_case "daemon survives protocol faults" `Quick
      test_daemon_protocol_faults;
    Alcotest.test_case "daemon rejects bad requests" `Quick
      test_daemon_bad_requests;
    Alcotest.test_case "daemon job timeout" `Quick test_daemon_timeout;
    Alcotest.test_case "daemon survives disconnect mid-job" `Quick
      test_daemon_disconnect_mid_job;
    Alcotest.test_case "daemon drains on shutdown" `Quick
      test_daemon_drain_on_shutdown;
    Alcotest.test_case "daemon fast job passes slow" `Quick
      test_daemon_fast_passes_slow;
    Alcotest.test_case "daemon spawn bound" `Quick test_daemon_spawn_bound;
    Alcotest.test_case "cli exit codes" `Quick test_cli_exit_codes;
    Alcotest.test_case "cli suite stable metrics jobs-invariant" `Quick
      test_cli_suite_jobs_invariance;
    Alcotest.test_case "cli survives a failed cache write" `Quick
      test_cli_failed_cache_write;
  ]
