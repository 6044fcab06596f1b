(* The serve daemon.  Threads (not domains) own the blocking socket
   I/O — one acceptor, one reader per connection, one scheduler — and
   the benchmark work itself runs on Sp_util.Pool worker domains, one
   job per free slot, taken fairly from the bounded queue.  Replies are
   built by Specrepro.Api, the same code path as the CLI's [--json],
   which is what keeps the two surfaces byte-compatible. *)

module Json = Sp_obs.Json
module Metrics = Sp_obs.Metrics
module Api = Specrepro.Api
module Pipeline = Specrepro.Pipeline

type config = {
  socket_path : string;
  results_path : string option;
  queue_capacity : int;
  parallel : int;
  job_timeout : float;
  base_options : Pipeline.options;
  quiet : bool;
}

let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_inflight = Metrics.gauge "serve.jobs_inflight"
let m_completed = Metrics.counter ~stable:false "serve.jobs_completed"
let m_rejects = Metrics.counter ~stable:false "serve.rejects"
let m_timeouts = Metrics.counter ~stable:false "serve.timeouts"
let m_bad_frames = Metrics.counter ~stable:false "serve.bad_frames"
let m_job_seconds = Metrics.histogram "serve.job_seconds"
let m_queue_wait = Metrics.histogram "serve.queue_wait_seconds"

type conn = {
  cid : int;
  fd : Unix.file_descr;
  label : string;
  send_mutex : Mutex.t;
  m_jobs : Metrics.counter;  (* per-client throughput *)
  mutable pending : int;  (* jobs queued or running for this conn *)
  mutable gone : bool;  (* reader thread has finished *)
  mutable closed : bool;  (* fd has been closed *)
}

type job = {
  conn : conn;
  spec : Sp_workloads.Benchspec.t;
  options : Pipeline.options;
  submitted : float;
  deadline : float;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  queue : job Queue.t;
  shutdown : bool Atomic.t;
  conns_mutex : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  readers : (int, Thread.t) Hashtbl.t;
  mutable accept_thread : Thread.t option;
  mutable scheduler_thread : Thread.t option;
  next_cid : int Atomic.t;
  inflight : int Atomic.t;
  completed : int Atomic.t;
  rejected : int Atomic.t;
  timed_out : int Atomic.t;
  bad_frames : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* connection lifecycle

   [pending]/[gone]/[closed] transitions all happen under
   [conns_mutex]; whoever observes gone && pending = 0 first closes
   the fd, so a reply for a job outlives the reader that accepted it
   and a vanished client costs nothing but its reply. *)

let send conn json =
  Mutex.protect conn.send_mutex (fun () ->
      try
        Protocol.write conn.fd json;
        true
      with Unix.Unix_error _ | Sys_error _ -> false)

let close_if_done t conn =
  Mutex.protect t.conns_mutex (fun () ->
      if conn.gone && conn.pending = 0 && not conn.closed then begin
        conn.closed <- true;
        Hashtbl.remove t.conns conn.cid;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

let send_error conn ~code ~message =
  ignore (send conn (Api.error_envelope ~code ~message))

(* ------------------------------------------------------------------ *)
(* request dispatch (runs on the connection's reader thread) *)

let status_result t =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("queue_depth", num (Queue.length t.queue));
      ("jobs_inflight", num (Atomic.get t.inflight));
      ("completed", num (Atomic.get t.completed));
      ("rejected", num (Atomic.get t.rejected));
      ("timed_out", num (Atomic.get t.timed_out));
      ("bad_frames", num (Atomic.get t.bad_frames));
      ( "connections",
        num (Mutex.protect t.conns_mutex (fun () -> Hashtbl.length t.conns))
      );
      ("draining", Json.Bool (Atomic.get t.shutdown));
    ]

let initiate_shutdown t =
  if not (Atomic.exchange t.shutdown true) then Queue.close t.queue

let handle_submit t conn request =
  if Atomic.get t.shutdown then
    send_error conn ~code:"shutting-down" ~message:"daemon is draining"
  else
    let opts_json =
      Option.value (Json.member "options" request) ~default:(Json.Obj [])
    in
    match Api.options_of_json ~base:t.config.base_options opts_json with
    | Error msg -> send_error conn ~code:"bad-request" ~message:msg
    | Ok (None, _) ->
        send_error conn ~code:"bad-request"
          ~message:"submit requires options.benchmark"
    | Ok (Some bench, options) -> (
        match Sp_workloads.Suite.find bench with
        | exception Not_found ->
            send_error conn ~code:"bad-request"
              ~message:(Printf.sprintf "unknown benchmark %s" bench)
        | spec ->
            (* the daemon owns the terminal; jobs never paint progress *)
            let options = { options with Pipeline.progress = false } in
            let submitted = Unix.gettimeofday () in
            let deadline =
              if t.config.job_timeout > 0.0 then
                submitted +. t.config.job_timeout
              else infinity
            in
            let job = { conn; spec; options; submitted; deadline } in
            Mutex.protect t.conns_mutex (fun () ->
                conn.pending <- conn.pending + 1);
            let give_back () =
              Mutex.protect t.conns_mutex (fun () ->
                  conn.pending <- conn.pending - 1)
            in
            (match Queue.push t.queue ~client:conn.label job with
            | Queue.Pushed ->
                Metrics.set m_queue_depth
                  (float_of_int (Queue.length t.queue))
            | Queue.Full ->
                give_back ();
                Atomic.incr t.rejected;
                Metrics.incr m_rejects;
                send_error conn ~code:"backpressure"
                  ~message:
                    (Printf.sprintf "queue full (capacity %d); retry later"
                       t.config.queue_capacity)
            | Queue.Closed_ ->
                give_back ();
                send_error conn ~code:"shutting-down"
                  ~message:"daemon is draining"))

let handle_request t conn request =
  let field name = Option.bind (Json.member name request) Json.to_str in
  match field "schema" with
  | Some s when s <> Api.schema ->
      send_error conn ~code:"bad-request"
        ~message:
          (Printf.sprintf "unsupported schema %S (this daemon speaks %s)" s
             Api.schema)
  | None ->
      send_error conn ~code:"bad-request"
        ~message:(Printf.sprintf "request lacks a schema field (%s)" Api.schema)
  | Some _ -> (
      match field "command" with
      | Some "submit" -> handle_submit t conn request
      | Some "status" ->
          ignore
            (send conn
               (Api.envelope ~command:"status" ~options:Api.no_options
                  ~result:(status_result t)))
      | Some "shutdown" ->
          ignore
            (send conn
               (Api.envelope ~command:"shutdown" ~options:Api.no_options
                  ~result:(Json.Obj [ ("draining", Json.Bool true) ])));
          initiate_shutdown t
      | Some other ->
          send_error conn ~code:"bad-request"
            ~message:(Printf.sprintf "unknown command %S" other)
      | None ->
          send_error conn ~code:"bad-request"
            ~message:"request lacks a command field")

let rec reader_loop t conn =
  match Protocol.read conn.fd with
  | Error Protocol.Closed -> ()
  | Error err ->
      Atomic.incr t.bad_frames;
      Metrics.incr m_bad_frames;
      send_error conn ~code:"bad-frame" ~message:(Protocol.error_message err);
      (* payload-level faults keep the connection; a broken framing
         stream has no resynchronisation point, so drop it *)
      if Protocol.recoverable err then reader_loop t conn
  | Ok (_, request) ->
      handle_request t conn request;
      reader_loop t conn

let reader_main t conn =
  reader_loop t conn;
  Mutex.protect t.conns_mutex (fun () -> conn.gone <- true);
  close_if_done t conn

(* ------------------------------------------------------------------ *)
(* the scheduler: continuous dispatch onto the domain pool

   [parallel] slots bound the jobs in flight.  The scheduler takes a
   slot, then the fairest queued job, and hands it to a pool worker;
   each job replies and records the moment it finishes, so a quick job
   never waits on a slow neighbour.  Jobs never run on the main domain,
   which hosts the reader, acceptor and scheduler threads. *)

let run_job job =
  let start = Unix.gettimeofday () in
  Metrics.observe m_queue_wait (start -. job.submitted);
  let outcome =
    if start > job.deadline then `Timeout
    else
      Sp_obs.Tracer.with_span ~cat:"serve"
        ~args:[ ("benchmark", job.spec.Sp_workloads.Benchspec.name) ]
        "serve.job"
        (fun () ->
          match Pipeline.run_benchmark ~options:job.options job.spec with
          | r -> `Ok r
          | exception e -> `Error (Printexc.to_string e))
  in
  (outcome, Unix.gettimeofday () -. start)

let finish t job (outcome, seconds) =
  let name = job.spec.Sp_workloads.Benchspec.name in
  let reply =
    match outcome with
    | `Ok r ->
        Metrics.observe m_job_seconds seconds;
        Metrics.incr m_completed;
        Metrics.incr job.conn.m_jobs;
        Atomic.incr t.completed;
        (match t.config.results_path with
        | None -> ()
        | Some path -> (
            let record =
              Results_store.record_of_result ~client:job.conn.label
                ~time:(Unix.gettimeofday ()) r
            in
            match Results_store.append ~path record with
            | Ok () -> ()
            | Error msg ->
                Sp_obs.Log.printf "serve: results append failed: %s\n" msg));
        Sp_obs.Log.printf_if (not t.config.quiet)
          "serve: %s %s done (%.2fs)\n" job.conn.label name seconds;
        Api.run_envelope r
    | `Timeout ->
        Atomic.incr t.timed_out;
        Metrics.incr m_timeouts;
        Api.error_envelope ~code:"timeout"
          ~message:
            (Printf.sprintf "%s exceeded the %gs job timeout" name
               t.config.job_timeout)
    | `Error msg ->
        Sp_obs.Log.printf "serve: %s %s failed: %s\n" job.conn.label name msg;
        Api.error_envelope ~code:"internal" ~message:msg
  in
  ignore (send job.conn reply);
  Mutex.protect t.conns_mutex (fun () ->
      job.conn.pending <- job.conn.pending - 1);
  close_if_done t job.conn

let set_inflight t delta =
  let n = Atomic.fetch_and_add t.inflight delta + delta in
  Metrics.set m_inflight (float_of_int n)

let scheduler_loop t =
  let parallel = max 1 t.config.parallel in
  let slots = Semaphore.Counting.make parallel in
  let rec loop () =
    Semaphore.Counting.acquire slots;
    match Queue.pop t.queue with
    | None -> Semaphore.Counting.release slots (* closed and fully drained *)
    | Some job ->
        Metrics.set m_queue_depth (float_of_int (Queue.length t.queue));
        set_inflight t 1;
        Sp_util.Pool.async ~jobs:parallel (fun () ->
            Fun.protect
              ~finally:(fun () ->
                set_inflight t (-1);
                Semaphore.Counting.release slots)
              (fun () -> finish t job (run_job job)));
        loop ()
  in
  loop ();
  (* drain: every dispatched job has answered once all slots are back *)
  for _ = 1 to parallel do
    Semaphore.Counting.acquire slots
  done

(* ------------------------------------------------------------------ *)
(* acceptor and lifecycle *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.shutdown) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              let cid = Atomic.fetch_and_add t.next_cid 1 in
              let label = Printf.sprintf "client-%d" cid in
              let conn =
                {
                  cid;
                  fd;
                  label;
                  send_mutex = Mutex.create ();
                  m_jobs =
                    Metrics.counter ~stable:false
                      (Printf.sprintf "serve.client.%s.jobs" label);
                  pending = 0;
                  gone = false;
                  closed = false;
                }
              in
              let th = Thread.create (fun () -> reader_main t conn) () in
              Mutex.protect t.conns_mutex (fun () ->
                  Hashtbl.replace t.conns cid conn;
                  Hashtbl.replace t.readers cid th)));
      loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ()

let start config =
  (* a reply to a vanished client must become an error, not a signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sp_util.Frame.mkdir_p (Filename.dirname config.socket_path);
  if Sys.file_exists config.socket_path then (
    try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      config;
      listen_fd;
      queue = Queue.create ~capacity:config.queue_capacity;
      shutdown = Atomic.make false;
      conns_mutex = Mutex.create ();
      conns = Hashtbl.create 16;
      readers = Hashtbl.create 16;
      accept_thread = None;
      scheduler_thread = None;
      next_cid = Atomic.make 1;
      inflight = Atomic.make 0;
      completed = Atomic.make 0;
      rejected = Atomic.make 0;
      timed_out = Atomic.make 0;
      bad_frames = Atomic.make 0;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.scheduler_thread <- Some (Thread.create scheduler_loop t);
  Sp_obs.Log.printf_if (not config.quiet)
    "serve: listening on %s (parallel %d, queue capacity %d%s)\n"
    config.socket_path config.parallel config.queue_capacity
    (match config.results_path with
    | Some p -> ", results " ^ p
    | None -> "");
  t

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (match t.scheduler_thread with Some th -> Thread.join th | None -> ());
  (* every queued job has been answered; nudge lingering readers off
     their blocking reads so they observe the close *)
  Mutex.protect t.conns_mutex (fun () ->
      Hashtbl.iter
        (fun _ c ->
          if not c.closed then
            try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
        t.conns);
  let readers =
    Mutex.protect t.conns_mutex (fun () ->
        Hashtbl.fold (fun _ th acc -> th :: acc) t.readers [])
  in
  List.iter Thread.join readers;
  Sp_obs.Log.printf_if (not t.config.quiet)
    "serve: drained (%d completed, %d rejected, %d timed out, %d bad frames)\n"
    (Atomic.get t.completed) (Atomic.get t.rejected) (Atomic.get t.timed_out)
    (Atomic.get t.bad_frames)

let stop t =
  initiate_shutdown t;
  wait t

let run config =
  let t = start config in
  let drain = Sys.Signal_handle (fun _ -> initiate_shutdown t) in
  Sys.set_signal Sys.sigterm drain;
  Sys.set_signal Sys.sigint drain;
  wait t
