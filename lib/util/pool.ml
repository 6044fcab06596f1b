(* A persistent domain pool over OCaml 5 Domains.

   Callers hand us an array of independent work items; we fan them out
   across up to [jobs] domains and reassemble results in input order,
   so a parallel map is observationally identical to [Array.map] — the
   only difference is wall-clock.  With [jobs <= 1] (or one item) we
   run sequentially on the caller's domain, byte-for-byte the existing
   behaviour.

   Workers are spawned lazily, never exit, and are fed from one
   Mutex/Condition task queue, so a batch costs a queue post instead of
   a [Domain.spawn]/[Domain.join] per worker.  A batch's caller always
   takes part in its own batch: it posts [min jobs n - 1] helper
   closures (at most one per other recommended domain), claims items
   itself, and then waits only for items that another domain has
   already claimed and is running.  That makes nesting safe — a batch
   issued from inside a worker posts helpers that idle workers pick up,
   and when none is idle the caller simply runs every item itself.  A
   helper dequeued after its batch is over finds nothing left to claim
   and returns at once. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* Pool metrics are all scheduling-dependent (batch and task counts
   change with the sequential paths, busy time with load), so none is
   registered stable. *)
module M = struct
  let batches = Sp_obs.Metrics.counter ~stable:false "pool.batches"
  let tasks = Sp_obs.Metrics.counter ~stable:false "pool.tasks"

  let domains_spawned =
    Sp_obs.Metrics.counter ~stable:false "pool.domains_spawned"

  let busy_seconds =
    Sp_obs.Metrics.histogram ~stable:false "pool.domain_busy_seconds"
end

(* ------------------------------------------------------------------ *)
(* the workers and their task queue *)

let lock = Mutex.create ()
let nonempty = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let spawned = ref 0 (* under [lock] *)
let max_workers = max 1 (Domain.recommended_domain_count ())

(* a batch's caller works on it too, so this many helpers fill the
   machine; more would only oversubscribe it *)
let max_helpers = Domain.recommended_domain_count () - 1

(* A task that raises must not take its worker down with it: batch
   helpers never raise, so this only catches [async] tasks. *)
let rec worker_loop () =
  let task =
    Mutex.protect lock (fun () ->
        while Queue.is_empty queue do
          Condition.wait nonempty lock
        done;
        Queue.pop queue)
  in
  (try task ()
   with e ->
     Sp_obs.Log.printf "Sp_util.Pool: task raised: %s\n" (Printexc.to_string e));
  worker_loop ()

(* Grow the worker set to [want] (capped at the machine's recommended
   domain count); called under [lock]. *)
let ensure_workers want =
  while !spawned < min want max_workers do
    ignore (Domain.spawn worker_loop);
    incr spawned;
    Sp_obs.Metrics.incr M.domains_spawned
  done

(* Queue [k] copies of [task], first growing the worker set to
   [workers]. *)
let post ~workers k task =
  if k > 0 then begin
    Mutex.protect lock (fun () ->
        ensure_workers workers;
        for _ = 1 to k do
          Queue.push task queue
        done);
    if k = 1 then Condition.signal nonempty else Condition.broadcast nonempty
  end

(* the task runs on a worker, never on the caller: at least one exists *)
let async ~jobs task = post ~workers:(max 1 jobs) 1 task

(* ------------------------------------------------------------------ *)
(* batches *)

type batch = {
  run : int -> unit;  (* item [i]: compute and store its result *)
  n : int;
  next : int Atomic.t;  (* the next unclaimed item *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  active : int Atomic.t;  (* helpers inside [claim] *)
  done_lock : Mutex.t;
  idle : Condition.t;  (* signalled when [active] drops to 0 *)
}

(* Work-stealing by atomic index: domains race on a shared counter and
   write into a preallocated result slot, so items are load-balanced
   regardless of per-item cost and output order is trivially the input
   order.  The first exception wins; remaining items are abandoned. *)
let claim b =
  let t0 = Sp_obs.Clock.now_ns () in
  let ran = ref 0 in
  let continue = ref true in
  while !continue do
    if Atomic.get b.failure <> None then continue := false
    else
      let i = Atomic.fetch_and_add b.next 1 in
      if i >= b.n then continue := false
      else begin
        incr ran;
        Sp_obs.Metrics.incr M.tasks;
        match b.run i with
        | () -> ()
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            (* keep the first failure only *)
            ignore (Atomic.compare_and_set b.failure None (Some (e, bt)));
            continue := false
      end
  done;
  if !ran > 0 then
    Sp_obs.Metrics.observe M.busy_seconds
      (Sp_obs.Clock.seconds_of_ns (Sp_obs.Clock.now_ns () - t0))

let help b () =
  Atomic.incr b.active;
  claim b;
  if Atomic.fetch_and_add b.active (-1) = 1 then
    Mutex.protect b.done_lock (fun () -> Condition.broadcast b.idle)

(* A helper that enters [claim] after the caller stopped waiting sees
   either no unclaimed item or the recorded failure, so it never runs
   an item once [run_batch] has returned. *)
let run_batch ~jobs n run =
  Sp_obs.Metrics.incr M.batches;
  let b =
    {
      run;
      n;
      next = Atomic.make 0;
      failure = Atomic.make None;
      active = Atomic.make 0;
      done_lock = Mutex.create ();
      idle = Condition.create ();
    }
  in
  let helpers = min (min jobs n - 1) max_helpers in
  post ~workers:helpers helpers (help b);
  claim b;
  Mutex.protect b.done_lock (fun () ->
      while Atomic.get b.active > 0 do
        Condition.wait b.idle b.done_lock
      done);
  match Atomic.get b.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_map ?jobs f arr =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = Array.length arr in
  if jobs <= 1 || n <= 1 then begin
    Sp_obs.Metrics.incr M.batches;
    Sp_obs.Metrics.add M.tasks n;
    Array.map f arr
  end
  else begin
    let results = Array.make n None in
    run_batch ~jobs n (fun i -> results.(i) <- Some (f arr.(i)));
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* no failure implies every slot was filled *))
      results
  end

(* Chunked parallel iteration: [body lo hi] covers [lo, hi).  Chunk
   boundaries depend only on [n] and [chunks], never on [jobs], so any
   per-chunk accumulation a caller does is deterministic across job
   counts. *)
let chunk_bounds ~chunks ~n =
  let chunks = max 1 (min chunks n) in
  let base = n / chunks and rem = n mod chunks in
  Array.init chunks (fun c ->
      let lo = (c * base) + min c rem in
      let hi = lo + base + (if c < rem then 1 else 0) in
      (lo, hi))

let parallel_for ?jobs ?chunks ~n body =
  if n > 0 then begin
    let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
    let chunks =
      match chunks with Some c -> max 1 c | None -> max 1 (jobs * 4)
    in
    let bounds = chunk_bounds ~chunks ~n in
    if jobs <= 1 then Array.iter (fun (lo, hi) -> body lo hi) bounds
    else
      run_batch ~jobs (Array.length bounds) (fun c ->
          let lo, hi = bounds.(c) in
          body lo hi)
  end
