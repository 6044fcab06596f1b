(* In-memory LRU over *decoded* artifacts, in front of the on-disk
   content-addressed caches.  A daemon serving repeat benchmarks skips
   the disk read, CRC sweep and decode entirely on the hot path, and
   one decoded pinball can go to many concurrent jobs (each restore
   copies the image and only reads the shared value).

   One byte budget is shared by every member cache (whole pinballs and
   profile entries live in the same pool), so [--mem-cache-mb] means
   what it says regardless of the artifact mix.  Entries are charged
   their serialised size — within a few percent of the decoded heap
   footprint for pinballs, whose bytes are almost entirely 8-byte
   memory words either way.  Eviction is strict LRU across the pool,
   found by scanning for the smallest tick: the pool holds at most a
   few dozen decoded artifacts, so a scan beats maintaining an
   intrusive list.

   Domain safety: every operation takes the pool mutex.  Cached values
   are returned without copying, so they must never be mutated by
   consumers; [Snapshot.restore] only reads a cached pinball (it copies
   the image), so several domains may restore one at once. *)

module M = struct
  let hits = Sp_obs.Metrics.counter "pbcache.mem_hits"

  (* eviction order under a concurrent pool depends on scheduling, so
     the count is not jobs-invariant *)
  let evictions = Sp_obs.Metrics.counter ~stable:false "pbcache.mem_evictions"
end

type pool = {
  mutex : Mutex.t;
  (* bytes; 0 disables every member cache *)
  mutable budget : int;
  mutable total : int;
  mutable clock : int;
  (* one peek function per member cache: the member's LRU candidate as
     [(tick, evict)], where [evict] removes it and returns its bytes.
     Closures erase the member's value type, letting differently-typed
     caches share one budget. *)
  mutable peeks : (unit -> (int * (unit -> int)) option) list;
}

let create_pool () =
  {
    mutex = Mutex.create ();
    budget = 0;
    total = 0;
    clock = 0;
    peeks = [];
  }

(* The process-wide pool used by the artifact and profile caches; its
   budget comes from [--mem-cache-mb] via [Pipeline.run_benchmark]. *)
let global = create_pool ()

type 'a entry = { value : 'a; bytes : int; mutable tick : int }
type 'a t = { pool : pool; table : (string, 'a entry) Hashtbl.t }

let create pool =
  let t = { pool; table = Hashtbl.create 16 } in
  let peek () =
    let best = ref None in
    Hashtbl.iter
      (fun k e ->
        match !best with
        | Some (_, tick) when tick <= e.tick -> ()
        | _ -> best := Some (k, e.tick))
      t.table;
    match !best with
    | None -> None
    | Some (k, tick) ->
        Some
          ( tick,
            fun () ->
              let e = Hashtbl.find t.table k in
              Hashtbl.remove t.table k;
              e.bytes )
  in
  pool.peeks <- peek :: pool.peeks;
  t

let set_budget_mb pool mb =
  let mb = max 0 mb in
  Mutex.protect pool.mutex (fun () -> pool.budget <- mb * 1024 * 1024)

let enabled pool = pool.budget > 0

(* Evict pool-wide LRU entries until [need] more bytes fit. *)
let make_room pool need =
  while pool.total + need > pool.budget do
    let victim =
      List.fold_left
        (fun acc peek ->
          match (acc, peek ()) with
          | None, v -> v
          | v, None -> v
          | Some (at, _), (Some (bt, _) as b) when bt < at -> b
          | acc, _ -> acc)
        None pool.peeks
    in
    match victim with
    | None -> raise Exit (* pool already empty; the entry cannot fit *)
    | Some (_, evict) ->
        pool.total <- pool.total - evict ();
        Sp_obs.Metrics.incr M.evictions
  done

let find t key =
  let pool = t.pool in
  Mutex.protect pool.mutex (fun () ->
      if not (enabled pool) then None
      else
        match Hashtbl.find_opt t.table key with
        | None -> None
        | Some e ->
            pool.clock <- pool.clock + 1;
            e.tick <- pool.clock;
            Sp_obs.Metrics.incr M.hits;
            Some e.value)

let add t key ~bytes value =
  let pool = t.pool in
  Mutex.protect pool.mutex (fun () ->
      if enabled pool && bytes >= 0 && bytes <= pool.budget then begin
        (match Hashtbl.find_opt t.table key with
        | Some old ->
            Hashtbl.remove t.table key;
            pool.total <- pool.total - old.bytes
        | None -> ());
        match make_room pool bytes with
        | () ->
            pool.clock <- pool.clock + 1;
            Hashtbl.add t.table key { value; bytes; tick = pool.clock };
            pool.total <- pool.total + bytes
        | exception Exit -> ()
      end)

let clear t =
  let pool = t.pool in
  Mutex.protect pool.mutex (fun () ->
      Hashtbl.iter (fun _ e -> pool.total <- pool.total - e.bytes) t.table;
      Hashtbl.reset t.table)
