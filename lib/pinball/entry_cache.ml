(* The entry layer under both disk caches (see the .mli). *)

type 'a lookup =
  | Hit of 'a
  | Miss
  | Quarantined of { path : string; reason : string }

type 'a t = {
  load : string -> ('a, string) result;
  encode : 'a -> string;
  mem : 'a Mem_cache.t;
  hits : Sp_obs.Metrics.counter;
  misses : Sp_obs.Metrics.counter;
  quarantined : Sp_obs.Metrics.counter;
  stored : Sp_obs.Metrics.counter;
}

let create ~hits ~misses ~quarantined ~stored ~load ~encode =
  let counter = Sp_obs.Metrics.counter in
  {
    load;
    encode;
    mem = Mem_cache.create Mem_cache.global;
    hits = counter hits;
    misses = counter misses;
    quarantined = counter quarantined;
    stored = counter stored;
  }

let quarantine t path =
  let q = path ^ ".quarantined" in
  (try Sys.rename path q with Sys_error _ -> ());
  Sp_obs.Metrics.incr t.quarantined;
  q

let file_bytes path =
  match (Unix.stat path).Unix.st_size with
  | n -> n
  | exception Unix.Unix_error _ -> 0

let find t path =
  match Mem_cache.find t.mem path with
  | Some v -> Hit v
  | None when not (Sys.file_exists path) ->
      Sp_obs.Metrics.incr t.misses;
      Miss
  | None -> (
      match t.load path with
      | Ok v ->
          Sp_obs.Metrics.incr t.hits;
          Mem_cache.add t.mem path ~bytes:(file_bytes path) v;
          Hit v
      | Error reason ->
          ignore (quarantine t path);
          Quarantined { path; reason })

let store t path v =
  let data = t.encode v in
  Sp_util.Frame.write_atomic ~path data;
  Sp_obs.Metrics.incr t.stored;
  Mem_cache.add t.mem path ~bytes:(String.length data) v

let clear_mem t = Mem_cache.clear t.mem
