(* A view of the set kernel in [Cachesim]. *)

type policy = Cachesim.policy = Lru | Fifo | Random
type t = Cachesim.cache

let create = Cachesim.cache_create
let config (t : t) = t.cfg
let policy (t : t) = t.pol
let access = Cachesim.access
let access_rw = Cachesim.access_rw
let warm = Cachesim.warm
let accesses (t : t) = t.accesses
let misses (t : t) = t.misses
let hits (t : t) = t.accesses - t.misses
let writebacks (t : t) = t.writebacks
let miss_rate = Cachesim.miss_rate
let reset_stats = Cachesim.cache_reset_stats
let reset_state = Cachesim.cache_reset_state
let resident_lines = Cachesim.resident_lines
