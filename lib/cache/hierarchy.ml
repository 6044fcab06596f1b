(* A view of the hierarchy walk in [Cachesim]. *)

type t = Cachesim.hierarchy

type level_stats = { accesses : int; misses : int; miss_rate : float }

type stats = {
  l1i : level_stats;
  l1d : level_stats;
  l2 : level_stats;
  l3 : level_stats;
}

(* Aggregate cache-model activity, fed by [observe_stats] when a
   replay finishes with a hierarchy (the simulation loops themselves
   stay untouched).  Pure functions of the simulated work: stable. *)
module M = struct
  let ctr name = Sp_obs.Metrics.counter ("cache." ^ name)
  let l1i_acc = ctr "l1i.accesses"
  let l1i_miss = ctr "l1i.misses"
  let l1d_acc = ctr "l1d.accesses"
  let l1d_miss = ctr "l1d.misses"
  let l2_acc = ctr "l2.accesses"
  let l2_miss = ctr "l2.misses"
  let l3_acc = ctr "l3.accesses"
  let l3_miss = ctr "l3.misses"
end

let create = Cachesim.hierarchy_create
let fetch = Cachesim.fetch
let read = Cachesim.read
let write = Cachesim.write

type hit_level = L1 | L2 | L3 | Memory

let latency_class = function L1 -> 0 | L2 -> 1 | L3 -> 2 | Memory -> 3
let of_class = function 0 -> L1 | 1 -> L2 | 2 -> L3 | _ -> Memory
let read_where t addr = of_class (Cachesim.read_class t addr)
let write_where t addr = of_class (Cachesim.write_class t addr)
let fetch_where t addr = of_class (Cachesim.fetch_class t addr)

let set_warming (t : t) b = t.warming <- b
let warming (t : t) = t.warming

let level_stats c =
  {
    accesses = Cache.accesses c;
    misses = Cache.misses c;
    miss_rate = Cache.miss_rate c;
  }

let stats (t : t) =
  {
    l1i = level_stats t.l1i;
    l1d = level_stats t.l1d;
    l2 = level_stats t.l2;
    l3 = level_stats t.l3;
  }

let observe_stats (s : stats) =
  Sp_obs.Metrics.add M.l1i_acc s.l1i.accesses;
  Sp_obs.Metrics.add M.l1i_miss s.l1i.misses;
  Sp_obs.Metrics.add M.l1d_acc s.l1d.accesses;
  Sp_obs.Metrics.add M.l1d_miss s.l1d.misses;
  Sp_obs.Metrics.add M.l2_acc s.l2.accesses;
  Sp_obs.Metrics.add M.l2_miss s.l2.misses;
  Sp_obs.Metrics.add M.l3_acc s.l3.accesses;
  Sp_obs.Metrics.add M.l3_miss s.l3.misses

let prefetches (t : t) = t.prefetches

let writebacks (t : t) =
  (Cache.writebacks t.l1d, Cache.writebacks t.l2, Cache.writebacks t.l3)

let reset_stats = Cachesim.hierarchy_reset_stats
let reset_state = Cachesim.hierarchy_reset_state

let pp_level_stats ppf name (s : level_stats) =
  Format.fprintf ppf "%s: %d accesses, %d misses (%.2f%%)" name s.accesses
    s.misses (s.miss_rate *. 100.0)

let pp_stats ppf (s : stats) =
  pp_level_stats ppf "L1I" s.l1i;
  Format.pp_print_newline ppf ();
  pp_level_stats ppf "L1D" s.l1d;
  Format.pp_print_newline ppf ();
  pp_level_stats ppf "L2" s.l2;
  Format.pp_print_newline ppf ();
  pp_level_stats ppf "L3" s.l3
