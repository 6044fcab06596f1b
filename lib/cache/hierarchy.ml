type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  line_bytes : int;
  prefetch : bool;
  mutable prefetches : int;
  mutable warming : bool;
}

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

let create ?policy ?(next_line_prefetch = false) (cfg : Config.hierarchy) =
  {
    l1i = Cache.create ?policy cfg.l1i;
    l1d = Cache.create ?policy cfg.l1d;
    l2 = Cache.create ?policy cfg.l2;
    l3 = Cache.create ?policy cfg.l3;
    line_bytes = cfg.l2.Config.line_bytes;
    prefetch = next_line_prefetch;
    prefetches = 0;
    warming = false;
  }

let issue_prefetch (t : t) addr =
  if t.prefetch then begin
    let next = addr + t.line_bytes in
    ignore (Cache.warm t.l2 next);
    ignore (Cache.warm t.l3 next);
    t.prefetches <- t.prefetches + 1
  end

let walk (t : t) ~write l1 addr =
  if t.warming then begin
    if not (Cache.warm l1 addr) then
      if not (Cache.warm t.l2 addr) then begin
        ignore (Cache.warm t.l3 addr);
        issue_prefetch t addr
      end
  end
  else if not (Cache.access_rw l1 ~write addr) then
    if not (Cache.access t.l2 addr) then begin
      ignore (Cache.access t.l3 addr);
      issue_prefetch t addr
    end

let fetch (t : t) addr = walk t ~write:false t.l1i addr
let read t addr = walk t ~write:false t.l1d addr
let write t addr = walk t ~write:true t.l1d addr

(* Same-line repeat filters: [n] guaranteed L1 hits folded straight
   into the L1 counters.  A hit in L1 never reaches L2/L3, and a
   repeat of the line L1 just served changes no replacement state, nor
   its dirty bit when it is a read or the line is dirty already, so
   statistics stay bit-identical to [n] full walks.  During warming a
   walk would count nothing and change nothing for a guaranteed hit,
   so the batch is dropped entirely. *)
let fetch_repeats (t : t) n = if not t.warming then Cache.access_bulk t.l1i n
let data_repeats (t : t) n = if not t.warming then Cache.access_bulk t.l1d n

type hit_level = L1 | L2 | L3 | Memory

let latency_class = function L1 -> 0 | L2 -> 1 | L3 -> 2 | Memory -> 3

let walk_where (t : t) ~write l1 addr =
  if t.warming then
    if Cache.warm l1 addr then L1
    else if Cache.warm t.l2 addr then L2
    else begin
      let level = if Cache.warm t.l3 addr then L3 else Memory in
      issue_prefetch t addr;
      level
    end
  else if Cache.access_rw l1 ~write addr then L1
  else if Cache.access t.l2 addr then L2
  else begin
    let level = if Cache.access t.l3 addr then L3 else Memory in
    issue_prefetch t addr;
    level
  end

let read_where (t : t) addr = walk_where t ~write:false t.l1d addr
let write_where (t : t) addr = walk_where t ~write:true t.l1d addr
let fetch_where (t : t) addr = walk_where t ~write:false t.l1i addr

let set_warming t b = t.warming <- b
let warming t = t.warming

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

let prefetches t = t.prefetches

let writebacks (t : t) =
  (Cache.writebacks t.l1d, Cache.writebacks t.l2, Cache.writebacks t.l3)

let reset_stats (t : t) =
  Cache.reset_stats t.l1i;
  Cache.reset_stats t.l1d;
  Cache.reset_stats t.l2;
  Cache.reset_stats t.l3;
  t.prefetches <- 0

let reset_state (t : t) =
  Cache.reset_state t.l1i;
  Cache.reset_state t.l1d;
  Cache.reset_state t.l2;
  Cache.reset_state t.l3;
  t.prefetches <- 0;
  t.warming <- false

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
