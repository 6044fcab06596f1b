type t = {
  l1d : Cache.t array;
  l2 : Cache.t array;
  l3 : Cache.t;
  offset_bits : int;
  l3_accesses : int array;
  l3_misses : int array;
}

let create ~cores (cfg : Config.hierarchy) =
  if cores < 1 then invalid_arg "Shared_hierarchy.create";
  {
    l1d = Array.init cores (fun _ -> Cache.create cfg.l1d);
    l2 = Array.init cores (fun _ -> Cache.create cfg.l2);
    l3 = Cache.create cfg.l3;
    (* cores live 64 GB apart in physical space *)
    offset_bits = 36;
    l3_accesses = Array.make cores 0;
    l3_misses = Array.make cores 0;
  }

let walk t ~core ~write addr =
  let addr = addr + (core lsl t.offset_bits) in
  if not (Cache.access_rw t.l1d.(core) ~write addr) then
    if not (Cache.access t.l2.(core) addr) then begin
      t.l3_accesses.(core) <- t.l3_accesses.(core) + 1;
      if not (Cache.access t.l3 addr) then
        t.l3_misses.(core) <- t.l3_misses.(core) + 1
    end

let read (t : t) ~core addr = walk t ~core ~write:false addr
let write t ~core addr = walk t ~core ~write:true addr

let hooks t ~core =
  {
    Sp_vm.Hooks.nil with
    on_block_mems =
      (fun _pc0 _n _offs addrs nrefs ->
        for r = 0 to nrefs - 1 do
          let v = Array.unsafe_get addrs r in
          walk t ~core ~write:(v land 1 <> 0) (v asr 1)
        done);
  }

type core_stats = {
  l1d : Hierarchy.level_stats;
  l2 : Hierarchy.level_stats;
  l3_accesses : int;
  l3_misses : int;
}

let level c =
  {
    Hierarchy.accesses = Cache.accesses c;
    misses = Cache.misses c;
    miss_rate = Cache.miss_rate c;
  }

let core_stats (t : t) core =
  {
    l1d = level t.l1d.(core);
    l2 = level t.l2.(core);
    l3_accesses = t.l3_accesses.(core);
    l3_misses = t.l3_misses.(core);
  }

let shared_l3 (t : t) = level t.l3

let reset_stats (t : t) =
  Array.iter Cache.reset_stats t.l1d;
  Array.iter Cache.reset_stats t.l2;
  Cache.reset_stats t.l3;
  Array.fill t.l3_accesses 0 (Array.length t.l3_accesses) 0;
  Array.fill t.l3_misses 0 (Array.length t.l3_misses) 0

let reset_state (t : t) =
  Array.iter Cache.reset_state t.l1d;
  Array.iter Cache.reset_state t.l2;
  Cache.reset_state t.l3;
  Array.fill t.l3_accesses 0 (Array.length t.l3_accesses) 0;
  Array.fill t.l3_misses 0 (Array.length t.l3_misses) 0
