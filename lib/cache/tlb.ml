(* A view of the TLBs in [Cachesim]. *)

type config = { name : string; entries : int; assoc : int; page_bytes : int }

let itlb_default = { name = "ITLB"; entries = 64; assoc = 4; page_bytes = 4096 }
let dtlb_default = { name = "DTLB"; entries = 64; assoc = 4; page_bytes = 4096 }
let stlb_default = { name = "STLB"; entries = 512; assoc = 8; page_bytes = 4096 }

type t = Cachesim.tlb

(* A TLB entry maps one page: the set kernel with line size = page
   size. *)
let as_level (c : config) =
  Config.level ~name:c.name
    ~size_kb:(c.entries * c.page_bytes / 1024)
    ~assoc:c.assoc ~line_bytes:c.page_bytes

let create ?level2 cfg =
  Cachesim.tlb_create ?level2:(Option.map as_level level2) (as_level cfg)

type stats = {
  accesses : int;
  misses : int;
  walks : int;
  miss_rate : float;
  walk_rate : float;
}

let access = Cachesim.tlb_access
let warm = Cachesim.tlb_warm

let stats (t : t) =
  let accesses = Cache.accesses t.tlb1 in
  {
    accesses;
    misses = Cache.misses t.tlb1;
    walks = t.walks;
    miss_rate = Cache.miss_rate t.tlb1;
    walk_rate =
      (if accesses = 0 then 0.0
       else float_of_int t.walks /. float_of_int accesses);
  }

let reset_stats = Cachesim.tlb_reset_stats
let reset_state = Cachesim.tlb_reset_state
