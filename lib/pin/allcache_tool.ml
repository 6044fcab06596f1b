open Sp_vm
open Sp_cache

(* The fused [allcache] tool: an adapter over [Cachesim]'s segment
   consumer, which walks each [Hooks.on_block_mems] segment's i-fetch
   grid and data references in one call (the filters and why they are
   exact: [Cachesim] and DESIGN.md §5g). *)

type t = Cachesim.allcache

let create ?(config = Config.allcache_table1) ?policy ?(prefetch = false)
    (prog : Program.t) =
  Cachesim.allcache_create
    ~hier:(Hierarchy.create ?policy ~next_line_prefetch:prefetch config)
    ~itlb:(Tlb.create ~level2:Tlb.stlb_default Tlb.itlb_default)
    ~dtlb:(Tlb.create ~level2:Tlb.stlb_default Tlb.dtlb_default)
    ~code_base:prog.code_base ~instr_bytes:Sp_isa.Isa.bytes_per_instr

let hooks t =
  { Hooks.nil with Hooks.on_block_mems = Cachesim.allcache_consumer t }

let hierarchy (t : t) = t.hier
let stats (t : t) = Hierarchy.stats t.hier
let prefetches (t : t) = Hierarchy.prefetches t.hier
let itlb_stats (t : t) = Tlb.stats t.itlb
let dtlb_stats (t : t) = Tlb.stats t.dtlb
let set_warming (t : t) b = Hierarchy.set_warming t.hier b

let reset_stats (t : t) =
  Hierarchy.reset_stats t.hier;
  Tlb.reset_stats t.itlb;
  Tlb.reset_stats t.dtlb

let reset_state (t : t) =
  Hierarchy.reset_state t.hier;
  Tlb.reset_state t.itlb;
  Tlb.reset_state t.dtlb;
  Cachesim.allcache_forget t
