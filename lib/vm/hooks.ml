type t = {
  on_block : int -> unit;
  on_block_span : int -> int -> unit;
  on_block_mems : int -> int -> int array -> int array -> int -> unit;
  on_instr : int -> int -> unit;
  on_read : int -> unit;
  on_write : int -> unit;
  on_branch : int -> bool -> unit;
}

let ignore1 (_ : int) = ()
let ignore2 (_ : int) (_ : int) = ()
let ignore_branch (_ : int) (_ : bool) = ()

let ignore_mems (_ : int) (_ : int) (_ : int array) (_ : int array) (_ : int) =
  ()

let nil =
  {
    on_block = ignore1;
    on_block_span = ignore2;
    on_block_mems = ignore_mems;
    on_instr = ignore2;
    on_read = ignore1;
    on_write = ignore1;
    on_branch = ignore_branch;
  }

(* Every constructor funnels no-op callbacks through the shared
   [ignore*] sentinels, so physical equality against them (and [is_nil]
   against the whole record) is a reliable "nothing installed" test —
   the interpreter uses it to skip hook dispatch entirely. *)
let is_nil h =
  h == nil
  || (h.on_block == ignore1 && h.on_block_span == ignore2
      && h.on_block_mems == ignore_mems && h.on_instr == ignore2
      && h.on_read == ignore1 && h.on_write == ignore1
      && h.on_branch == ignore_branch)

(* A hook set is block-level when every per-instruction callback is the
   sentinel.  The block engines fire the rest — [on_block], [on_branch]
   and the aggregates [on_block_span] and [on_block_mems] — per block
   entry rather than per instruction, so the interpreter may run such a
   set there: enter the block, fire the aggregates, then execute the
   straight-line body with zero dispatch. *)
let block_level h =
  h.on_instr == ignore2 && h.on_read == ignore1 && h.on_write == ignore1

let has_block_mems h = h.on_block_mems != ignore_mems

(* Fuse a whole chain per field: each field's live callbacks are
   collected once and dispatched from a flat array, so an n-tool chain
   costs one closure plus n direct calls instead of a tree of n-1
   nested pair closures. *)
let fuse1 sentinel fs =
  match List.filter (fun f -> f != sentinel) fs with
  | [] -> sentinel
  | [ f ] -> f
  | [ f; g ] -> fun x -> f x; g x
  | [ f; g; h ] -> fun x -> f x; g x; h x
  | fs ->
      let arr = Array.of_list fs in
      let n = Array.length arr in
      fun x ->
        for i = 0 to n - 1 do
          (Array.unsafe_get arr i) x
        done

let fuse2 sentinel fs =
  match List.filter (fun f -> f != sentinel) fs with
  | [] -> sentinel
  | [ f ] -> f
  | [ f; g ] -> fun x y -> f x y; g x y
  | [ f; g; h ] -> fun x y -> f x y; g x y; h x y
  | fs ->
      let arr = Array.of_list fs in
      let n = Array.length arr in
      fun x y ->
        for i = 0 to n - 1 do
          (Array.unsafe_get arr i) x y
        done

let fuse_mems fs =
  match List.filter (fun f -> f != ignore_mems) fs with
  | [] -> ignore_mems
  | [ f ] -> f
  | [ f; g ] ->
      fun pc n offs addrs nrefs ->
        f pc n offs addrs nrefs;
        g pc n offs addrs nrefs
  | fs ->
      let arr = Array.of_list fs in
      let len = Array.length arr in
      fun pc n offs addrs nrefs ->
        for i = 0 to len - 1 do
          (Array.unsafe_get arr i) pc n offs addrs nrefs
        done

let seq_all = function
  | [] -> nil
  | [ h ] -> h
  | hs ->
      {
        on_block = fuse1 ignore1 (List.map (fun h -> h.on_block) hs);
        on_block_span = fuse2 ignore2 (List.map (fun h -> h.on_block_span) hs);
        on_block_mems = fuse_mems (List.map (fun h -> h.on_block_mems) hs);
        on_instr = fuse2 ignore2 (List.map (fun h -> h.on_instr) hs);
        on_read = fuse1 ignore1 (List.map (fun h -> h.on_read) hs);
        on_write = fuse1 ignore1 (List.map (fun h -> h.on_write) hs);
        on_branch = fuse2 ignore_branch (List.map (fun h -> h.on_branch) hs);
      }
