open Sp_vm

type event =
  | Instr of { pc : int; kind : Sp_isa.Isa.kind }
  | Read of int
  | Write of int
  | Branch of { pc : int; taken : bool }
  | Block of int
  | Block_exec of { bb : int; len : int }

type t = {
  buf : event option array;
  mutable next : int;
  mutable total : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity <= 0";
  { buf = Array.make capacity None; next = 0; total = 0 }

let push t e =
  t.buf.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.buf;
  t.total <- t.total + 1

let hooks t (prog : Program.t) =
  let bb_of_pc = prog.bb_of_pc in
  {
    Hooks.nil with
    Hooks.on_block = (fun bb -> push t (Block bb));
    on_block_span =
      (fun pc0 len -> push t (Block_exec { bb = bb_of_pc.(pc0); len }));
    on_instr = (fun pc kind -> push t (Instr { pc; kind = Sp_isa.Isa.kind_of_code kind }));
    on_read = (fun addr -> push t (Read addr));
    on_write = (fun addr -> push t (Write addr));
    on_branch = (fun pc taken -> push t (Branch { pc; taken }));
  }

let events t =
  let cap = Array.length t.buf in
  let collect i acc =
    match t.buf.((t.next + i) mod cap) with None -> acc | Some e -> e :: acc
  in
  let rec go i acc = if i < 0 then acc else go (i - 1) (collect i acc) in
  go (cap - 1) []

let total_events t = t.total

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.next <- 0;
  t.total <- 0
