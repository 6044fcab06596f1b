open Sp_vm

type slice = {
  index : int;
  start_icount : int;
  length : int;
  bbv : (int * int) array;
}

type t = {
  slice_len : int;
  bb_of_pc : int array;
  counts : int array;          (* per block, current slice *)
  touched : int array;         (* blocks with non-zero count, a stack... *)
  mutable num_touched : int;   (* ...this deep *)
  mutable cur_len : int;
  mutable start_icount : int;
  mutable closed : slice list; (* reversed *)
  mutable num_closed : int;
}

let create ~slice_len (prog : Program.t) =
  if slice_len <= 0 then invalid_arg "Bbv_tool.create: slice_len <= 0";
  {
    slice_len;
    bb_of_pc = prog.bb_of_pc;
    counts = Array.make (Program.num_blocks prog) 0;
    touched = Array.make (Program.num_blocks prog) 0;
    num_touched = 0;
    cur_len = 0;
    start_icount = 0;
    closed = [];
    num_closed = 0;
  }

(* The touched blocks come off an int-array stack, so closing a slice
   allocates little beyond its BBV row, the tool's output. *)
let close_slice t =
  let bbv =
    Array.init t.num_touched (fun i ->
        let bb = Array.unsafe_get t.touched i in
        let c = t.counts.(bb) in
        t.counts.(bb) <- 0;
        (bb, c))
  in
  Array.sort (fun ((a : int), _) ((b : int), _) -> Int.compare a b) bbv;
  let s =
    {
      index = t.num_closed;
      start_icount = t.start_icount;
      length = t.cur_len;
      bbv;
    }
  in
  t.closed <- s :: t.closed;
  t.num_closed <- t.num_closed + 1;
  t.num_touched <- 0;
  t.start_icount <- t.start_icount + t.cur_len;
  t.cur_len <- 0

(* a block is pushed when its count turns positive, so at most once per
   slice: the stack never outgrows [num_blocks] *)
let bump t bb n =
  let c = Array.unsafe_get t.counts bb in
  if c = 0 && n > 0 then begin
    Array.unsafe_set t.touched t.num_touched bb;
    t.num_touched <- t.num_touched + 1
  end;
  Array.unsafe_set t.counts bb (c + n)

(* Credit [n] retirements of block [bb], splitting across slice
   boundaries.  Per-instruction accounting closes a slice the moment its
   length reaches [slice_len]; crediting [room] instructions here and
   carrying the remainder into the next slice reproduces that
   bit-for-bit, whether the engine delivers one instruction or a whole
   block (or several slices' worth) at a time. *)
let rec add t bb n =
  let room = t.slice_len - t.cur_len in
  if n < room then begin
    bump t bb n;
    t.cur_len <- t.cur_len + n
  end
  else begin
    bump t bb room;
    t.cur_len <- t.slice_len;
    close_slice t;
    if n > room then add t bb (n - room)
  end

let hooks t =
  {
    Hooks.nil with
    on_block_span = (fun pc0 n -> add t (Array.unsafe_get t.bb_of_pc pc0) n);
  }

let finish t = if t.cur_len > 0 then close_slice t

let slices t = Array.of_list (List.rev t.closed)

let num_slices t = t.num_closed

let slice_len t = t.slice_len
