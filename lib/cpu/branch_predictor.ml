type t = {
  table : Bytes.t;        (* 2-bit counters, one byte each *)
  mask : int;
  history_mask : int;
  mutable history : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ?(history_bits = 12) ?(table_bits = 12) () =
  {
    table = Bytes.make (1 lsl table_bits) '\002';
    mask = (1 lsl table_bits) - 1;
    history_mask = (1 lsl history_bits) - 1;
    history = 0;
    lookups = 0;
    mispredicts = 0;
  }

let index t pc = (pc lxor t.history) land t.mask

let step t ~pc ~taken =
  let i = index t pc in
  let counter = Char.code (Bytes.unsafe_get t.table i) in
  let predicted = counter >= 2 in
  (* saturating; plain int compares, where the polymorphic [min]/[max]
     would call the runtime's generic comparison on every branch *)
  let counter' =
    if taken then if counter < 3 then counter + 1 else 3
    else if counter > 0 then counter - 1
    else 0
  in
  Bytes.unsafe_set t.table i (Char.unsafe_chr counter');
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.history_mask;
  predicted = taken

let predict_and_update t ~pc ~taken =
  let correct = step t ~pc ~taken in
  t.lookups <- t.lookups + 1;
  if not correct then t.mispredicts <- t.mispredicts + 1;
  correct

let observe t ~pc ~taken = ignore (step t ~pc ~taken)

let lookups t = t.lookups
let mispredicts t = t.mispredicts

let mispredict_rate t =
  if t.lookups = 0 then 0.0
  else float_of_int t.mispredicts /. float_of_int t.lookups

let reset_stats t =
  t.lookups <- 0;
  t.mispredicts <- 0

let reset_state t =
  Bytes.fill t.table 0 (Bytes.length t.table) '\002';
  t.history <- 0;
  reset_stats t
