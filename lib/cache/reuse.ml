(* Olken's algorithm: keep, for every line, the time of its last access;
   a Fenwick tree over time marks which times are "most recent" for some
   line.  The stack distance of an access is the number of marked times
   after the line's previous access. *)

let buckets = 44 (* log2 buckets up to 2^43 *)

type t = {
  line_shift : int;
  last_access : (int, int) Hashtbl.t; (* line -> time *)
  mutable bit : int array;            (* Fenwick, 1-based, grows *)
  mutable time : int;                 (* accesses so far *)
  hist : int array;                   (* per log2 bucket *)
  mutable cold : int;
  max_accesses : int;
  mutable capped : bool;
}

let log2_line b =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 b

let create ?(line_bytes = 64) ?(max_accesses = 4_000_000) () =
  {
    line_shift = log2_line line_bytes;
    last_access = Hashtbl.create 4096;
    bit = Array.make 4096 0;
    time = 0;
    hist = Array.make buckets 0;
    cold = 0;
    max_accesses;
    capped = false;
  }

let capped t = t.capped

let grow t needed =
  if needed >= Array.length t.bit then begin
    let n = ref (Array.length t.bit) in
    while needed >= !n do
      n := !n * 2
    done;
    let nb = Array.make !n 0 in
    Array.blit t.bit 0 nb 0 (Array.length t.bit);
    t.bit <- nb
  end

let bit_add t i delta =
  let i = ref i in
  let n = Array.length t.bit in
  while !i < n do
    t.bit.(!i) <- t.bit.(!i) + delta;
    i := !i + (!i land - !i)
  done

let bit_sum t i =
  (* prefix sum [1..i] *)
  let s = ref 0 in
  let i = ref i in
  while !i > 0 do
    s := !s + t.bit.(!i);
    i := !i - (!i land - !i)
  done;
  !s

let bucket_of_distance d =
  let rec go b bound = if d <= bound || b = buckets - 1 then b else go (b + 1) (bound * 2) in
  go 0 1

let access t addr =
  if t.time >= t.max_accesses then t.capped <- true
  else begin
  let line = addr lsr t.line_shift in
  t.time <- t.time + 1;
  grow t (t.time + 1);
  (match Hashtbl.find_opt t.last_access line with
  | None -> t.cold <- t.cold + 1
  | Some t0 ->
      (* distinct lines touched strictly after t0 = marked times in (t0, now) *)
      let marked_after = bit_sum t t.time - bit_sum t t0 in
      let d = max 1 marked_after in
      t.hist.(bucket_of_distance d) <- t.hist.(bucket_of_distance d) + 1;
      bit_add t t0 (-1));
  bit_add t t.time 1;
  Hashtbl.replace t.last_access line t.time
  end

(* Reads and writes alike, in retirement order: a Movs's source read
   before its destination write. *)
let hooks_of t =
  {
    Sp_vm.Hooks.nil with
    on_block_mems =
      (fun _pc0 _n _offs addrs nrefs ->
        for r = 0 to nrefs - 1 do
          access t (Array.unsafe_get addrs r asr 1)
        done);
  }

let total t = t.time

let cold t = t.cold

let histogram t =
  let out = ref [] in
  let bound = ref 1 in
  for b = 0 to buckets - 1 do
    if t.hist.(b) > 0 then out := (!bound, t.hist.(b)) :: !out;
    bound := !bound * 2
  done;
  Array.of_list (List.rev !out)

let cdf_at t lines =
  let non_cold = t.time - t.cold in
  if non_cold <= 0 then 0.0
  else begin
    let acc = ref 0 in
    let bound = ref 1 in
    for b = 0 to buckets - 1 do
      if !bound <= lines then acc := !acc + t.hist.(b);
      bound := !bound * 2
    done;
    float_of_int !acc /. float_of_int non_cold
  end

let miss_rate_estimate t ~cache_lines =
  if t.time = 0 then 0.0
  else begin
    let hits = ref 0 in
    let bound = ref 1 in
    for b = 0 to buckets - 1 do
      if !bound <= cache_lines then hits := !hits + t.hist.(b);
      bound := !bound * 2
    done;
    float_of_int (t.time - !hits) /. float_of_int t.time
  end
