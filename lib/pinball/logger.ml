open Sp_vm

type whole = { pinball : Pinball.t; total_insns : int }

let log_whole ?(syscall = Interp.default_syscall) ?(extra_tools = [])
    ~benchmark (prog : Program.t) =
  let machine = Interp.create ~entry:prog.entry () in
  let initial = Snapshot.capture machine in
  let recorded = ref [] in
  let recording_syscall n =
    let v = syscall n in
    (* the syscall retires as the current instruction: icount was already
       incremented when the hook fired, so the consuming instruction's
       index is icount - 1.  The interpreter upholds this — it
       bulk-advances icount per chain of blocks but rolls it back to
       the exact per-instruction value around syscall dispatch *)
    recorded := (machine.Interp.icount - 1, v) :: !recorded;
    v
  in
  let hooks = Hooks.seq_all extra_tools in
  let status = Interp.run ~hooks ~syscall:recording_syscall prog machine in
  (match status with
  | Interp.Halted -> ()
  | Interp.Out_of_fuel -> assert false);
  let pinball =
    {
      Pinball.benchmark;
      kind = Pinball.Whole;
      program = prog;
      snapshot = initial;
      length = Some machine.Interp.icount;
      syscalls = Array.of_list (List.rev !recorded);
    }
  in
  { pinball; total_insns = machine.Interp.icount }


type cursor = {
  pb : Pinball.t;
  machine : Interp.machine;
  syscall : int -> int;
  point : Sp_simpoint.Simpoints.point;
  prefix : int;
}

(* advance the live machine to instruction [target]; a no-op at or past it *)
let run_to ?hooks c target =
  let fuel = target - c.machine.Interp.icount in
  if fuel > 0 then
    ignore
      (Interp.run ?hooks ~syscall:c.syscall ~fuel c.pb.Pinball.program
         c.machine)

(* the machine as it stands, as the point's Regional Pinball of [len]
   instructions *)
let carve c len =
  let start = c.machine.Interp.icount in
  {
    Pinball.benchmark = c.pb.Pinball.benchmark;
    kind =
      Pinball.Region { cluster = c.point.cluster; weight = c.point.weight };
    program = c.pb.Pinball.program;
    snapshot = Snapshot.capture c.machine;
    length = Some len;
    syscalls = Pinball.syscalls_in_range c.pb ~start ~len;
  }

let warm c hooks = run_to ~hooks c c.point.start_icount

let region c =
  run_to c c.point.start_icount;
  carve c c.point.length

let measure c hooks =
  let start = c.point.start_icount in
  run_to c start;
  run_to ~hooks c (start + c.point.length);
  c.machine.Interp.icount - start

(* The visit order of [points] (by start) and each point's warm window,
   indexed like [points]: [warmup_insns] clamped to the gap since the
   previous point's end (0 at first, so to program start).  The one
   place the clamp is computed. *)
let schedule ~warmup_insns ~total points =
  if warmup_insns < 0 then invalid_arg "Logger.walk: negative warmup";
  let order = Array.init (Array.length points) Fun.id in
  Array.sort
    (fun a b ->
      compare points.(a).Sp_simpoint.Simpoints.start_icount
        points.(b).Sp_simpoint.Simpoints.start_icount)
    order;
  let prefixes = Array.make (Array.length points) 0 in
  let prev_end = ref 0 in
  Array.iter
    (fun i ->
      let { Sp_simpoint.Simpoints.start_icount = start; length; _ } =
        points.(i)
      in
      if start + length > total then
        invalid_arg "Logger.walk: point beyond execution";
      if start < !prev_end then invalid_arg "Logger.walk: overlapping points";
      prefixes.(i) <- min warmup_insns (start - !prev_end);
      prev_end := start + length)
    order;
  (order, prefixes)

let warm_prefixes ~warmup_insns points =
  snd (schedule ~warmup_insns ~total:max_int points)

let walk ~warmup_insns (w : whole) points f =
  let order, prefixes = schedule ~warmup_insns ~total:w.total_insns points in
  let pb = w.pinball in
  let machine = Snapshot.restore pb.Pinball.snapshot in
  let syscall = Replayer.recorded_syscall pb in
  Array.iter
    (fun i ->
      let point = points.(i) and prefix = prefixes.(i) in
      let c = { pb; machine; syscall; point; prefix } in
      run_to c (point.Sp_simpoint.Simpoints.start_icount - prefix);
      f i c)
    order

(* one walk, one value per point, returned in the order given *)
let collect ~warmup_insns w points visit =
  let out = Array.make (Array.length points) None in
  walk ~warmup_insns w points (fun i c -> out.(i) <- Some (visit c));
  Array.map Option.get out

let capture_regions w points = collect ~warmup_insns:0 w points region

type warm_region = { warm_prefix : int; warm_pinball : Pinball.t }

let capture_warm_regions ~warmup_insns w points =
  collect ~warmup_insns w points (fun c ->
      let warm_pinball = carve c (c.prefix + c.point.length) in
      { warm_prefix = c.prefix; warm_pinball })
