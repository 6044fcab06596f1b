open Sp_vm

exception Divergence of string

type result = {
  status : Interp.status;
  retired : int;
  machine : Interp.machine;
}

let recorded_syscall (pb : Pinball.t) =
  let idx = ref 0 in
  fun (_channel : int) ->
    if !idx >= Array.length pb.syscalls then
      raise
        (Divergence
           (Printf.sprintf "%s: replay consumed more inputs than recorded"
              (Pinball.describe pb)))
    else begin
      let _, v = pb.syscalls.(!idx) in
      incr idx;
      v
    end

let replay_with ?(tools = []) ?fuel (pb : Pinball.t) =
  let machine = Snapshot.restore pb.snapshot in
  let fuel =
    match (fuel, pb.length) with
    | Some f, Some l -> Some (min f l)
    | Some f, None -> Some f
    | None, l -> l
  in
  let hooks = Hooks.seq_all tools in
  let syscall = recorded_syscall pb in
  let before = machine.Interp.icount in
  let status =
    match fuel with
    | Some f -> Interp.run ~hooks ~syscall ~fuel:f pb.program machine
    | None -> Interp.run ~hooks ~syscall pb.program machine
  in
  (match (status, pb.length, fuel) with
  | Interp.Halted, Some l, Some f when f = l ->
      (* a region must not halt early: that would mean the recorded
         interval ran past program end *)
      if machine.Interp.icount - before < l then
        raise
          (Divergence
             (Printf.sprintf "%s: halted after %d of %d instructions"
                (Pinball.describe pb)
                (machine.Interp.icount - before)
                l))
  | _ -> ());
  { status; retired = machine.Interp.icount - before; machine }

let replay ?tools pb = replay_with ?tools pb
