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

let replay ?(tools = []) (pb : Pinball.t) =
  let machine = Snapshot.restore pb.snapshot in
  let hooks = Hooks.seq_all tools in
  let syscall = recorded_syscall pb in
  let before = machine.Interp.icount in
  let status =
    match pb.length with
    | Some l -> Interp.run ~hooks ~syscall ~fuel:l pb.program machine
    | None -> Interp.run ~hooks ~syscall pb.program machine
  in
  (match (status, pb.length) with
  | Interp.Halted, Some l ->
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
