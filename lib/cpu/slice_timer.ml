open Sp_vm

let cpis ?(tools = []) ?(fuel = max_int) ~slice_len core (prog : Program.t) =
  if slice_len <= 0 then invalid_arg "Slice_timer.cpis";
  let hooks = Hooks.seq_all (Interval_core.hooks core :: tools) in
  let m = Interp.create ~entry:prog.entry () in
  let rec legs left last acc =
    let before = m.Interp.icount in
    let status = Interp.run ~hooks ~fuel:(min slice_len left) prog m in
    let n = m.Interp.icount - before in
    let c = Interval_core.cycles core in
    let acc =
      if n = slice_len || (n > 0 && n >= slice_len / 2) then
        ((c -. last) /. float_of_int n) :: acc
      else acc
    in
    if status = Interp.Out_of_fuel && left > n then legs (left - n) c acc
    else Array.of_list (List.rev acc)
  in
  legs fuel (Interval_core.cycles core) []
