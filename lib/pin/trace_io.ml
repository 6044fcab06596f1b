open Sp_vm

type event =
  | Instr of int * int
  | Read of int
  | Write of int
  | Branch of int * bool
  | Block of int
  | Block_exec of int * int

module Writer = struct
  type t = {
    oc : out_channel;
    limit : int;
    mutable written : int;
    mutable truncated : bool;
  }

  let create ?(limit = max_int) oc = { oc; limit; written = 0; truncated = false }

  let emit t f =
    if t.written < t.limit then begin
      f t.oc;
      t.written <- t.written + 1
    end
    else t.truncated <- true

  let hooks t (prog : Program.t) =
    let bb_of_pc = prog.bb_of_pc in
    {
      Hooks.nil with
      Hooks.on_block = (fun bb -> emit t (fun oc -> Printf.fprintf oc "L %d\n" bb));
      on_block_span =
        (fun pc0 len ->
          emit t (fun oc -> Printf.fprintf oc "X %d %d\n" bb_of_pc.(pc0) len));
      on_instr =
        (fun pc kind -> emit t (fun oc -> Printf.fprintf oc "I %d %d\n" pc kind));
      on_read = (fun a -> emit t (fun oc -> Printf.fprintf oc "R %d\n" a));
      on_write = (fun a -> emit t (fun oc -> Printf.fprintf oc "W %d\n" a));
      on_branch =
        (fun pc taken ->
          emit t (fun oc ->
              Printf.fprintf oc "B %d %d\n" pc (if taken then 1 else 0)));
    }

  let events_written t = t.written
  let truncated t = t.truncated
end

module Reader = struct
  let parse line =
    let fail () = failwith ("Trace_io: malformed line " ^ line) in
    match String.split_on_char ' ' (String.trim line) with
    | [ "I"; pc; kind ] -> (
        match (int_of_string_opt pc, int_of_string_opt kind) with
        | Some pc, Some kind -> Instr (pc, kind)
        | _ -> fail ())
    | [ "R"; a ] -> (
        match int_of_string_opt a with Some a -> Read a | None -> fail ())
    | [ "W"; a ] -> (
        match int_of_string_opt a with Some a -> Write a | None -> fail ())
    | [ "B"; pc; t ] -> (
        match (int_of_string_opt pc, t) with
        | Some pc, "1" -> Branch (pc, true)
        | Some pc, "0" -> Branch (pc, false)
        | _ -> fail ())
    | [ "L"; bb ] -> (
        match int_of_string_opt bb with Some bb -> Block bb | None -> fail ())
    | [ "X"; bb; len ] -> (
        match (int_of_string_opt bb, int_of_string_opt len) with
        | Some bb, Some len -> Block_exec (bb, len)
        | _ -> fail ())
    | _ -> fail ()

  let fold ic ~init ~f =
    let acc = ref init in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then acc := f !acc (parse line)
       done
     with End_of_file -> ());
    !acc

  let read_all ic = List.rev (fold ic ~init:[] ~f:(fun acc e -> e :: acc))
end
