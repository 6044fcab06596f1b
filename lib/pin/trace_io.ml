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

  (* Each segment is written one retired instruction at a time: its
     [X bb 1] and [I] lines, then its own references.  The block's [L]
     line comes before its first segment and the [B] line after its
     last, so the stream is the per-retirement one whatever the
     batching. *)
  let hooks t (prog : Program.t) =
    let bb_of_pc = prog.bb_of_pc and kinds = prog.kinds in
    let segment pc0 n offs addrs nrefs =
      let r = ref 0 in
      for i = 0 to n - 1 do
        let pc = pc0 + i in
        emit t (fun oc -> Printf.fprintf oc "X %d 1\n" bb_of_pc.(pc));
        emit t (fun oc -> Printf.fprintf oc "I %d %d\n" pc kinds.(pc));
        while !r < nrefs && offs.(!r) = i do
          let v = addrs.(!r) in
          if v land 1 = 0 then emit t (fun oc -> Printf.fprintf oc "R %d\n" (v asr 1))
          else emit t (fun oc -> Printf.fprintf oc "W %d\n" (v asr 1));
          incr r
        done
      done
    in
    {
      Hooks.nil with
      Hooks.on_block = (fun bb -> emit t (fun oc -> Printf.fprintf oc "L %d\n" bb));
      on_block_mems = segment;
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
