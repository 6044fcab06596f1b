(* Smoke test of the end-to-end benchmark, run by [dune runtest]:

     e2e_test.exe E2E_EXE BENCHMARK_JSON

   Checks the percentile rule and the result normalisation, that
   [--smoke --json] and [--smoke --trace --json] print exactly the
   metrics BENCHMARK.json declares with their units and pass every
   output check, that a perturbed reference digest is caught with exit
   2, and that bad input exits 1.  Silent on success; on failure the
   benchmark's stderr is replayed. *)

module Json = Sp_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e_test: " ^ s);
      exit 1)
    fmt

let expect label ok = if not ok then fail "%s" label

let close a b = match (a, b) with Some x, y -> Float.abs (x -. y) < 1e-9 | None, _ -> false

let () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  expect "p50 of 20 samples" (close (Util.percentile (xs 20) 50) 10.5);
  expect "p50 needs 20 samples" (Util.percentile (xs 19) 50 = None);
  expect "p90 of 100 samples" (close (Util.percentile (xs 100) 90) 90.1);
  expect "p90 needs 100 samples" (Util.percentile (xs 99) 90 = None);
  expect "p0 of 10 samples" (close (Util.percentile (xs 10) 0) 1.0);
  expect "p0 needs 10 samples" (Util.percentile (xs 9) 0 = None);
  expect "no samples" (Util.percentile [||] 0 = None);
  expect "median of 1" (Util.median [| 4.0 |] = 4.0);
  expect "median of 2" (Util.median [| 4.0; 1.0 |] = 2.5);
  expect "norm"
    (Util.norm ~jobs:true
       {|{"wall_seconds":1.5e-3,"seconds":2,"jobs":2,"x":1,"metrics":[{"a":1}]}}|}
    = {|{"wall_seconds":0,"seconds":0,"jobs":0,"x":1,"metrics":[]}|});
  expect "norm keeps jobs by default"
    (Util.norm {|{"jobs":2,"seconds":0.25}|} = {|{"jobs":2,"seconds":0}|})

(* Run the benchmark; its stdout lines and exit code.  Its stderr goes
   to a file, replayed if the test fails. *)
let run exe args =
  let err = Filename.temp_file "e2e_test" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w fd in
  Unix.close w;
  Unix.close fd;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
  at_exit (fun () -> Sys.remove err);
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  let replay () = prerr_string (In_channel.with_open_bin err In_channel.input_all) in
  (lines, code, replay)

let declared spec key =
  List.map
    (fun m -> (Util.str "name" m, Util.str "unit" m))
    (Util.list key spec)
  |> List.sort compare

let () =
  let exe, spec =
    match Sys.argv with
    | [| _; exe; spec |] -> (exe, spec)
    | _ -> fail "usage: e2e_test.exe E2E_EXE BENCHMARK_JSON"
  in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let spec = match Json.parse_file spec with Ok j -> j | Error e -> fail "%s: %s" spec e in
  let workloads = List.map (Util.str "name") (Util.list "workloads" spec) in
  let results label args key =
    let lines, code, replay = run exe args in
    let parse l = match Json.parse l with Ok j -> j | Error e -> fail "%s: %s" label e in
    let results = List.map parse lines in
    if code <> 0 || List.length results <> List.length workloads then begin
      replay ();
      fail "%s: exit %d with %d result lines" label code (List.length results)
    end;
    List.iter
      (fun j ->
        expect (label ^ ": every check passes")
          (Json.member "correct" j = Some (Json.Bool true) && Util.num "failed" j = 0.0
         && Util.num "attempted" j >= 1.0);
        let printed =
          List.map (fun (m, v) -> (m, Util.str "unit" v)) (Util.pairs "metrics" j)
          |> List.sort compare
        in
        expect
          (label ^ ": metrics match BENCHMARK.json " ^ key)
          (printed = declared spec key))
      results
  in
  results "--smoke --json" [ "--smoke"; "--json" ] "end_to_end";
  results "--smoke --trace --json" [ "--smoke"; "--trace"; "--json" ] "per_layer";
  (let lines, code, replay =
     run exe [ "--smoke"; "--workload"; "suite-warm"; "--perturb"; "--json" ]
   in
   let last = match List.rev lines with l :: _ -> Json.parse l | [] -> Error "no output" in
   if code <> 2 || Result.map (Json.member "correct") last <> Ok (Some (Json.Bool false))
   then begin
     replay ();
     fail "a perturbed digest must fail the run with exit 2 (got exit %d)" code
   end);
  let _, code, _ = run exe [ "--workload"; "no-such-workload" ] in
  expect "bad input exits 1" (code = 1)
