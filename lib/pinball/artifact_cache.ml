(* Content-addressed cache of whole pinballs, and the directory table
   of entry kinds (see the .mli). *)

(* Bump whenever the on-disk format or the meaning of the key inputs
   changes: old entries then miss instead of poisoning new runs. *)
let generation = "pbcache-2"

let key ~benchmark ~slice_insns ~slices_scale =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%s|%d|%.17g" generation benchmark slice_insns
          slices_scale))

let whole_path ~dir key = Filename.concat dir (key ^ ".whole.pb")

(* ------------------------------------------------------------------ *)
(* lookup / store *)

type 'a lookup = 'a Entry_cache.lookup =
  | Hit of 'a
  | Miss
  | Quarantined of { path : string; reason : string }

(* A decoded whole pinball is shared as is: a restore only reads it, so
   handing the same value to concurrent restorers is safe. *)
let load_whole path =
  match Store.load path with
  | Error e -> Error (Store.error_message e)
  | Ok pb -> (
      match (pb.Pinball.kind, pb.Pinball.length) with
      | Pinball.Whole, Some total_insns ->
          Ok { Logger.pinball = pb; total_insns }
      | _ ->
          (* decodes fine but is not a whole pinball: a stale or
             hand-edited entry, equally untrustworthy *)
          Error "not a whole pinball")

let cache =
  Entry_cache.create ~hits:"pbcache.hits" ~misses:"pbcache.misses"
    ~quarantined:"pbcache.quarantined" ~stored:"pbcache.stored"
    ~load:load_whole
    ~encode:(fun (w : Logger.whole) -> Store.encode w.Logger.pinball)

let find_whole ~dir ~key = Entry_cache.find cache (whole_path ~dir key)

let store_whole ~dir ~key w =
  let path = whole_path ~dir key in
  Entry_cache.store cache path w;
  path

let clear_mem () = Entry_cache.clear_mem cache

(* ------------------------------------------------------------------ *)
(* the directory: one table of entry kinds drives listing, verification
   and garbage collection, so all three see the same files *)

type info = { benchmark : string; kind : string; length : string }

let kinds =
  [
    ( ".pb",
      fun path ->
        Result.map_error Store.error_message (Store.load path)
        |> Result.map (fun (pb : Pinball.t) ->
               {
                 benchmark = pb.benchmark;
                 kind =
                   (match pb.kind with
                   | Pinball.Whole -> "whole"
                   | Pinball.Region r -> Printf.sprintf "region %d" r.cluster);
                 length =
                   (match pb.length with
                   | Some l -> string_of_int l
                   | None -> "to halt");
               }) );
    ( ".prof",
      fun path ->
        Profile_store.load path
        |> Result.map (fun (d : Profile_store.data) ->
               {
                 benchmark = d.benchmark;
                 kind = "profile";
                 length = string_of_int d.total_insns;
               }) );
  ]

let kind_of name =
  List.find_opt (fun (suffix, _) -> Filename.check_suffix name suffix) kinds

let entries ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun name -> kind_of name <> None)
    |> List.map (Filename.concat dir)
    |> List.sort compare

let inspect path =
  match kind_of path with
  | Some (_, inspect) -> inspect path
  | None -> Error (path ^ ": not a pinball or profile entry")

type gc_report = {
  removed_quarantined : int;
  removed_tmp : int;
  removed_corrupt : int;
  kept : int;
}

let gc ~dir =
  let quarantined = ref 0 and tmp = ref 0 in
  let corrupt = ref 0 and kept = ref 0 in
  if Sys.file_exists dir then
    Array.iter
      (fun name ->
        let path = Filename.concat dir name in
        let remove count =
          (try Sys.remove path with Sys_error _ -> ());
          incr count
        in
        if Filename.check_suffix name ".quarantined" then remove quarantined
        else if Sp_util.Frame.is_tmp name then remove tmp
        else if kind_of name <> None then
          match inspect path with
          | Ok _ -> incr kept
          | Error _ -> remove corrupt)
      (Sys.readdir dir);
  {
    removed_quarantined = !quarantined;
    removed_tmp = !tmp;
    removed_corrupt = !corrupt;
    kept = !kept;
  }
