(* Per-layer probes for the traced run.  After a traced pass, each
   probe times one layer's public entry point over the artifacts the
   pass produced, summed over the benchmarks, inside a [cat:"bench"]
   span.  Replay probes run the whole pinball once with no tools, once
   per tool alone and once with the three tools the log+profile stage
   uses together; a tool's cost is its replay minus the bare one. *)

open Specrepro
module P = Pipeline

let run (options : P.options) (results : P.bench_result list) =
  let totals = Hashtbl.create 16 in
  let get k = Option.value (Hashtbl.find_opt totals k) ~default:0.0 in
  let probe name f =
    let v, dt =
      Util.timed (fun () -> Sp_obs.Tracer.with_span ~cat:"bench" name f)
    in
    Hashtbl.replace totals name (get name +. dt);
    v
  in
  let insns = ref 0 and accesses = ref 0 and bytes = ref 0 in
  let warm_insns = ref 0 in
  let cfg = options.P.simpoint_config in
  List.iter
    (fun (r : P.bench_result) ->
      let spec = r.P.spec in
      let sp = P.profile_for_sweep ~options spec in
      let whole = sp.P.sweep_whole and slices = sp.P.sweep_slices in
      let pb = whole.Sp_pinball.Logger.pinball in
      let prog = pb.Sp_pinball.Pinball.program in
      insns := !insns + whole.Sp_pinball.Logger.total_insns;
      let replay name tools =
        probe name (fun () ->
            ignore (Sp_pinball.Replayer.replay ~tools:(tools ()) pb))
      in
      let profile () =
        Sp_pin.Profile_tool.hooks
          (Sp_pin.Profile_tool.create ~slice_len:options.P.slice_insns prog)
      in
      let allcache () =
        Sp_pin.Allcache_tool.create ~config:options.P.cache_config
          ~prefetch:options.P.next_line_prefetch prog
      in
      let core () =
        Sp_cpu.Interval_core.hooks
          (Sp_cpu.Interval_core.create ~config:options.P.core_config prog)
      in
      replay "vm.nil" (fun () -> []);
      replay "pin.profile" (fun () -> [ profile () ]);
      probe "cache.allcache" (fun () ->
          let c = allcache () in
          ignore
            (Sp_pinball.Replayer.replay ~tools:[ Sp_pin.Allcache_tool.hooks c ] pb);
          let s = Sp_pin.Allcache_tool.stats c in
          accesses :=
            !accesses + s.Sp_cache.Hierarchy.l1i.accesses
            + s.Sp_cache.Hierarchy.l1d.accesses);
      replay "cpu.interval" (fun () -> [ core () ]);
      replay "profile.combined" (fun () ->
          [ profile (); Sp_pin.Allcache_tool.hooks (allcache ()); core () ]);
      let encoded = probe "pinball.encode" (fun () -> Sp_pinball.Store.encode pb) in
      bytes := !bytes + String.length encoded;
      probe "pinball.decode" (fun () ->
          match Sp_pinball.Store.of_bytes encoded with
          | Ok _ -> ()
          | Error e -> failwith (Sp_pinball.Store.error_message e));
      (match options.P.profile_cache with
      | None -> ()
      | Some dir -> (
          let key =
            Sp_pinball.Profile_store.key ~benchmark:spec.Sp_workloads.Benchspec.name
              ~slice_insns:options.P.slice_insns
              ~slices_scale:options.P.slices_scale
              ~warmup_insns:options.P.warmup_insns
          in
          Sp_pinball.Profile_store.clear_mem ();
          match
            probe "profstore.find" (fun () ->
                Sp_pinball.Profile_store.find ~dir ~key)
          with
          | Sp_pinball.Profile_store.Hit _ -> ()
          | _ -> failwith ("profile store has no entry for " ^ key)));
      let points = Array.copy r.P.selection.P.points in
      Array.sort
        (fun (a : Sp_simpoint.Simpoints.point) b ->
          compare a.start_icount b.start_icount)
        points;
      let regions =
        probe "pinball.capture_warm" (fun () ->
            Sp_pinball.Logger.capture_warm_regions
              ~warmup_insns:options.P.warmup_insns whole points)
      in
      Array.iteri
        (fun i (wr : Sp_pinball.Logger.warm_region) ->
          warm_insns :=
            !warm_insns + wr.warm_prefix
            + points.(i).Sp_simpoint.Simpoints.length)
        regions;
      probe "simpoint.projection" (fun () ->
          ignore
            (Sp_simpoint.Projection.project ~dim:cfg.Sp_simpoint.Simpoints.proj_dim
               ~seed:cfg.Sp_simpoint.Simpoints.seed slices));
      probe "simpoint.select" (fun () ->
          ignore
            (Sp_simpoint.Sampler.select ~config:cfg options.P.sampler
               ~slice_len:options.P.slice_insns slices));
      probe "simpoint.variance" (fun () ->
          ignore
            (Sp_simpoint.Variance.sweep ~config:cfg ~ks:options.P.variance_ks
               slices));
      probe "replay.warm" (fun () ->
          ignore
            (P.warm_replay_points options ~warmup_insns:options.P.warmup_insns
               whole r.P.selection.P.points)))
    results;
  let ns_per k n = 1e9 *. get k /. float_of_int (max 1 n) in
  let nil = ns_per "vm.nil" !insns in
  let marginal k = ns_per k !insns -. nil in
  let combined = ns_per "profile.combined" !insns in
  let tools =
    marginal "pin.profile" +. marginal "cache.allcache" +. marginal "cpu.interval"
  in
  [
    ("vm.nil_ns_per_insn", nil);
    ("pin.profile_ns_per_insn", marginal "pin.profile");
    ("cache.allcache_ns_per_insn", marginal "cache.allcache");
    ("cache.accesses", float_of_int !accesses);
    ( "cache.ns_per_access",
      1e9 *. (get "cache.allcache" -. get "vm.nil") /. float_of_int (max 1 !accesses) );
    ("cpu.interval_ns_per_insn", marginal "cpu.interval");
    ("profile.combined_ns_per_insn", combined);
    ("profile.interaction_frac", (combined -. nil -. tools) /. combined);
    ("pinball.encode_s", get "pinball.encode");
    ("pinball.bytes", float_of_int !bytes);
    ("pinball.decode_s", get "pinball.decode");
    ("profstore.find_s", get "profstore.find");
    ("pinball.capture_warm_s", get "pinball.capture_warm");
    ("simpoint.projection_s", get "simpoint.projection");
    ("simpoint.select_s", get "simpoint.select");
    ("simpoint.variance_s", get "simpoint.variance");
    ("replay.warm_ns_per_insn", ns_per "replay.warm" !warm_insns);
  ]
