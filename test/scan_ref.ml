(* A streaming region scan over public Logger APIs, the reference the
   replay walk's cold and warm statistics are tested against: at each
   point, in start order, the Regional Pinball is handed to the callback
   and then dropped, so at most one region snapshot is live at a time.

   [warmup] runs the [length] instructions preceding each point
   (clamped as [Logger.walk] clamps) with [hooks] attached, after
   [on_start]: one set of tools warmed point after point, as the
   shared-tool reference of the Warmup Regional Run does. *)

open Sp_pinball

type warmup = {
  length : int;  (** instructions to warm before each point *)
  hooks : Sp_vm.Hooks.t;  (** attached during the warmup window *)
  on_start : unit -> unit;
      (** fired before each point's window (e.g. to cold-reset the
          caches being warmed) *)
}

let scan_regions ?warmup w points f =
  match warmup with
  | Some wu when wu.length > 0 ->
      Logger.walk ~warmup_insns:wu.length w points (fun _ c ->
          wu.on_start ();
          Logger.warm c wu.hooks;
          f (Logger.region c))
  | Some _ | None ->
      Logger.walk ~warmup_insns:0 w points (fun _ c -> f (Logger.region c))
