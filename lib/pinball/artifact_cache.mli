(** Content-addressed cache of whole pinballs.

    Logging a Whole Pinball is the pipeline's most expensive stage, and
    the artifact is reusable by construction (it replays bit-for-bit
    anywhere).  This cache keys a stored whole pinball by a digest of
    everything that determines the logged execution — benchmark name,
    slice length, run scale, format generation — so a later run with
    identical parameters reuses the stored artifact, together with its
    {!Profile_store} entry, instead of re-logging.

    Lookups and stores go through {!Entry_cache}, the same layer as
    {!Profile_store}.  Robustness contract: a cache can only ever help.
    Corrupt, stale or non-whole entries are quarantined (renamed to
    [*.quarantined]) and reported; the caller recomputes.  Nothing here
    is ever fatal to a run.  Counters: [pbcache.{hits,misses,
    quarantined,stored}]. *)

val key : benchmark:string -> slice_insns:int -> slices_scale:float -> string
(** Hex digest addressing the whole pinball for these parameters. *)

val whole_path : dir:string -> string -> string
(** On-disk path of the entry for a key. *)

type 'a lookup = 'a Entry_cache.lookup =
  | Hit of 'a
  | Miss
  | Quarantined of { path : string; reason : string }
      (** the entry existed but failed validation; it has been renamed
          to [path ^ ".quarantined"] and must be recomputed *)

val find_whole : dir:string -> key:string -> Logger.whole lookup
(** Look up a cached whole pinball ({!Entry_cache.find}): memory first,
    then a fully validated disk read.  Never raises. *)

val clear_mem : unit -> unit
(** Drop every in-memory decoded whole pinball (the disk cache is
    untouched) — simulates a fresh process in tests. *)

val store_whole : dir:string -> key:string -> Logger.whole -> string
(** Atomically write the whole pinball under its key (creating [dir]
    if needed); returns the file path. *)

(** {1 Cache directories}

    A pinball store or cache directory holds two kinds of entry: [.pb]
    pinballs and [.prof] profile entries.  One table of kinds drives
    {!entries}, {!inspect} and {!gc}, so listing, verification and
    garbage collection all see the same files.  An entry describes
    itself (its META section), so no index file is kept. *)

type info = {
  benchmark : string;
  kind : string;  (** ["whole"], ["region N"] or ["profile"] *)
  length : string;
      (** instructions: a pinball's length (["to halt"] if unbounded),
          a profile entry's whole-run total *)
}

val entries : dir:string -> string list
(** Paths of every [.pb] and [.prof] file under [dir], sorted. *)

val inspect : string -> (info, string) result
(** Fully decode the entry at a path (framing, checksums, every field)
    and summarise it; [Error] carries a one-line message. *)

type gc_report = {
  removed_quarantined : int;
  removed_tmp : int;     (** leftover atomic-write temporaries *)
  removed_corrupt : int; (** entries that fail {!inspect} *)
  kept : int;            (** valid entries retained *)
}

val gc : dir:string -> gc_report
(** Sweep a directory: drop quarantined files, stale temporaries and
    corrupt entries.  Valid entries are never touched. *)
