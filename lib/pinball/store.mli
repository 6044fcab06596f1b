(** On-disk pinball store — format v2.

    Pinballs are self-contained, so serialising one file per pinball
    gives the same portability PinPlay's format provides: a regional
    pinball can be copied to another machine (or another process) and
    replayed without the benchmark's inputs.

    A [.pb] file is a {!Sp_util.Frame} sectioned file (magic
    [SPREPRO-PINBALL], version 2) with four sections — META, PROG, SNAP,
    SYSC — each length-framed and CRC-32-checksummed.  The payloads use
    explicit little-endian encoders ({!Sp_vm.Program.write},
    {!Sp_vm.Snapshot.write}); nothing on the read path touches
    [Marshal], so arbitrary bytes can never crash the runtime: {!load}
    returns a typed [error] for every malformed input. *)

type error = Sp_util.Frame.error =
  | No_such_file of string
  | Short_file of string      (** shorter than the magic+version header *)
  | Bad_magic of string
  | Bad_version of { path : string; found : int }
  | Corrupt of { path : string; reason : string }
      (** bad framing, checksum mismatch, or an invalid field *)

val error_message : error -> string
(** One-line human-readable rendering of an [error]. *)

val save : dir:string -> Pinball.t -> string
(** Write the pinball under [dir] (created recursively if missing) with
    the atomic {!Sp_util.Frame.write_atomic}; returns the file path.
    File names encode benchmark and kind. *)

val load : string -> (Pinball.t, error) result
(** Read and fully validate a pinball file.  Never raises on malformed
    input — short files, bad magic, old versions, flipped bits and
    truncations all come back as [Error]. *)

val load_exn : string -> Pinball.t
(** {!load}, raising [Failure (error_message e)] on error — for
    callers that have already validated the file. *)

val encode : Pinball.t -> string
(** The exact bytes {!save} writes.  The encoding is deterministic and
    byte-stable across releases for a given pinball (pages sorted by
    index, fixed little-endian codecs), so stored artifacts, caches and
    golden tests all stay valid; any incompatible change bumps the
    format version instead. *)

val of_bytes : ?path:string -> string -> (Pinball.t, error) result
(** Decode from bytes already in memory ([path] only labels errors);
    {!load} is [of_bytes] over the file's contents.  Exposed so tests
    can fuzz the decoder without touching the filesystem. *)

val verify : string -> (unit, error) result
(** Full decode, discarding the result: checks framing, checksums and
    every field. *)

val list_dir : dir:string -> string list
(** Paths of all pinball files under [dir], sorted.  Temporary and
    quarantined files are excluded (they do not end in [.pb]). *)

val filename : Pinball.t -> string
(** The basename {!save} would use. *)

val mkdir_p : string -> unit
(** {!Sp_util.Frame.mkdir_p}. *)
