(** Checksummed framing for every on-disk and wire format.

    {v
    sectioned file  magic (15) | u32 version, big-endian     .pb, .prof
                    then per section, in a fixed order:
                    tag (4) | u32 len | payload | u32 crc
    self-framed     magic (4) | u8 version | u32 len |       SPRF, SRRC
    record          u32 crc | payload
    v}

    [.pb] is SPREPRO-PINBALL v2 and [.prof] SPREPRO-PROFILE v1; SPRF v1
    frames the daemon's wire and SRRC v1 the results log.  Other
    integers are little-endian ({!Binio}) and every CRC-32 covers its
    payload only, so truncation and bit flips are caught before a
    payload is decoded.  The big-endian version word is the framing of
    the original v1 pinball header, so a legacy file fails with a clean
    version error.  Every decoder maps arbitrary bytes to a typed error,
    never an exception. *)

(** {1 Files} *)

val mkdir_p : string -> unit
(** [mkdir -p], tolerant of concurrent creation by another domain or
    process.  @raise Failure if a component is not a directory. *)

val write_atomic : path:string -> string -> unit
(** Write to [path.tmp.<pid>.<domain>] (creating the directory), then
    rename over [path]: concurrent savers never share a temporary and
    readers never see a partial file. *)

val is_tmp : string -> bool
(** Whether a file name is a {!write_atomic} temporary. *)

(** {1 Sectioned files} *)

type file = { magic : string; version : int; noun : string }
(** [noun] names one file in error messages (["pinball"]). *)

type error =
  | No_such_file of string
  | Short_file of string  (** shorter than the magic+version header *)
  | Bad_magic of string
  | Bad_version of { path : string; found : int }
  | Corrupt of { path : string; reason : string }
      (** bad framing, checksum mismatch, or an invalid field *)

val error_message : file -> error -> string

val encode_file :
  file -> ?size_hint:int -> (string * (Buffer.t -> unit)) list -> string
(** The header, then one section per [(tag, write_payload)].  Payloads
    go straight into one buffer and their lengths and CRCs are patched
    in afterwards, so the largest payload is copied once. *)

type sections

val section : sections -> string -> (Binio.reader -> 'a) -> 'a
(** Check the next section's tag, length and CRC, then decode its
    payload through a reader that shares the file's bytes (nothing is
    copied) and require the decoder to consume all of it.
    @raise Binio.Corrupt otherwise. *)

val decode_file :
  file -> ?path:string -> (sections -> 'a) -> string -> ('a, error) result
(** Check the header, run the decoder and require that nothing follows
    its last section.  Its [Binio.Corrupt], [Invalid_argument] and
    [Failure] become [Corrupt]; [path] only labels errors. *)

val load_file : file -> (sections -> 'a) -> string -> ('a, error) result
(** {!decode_file} over a file's contents. *)

(** {1 Self-framed records} *)

type record = { magic : string; version : int; max_payload : int }

type record_error =
  | Short  (** the bytes end inside the header or the payload *)
  | Bad_record_magic of string
  | Bad_record_version of int
  | Oversized of int  (** declared length past [max_payload] *)
  | Bad_crc of { expected : int; found : int }

val record_header_bytes : int

val encode_record : record -> string -> string

val record_header :
  record -> string -> pos:int -> (int * int, record_error) result
(** The payload length and stored CRC of the header at [pos].  The
    magic is checked against whatever bytes are present first, so bytes
    that cannot begin a record are [Bad_record_magic] however few they
    are; an oversized length is refused before anything is allocated. *)

val check_crc :
  crc:int -> string -> pos:int -> len:int -> (unit, record_error) result

val decode_record :
  record -> string -> pos:int -> (int * int, record_error) result
(** Validate the whole record at [pos]; return its payload's position
    and length. *)
