(** The [specrepro serve] wire protocol: length-framed, CRC-checksummed
    JSON over a Unix-domain stream socket.

    Each frame is a {!Sp_util.Frame} self-framed record, magic [SPRF],
    version 1, whose payload is one UTF-8 {!Sp_obs.Json} document — in
    practice a [specrepro/v2] envelope, see {!Specrepro.Api}.
    Arbitrary bytes can never crash a reader: every malformed input
    maps to a typed {!error}.

    Errors are classified by whether the byte stream is still framed
    afterwards.  A payload-level fault ({!Bad_crc}, {!Bad_json}) was
    fully consumed, so the reader may keep using the connection
    ({!recoverable} = [true]); a framing-level fault ([Bad_magic],
    [Bad_version], [Oversized], [Truncated]) leaves the stream
    unsynchronised and the connection must be dropped. *)

type error =
  | Closed  (** clean EOF at a frame boundary *)
  | Truncated of string  (** EOF mid-frame *)
  | Bad_magic of string
  | Bad_version of int
  | Oversized of int  (** declared length exceeds {!max_payload} *)
  | Bad_crc of { expected : int; found : int }
  | Bad_json of string  (** checksummed payload is not valid JSON *)
  | Transport of string  (** socket-level [Unix] error *)

val error_message : error -> string

val recoverable : error -> bool
(** [true] iff the faulty frame was fully consumed and the stream is
    still framed ({!Bad_crc} and {!Bad_json} only). *)

val max_payload : int
(** Largest accepted payload (16 MiB); a declared length beyond it is
    {!Oversized} and is never allocated. *)

(** {1 Pure codec} (exposed for tests and fuzzing) *)

val encode : Sp_obs.Json.t -> string
(** One complete frame. *)

val decode_stream : string -> pos:int -> (Sp_obs.Json.t * int, error) result
(** Decode the frame starting at [pos]; returns the document and the
    position just past the frame.  Never raises. *)

val decode : string -> (Sp_obs.Json.t, error) result
(** [decode s] is {!decode_stream}[ s ~pos:0] requiring the frame to
    span the whole string (trailing bytes are a [Truncated] error, so
    fuzzers see a typed error for every malformed buffer). *)

(** {1 Socket I/O} *)

val write : Unix.file_descr -> Sp_obs.Json.t -> unit
(** Write one frame.  @raise Unix.Unix_error on transport failure. *)

val read : Unix.file_descr -> (string * Sp_obs.Json.t, error) result
(** Read one frame; returns the raw payload bytes alongside the parsed
    document (the daemon's reply payload is printed verbatim by
    [specrepro submit --json], which is what makes it byte-compatible
    with the CLI path).  Socket-level errors come back as {!Transport}
    (or {!Closed}/{!Truncated} for resets); never raises. *)
