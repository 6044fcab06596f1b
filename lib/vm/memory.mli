(** Sparse paged memory for the virtual machine.

    The address space is byte-addressed but all accesses are 8-byte words
    (the cache simulators see the byte addresses; the interpreter sees
    words).  Pages are allocated lazily on first touch, so a workload with
    a multi-gigabyte *address* range costs only its actual footprint.

    Integer and floating-point data live in parallel page views: loads
    and stores of one view at an address do not alias the other.  Our
    workloads never reinterpret bytes across the two, and keeping the
    views separate lets both sides use unboxed OCaml arrays. *)

type t

val create : unit -> t

val load : t -> int -> int
(** [load mem addr] reads the word at byte address [addr] (0 if untouched). *)

val store : t -> int -> int -> unit
(** [store mem addr v] writes the word at byte address [addr]. *)

val loadf : t -> int -> float
val storef : t -> int -> float -> unit

val word_bytes : int
(** Bytes per word (8). *)

val page_bytes : int
(** Bytes per page. *)

val footprint_bytes : t -> int
(** Total bytes of pages touched so far (int + float views). *)

val tlb_refills : t -> int
(** Cumulative software-TLB refills (fast-path misses that installed an
    entry) since this memory was created.  Deterministic for a given
    access stream; the interpreter flushes deltas into the
    [vm.tlb_refills] metric. *)

val copy : t -> t
(** Deep copy: every page array is copied, so the result shares
    nothing with the source, and the source is only read — a memory
    nobody writes (a snapshot's image) can be copied from several
    domains at once.  The copy starts with a cold TLB. *)

val clear : t -> unit

(** {1 Serialisation (pinball format v2)} *)

val write : Buffer.t -> t -> unit
(** Deterministic encoding of the touched pages (sorted by index). *)

val read : Sp_util.Binio.reader -> t
(** Decode an image written by {!write}.  Every field is validated
    (page size, page indices, byte bounds).
    @raise Sp_util.Binio.Corrupt on malformed input. *)
