(** Domain-safe metrics registry: counters, gauges and histograms.

    Values are recorded into per-domain shards (one [Domain.DLS] lookup
    plus an array update on the hot path — no locks or atomics) and
    merged only when a snapshot is taken.  Metrics are write-only side
    channels: nothing in the pipeline reads them back, so recording can
    never perturb pipeline outputs and [--jobs N] stays bit-identical.

    The [stable] flag declares whether a metric's merged value is a
    pure function of the executed work (identical for any job count) or
    may legitimately vary with scheduling (timings, pool internals).
    [stable_snapshot] filters to the former; the observability tests
    assert their equality across job counts. *)

type counter
type gauge
type histogram

(** {1 Registration}

    Registering the same name twice with the same kind returns the
    existing metric; with a different kind it raises [Invalid_argument].
    Registration is cheap but takes a lock — do it once at module
    initialisation, not per call site. *)

val counter : ?stable:bool -> string -> counter
(** [stable] defaults to [true]: counters usually count work items. *)

val gauge : ?stable:bool -> string -> gauge
(** [stable] defaults to [false]: a merged gauge reports the most
    recently written value, which is scheduling-dependent. *)

val histogram : ?stable:bool -> string -> histogram
(** [stable] defaults to [false]: histograms usually record timings. *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val addf : counter -> float -> unit

val set : gauge -> float -> unit
(** Last write (globally sequenced) wins at merge time. *)

val observe : histogram -> float -> unit
(** Record one observation.  Buckets are powers of two over the value's
    binary exponent, so quantile estimates have octave resolution;
    count, sum, min and max are exact. *)

(** {1 Report-time merge} *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when [count = 0] *)
  max : float;  (** [neg_infinity] when [count = 0] *)
  buckets : int array;
}

type value =
  | Counter_value of float
  | Gauge_value of float
  | Histogram_value of hist_snapshot

type sample = { name : string; stable : bool; value : value }

val snapshot : unit -> sample list
(** Merge all shards.  Sorted by name.  Exact when taken at quiescence
    (no concurrent recording); advisory otherwise. *)

val stable_snapshot : unit -> sample list
(** [snapshot] filtered to metrics registered [~stable:true]. *)

val find : string -> sample list -> sample option
val counter_value : sample list -> string -> float option

val quantile : hist_snapshot -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0..1]) by linear
    interpolation within the containing bucket, clamped to the recorded
    min/max.  [nan] when the histogram is empty. *)

val reset : unit -> unit
(** Zero every shard (all domains).  Call only at quiescence — used by
    tests and by the CLI before starting a traced run. *)

val to_json : sample list -> Json.t
(** Render samples as a JSON array (one object per metric). *)
