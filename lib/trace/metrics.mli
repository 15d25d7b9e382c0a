(** Per-run metrics registry: named counters and histograms.

    Export order is sorted by name, so snapshots are deterministic
    regardless of registration order. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** 0 for a name never incremented. *)

val observe : t -> string -> float -> unit
(** Record one value into a log-bucketed histogram (HDR-style: 16
    linear sub-buckets per power-of-two octave from 1 us up, < 1/16
    relative error per bucket).  The first 512 observations are also
    kept verbatim so small histograms answer quantiles exactly. *)

val merge : into:t -> t -> unit
(** Fold a second registry into [into]: counters add, histograms
    combine bucket-wise (and sample-wise while both sides are still
    within the exact-sample cap).  Merging per-shard registries in a
    fixed order yields a deterministic aggregate. *)

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
}

val histogram : t -> string -> histogram_snapshot option

val quantile : t -> string -> float -> float option
(** [quantile t name q] for [q] in [[0, 1]] (e.g. 0.5 / 0.99 / 0.999).
    Nearest-rank over the raw samples while the histogram holds at
    most 512 observations (exact); past that, linear interpolation
    inside the straddling log bucket, clamped to the observed
    [min, max].  [None] if the histogram does not exist or is empty.
    Raises [Invalid_argument] if [q] is outside [0, 1]. *)

val counters : t -> (string * int) list

val to_json : t -> string
(** One-line deterministic JSON object. *)
