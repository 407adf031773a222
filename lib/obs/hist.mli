(** Streaming latency histogram: geometric buckets with ratio 2^(1/8), so
    any percentile estimate is within a factor {!ratio} of the exact
    order statistic, at O(1) memory per distinct magnitude. *)

type t

(** Upper bound on [percentile] / exact-order-statistic (≈ 1.09). *)
val ratio : float

val create : unit -> t

val add : t -> float -> unit

(** [merge ~into src] folds [src]'s samples into [into].  Equivalent to
    re-adding every sample of [src] (same counts, sums, extrema and
    buckets), and insensitive to observation order. *)
val merge : into:t -> t -> unit

val count : t -> int

val sum : t -> float

val min : t -> float

val max : t -> float

(** [percentile t q] with [q] in [0, 1], nearest-rank semantics.  The
    estimate lies in [exact, exact * ratio] (exact for [q] landing on the
    tracked min/max or on non-positive samples). *)
val percentile : t -> float -> float

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summary : t -> summary
