(** Process-wide metrics: counters, gauges and log-linear histograms.

    Every update path is lock-free (atomic increments; CAS retry loops
    for float sums), so pool workers and serve domains can update the
    same metric concurrently without coordination. Reads ([value],
    [summary], [snapshot]) are approximate under concurrent writes —
    each component is atomically read, the tuple is not — which is the
    standard metrics trade-off.

    Metrics can be used standalone ([Counter.create] etc.) or through
    the registry ([counter name] get-or-create), which {!Export} turns
    into Prometheus text exposition. Registry names should follow
    Prometheus conventions ([snake_case], unit suffix, e.g.
    [engine_budget_polls_total], [serve_solve_ms]). *)

module Counter : sig
  type t

  val create : string -> t
  val incr : ?by:int -> t -> unit
  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val create : string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  (** Quantiles are upper bucket bounds clamped to the observed
      [min]/[max]; with the default 10 buckets per decade the relative
      error is below ~26%. All fields are [nan] (and [count]/[sum]
      zero) for an empty histogram. *)
  type summary = {
    count : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  (** [create name] builds a histogram with [per_decade] (default 10)
      geometrically spaced bucket bounds per decade covering
      [\[lo, hi\]] (defaults [1e-6].. [1e4]) plus an overflow bucket.
      Raises [Invalid_argument] unless [0 < lo < hi] and
      [per_decade ≥ 1]. *)
  val create : ?lo:float -> ?hi:float -> ?per_decade:int -> string -> t

  (** Record one observation. NaN observations are dropped. *)
  val observe : t -> float -> unit

  val count : t -> int
  val name : t -> string
  val summary : t -> summary

  (** [{"count","p50","p90","p99","max"}] — the quantile summary the
      serve [stats] replies and the fleet benchmark report; quantiles
      of an empty histogram print as [null]. *)
  val summary_json : summary -> Json.t
end

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

(** {2 Registry} — get-or-create by name; raises [Invalid_argument] if
    the name is already registered as a different metric type. *)

val counter : string -> Counter.t
val gauge : string -> Gauge.t
val histogram : ?lo:float -> ?hi:float -> ?per_decade:int -> string -> Histogram.t

(** All registered metrics, sorted by name. *)
val snapshot : unit -> (string * metric) list
