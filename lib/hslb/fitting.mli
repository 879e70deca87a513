(** HSLB step 2: fit the performance model to benchmark observations.

    Solves the constrained least-squares problem of Table II (line 10):
    minimize [Σ ((y_i − a/n_i^c − b·n_i − d)/y_i)²] over the box
    [c ∈ \[0, 2\]], [a ∈ \[0, 1e3·y_max·n_max\]], [b ∈ \[0, y_max\]],
    [d ∈ \[0, 2·y_max\]]. Residuals are relative so the fast large-[n]
    tail — where allocations land — carries the same weight as the slow
    small-[n] region.

    The problem is non-convex in c only: for a fixed c the law is linear
    in (a, b, d). So the fit is variable projection (Golub and Pereyra,
    1973): for each trial c the box-constrained linear least squares in
    (a, b, d) is solved exactly, and a deterministic one-dimensional
    search picks c. The paper's multi-start stands in for that search;
    this fit draws no random numbers, and the same observations always
    give the same law, bit for bit.

    Long-lived callers that hold only coefficients (serve's [resolve],
    E12) keep an {!Online.t} and fold fresh observations in with
    rank-one updates, falling back to this same fit. *)

type fit = {
  law : Scaling_law.t;
  r2 : float;  (** coefficient of determination on the observations *)
  rmse : float;
  observations : (float * float) array;  (** (nodes, seconds) pairs used *)
}

(** Incremental fit state over the normal-equations sufficient
    statistics of the linearized problem.

    [observe] performs a Sherman–Morrison rank-one update (see
    {!Numerics.Rls}) of the coefficient estimate at the current
    linearization point, projected back into the box ([a,b,d >= 0],
    [c ∈ \[0,2\]]). When the relative RMSE of the current law over the
    most recent (up to 8) observations exceeds 0.25, and the observations
    it has seen span two or more node counts, the state refits with
    {!fit_observations} over all of them and re-linearizes there, in
    that fit's units. A rank-one step whose terms would overflow (a
    time far from the state's units) is skipped and not counted. *)
module Online : sig
  type t

  (** [of_law law] — seed the estimate from an already-fitted law with
      no observation history (the serve-layer case: the model store
      holds coefficients, not raw benchmarks), held by a ridge prior of
      weight [1e-4] (see {!Numerics.Rls.create}). *)
  val of_law : Scaling_law.t -> t

  (** [observe t (n, y)] — fold in one benchmark point with a rank-one
      update, then refit if the linearization error exceeds the
      threshold.
      @raise Invalid_argument when [n] is not finite and [>= 1] or [y]
      is not finite and [> 0], naming the pair, or when the refit
      raises it ({!fit_observations}). *)
  val observe : t -> float * float -> unit

  (** [observe_all t obs] — [observe] each in order. *)
  val observe_all : t -> (float * float) array -> unit

  (** Current law. *)
  val law : t -> Scaling_law.t

  (** Count of rank-one updates applied. *)
  val rank_one_updates : t -> int

  (** Count of fallback refits performed. *)
  val full_refits : t -> int
end

(** [fit_observations obs] — fit one task class.

    For each trial c, (a, b, d) is the exact minimizer over its box,
    found by trying the 27 faces of the box (each coefficient at 0, at
    its bound, or free) on the 3×3 normal equations and skipping
    singular faces. c is searched on a 41-point grid over [\[0, 2\]],
    then by golden section on the best grid point's bracket (its two
    neighbours) until the bracket is narrower than [1e-9]; the best c
    evaluated wins. A coefficient on its lower face is [+0.]. The fit
    runs in units of a power of two near the largest time, so times
    scaled by [2^k] give [a], [b] and [d] scaled by [2^k] and the same
    [c], bit for bit, and times of [1e-200] s fit as well as seconds.

    [obs] must contain at least 2 distinct node counts; the paper
    recommends >= 4 ("at least greater than four for each component").
    [rng] is accepted and ignored: the fit draws nothing.
    @raise Invalid_argument with fewer than 2 distinct node counts, on
    an observation whose node count is not finite and [>= 1] or whose
    time is not finite and [> 0] (the message names the pair), or when
    the times span too many orders of magnitude (~150 and up) for their
    relative residuals to be weighed in floats. *)
val fit_observations : ?rng:Numerics.Rng.t -> (float * float) array -> fit

(** [predict fit n] — fitted time on [n] nodes. *)
val predict : fit -> int -> float

(** [recommended_sizes ~n_min ~n_max ~points] — geometric spacing of
    benchmark node counts between the extremes, as section III-C
    recommends (smallest allowed, largest possible, a few in between to
    capture curvature).
    @raise Invalid_argument when [points < 2], [n_min < 1], or
    [n_min > n_max] — each with a message naming the offending value. *)
val recommended_sizes : n_min:int -> n_max:int -> points:int -> int list
