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
    E12) bring a law up to date with fresh samples through {!update}:
    a refit from the samples alone where they pin all four
    coefficients, a rescale of the law where they do not. *)

type fit = {
  law : Scaling_law.t;
  r2 : float;  (** coefficient of determination on the observations *)
  rmse : float;
  observations : (float * float) array;  (** (nodes, seconds) pairs used *)
}

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

(** [update law obs] — [law] brought up to date with fresh samples.

    - Samples at 4 or more distinct node counts are refit alone: the
      result is [(fit_observations obs).law], bit for bit. Four
      coefficients need four sizes, and the paper asks for at least
      four.
    - Samples at 1–3 node counts keep the law's shape: [c] stays, and
      [a], [b] and [d] are multiplied by the geometric mean of
      [y_i / T(n_i)], taken in logs, so a law in seconds meets samples
      of 1e-198 s without overflow.
    - An empty array returns [law].

    @raise Invalid_argument on an observation whose node count is not
    finite and [>= 1] or whose time is not finite and [> 0], on times
    that span too many orders of magnitude (the messages of
    {!fit_observations}, prefixed [Fitting.update:]), when [law]
    predicts no finite positive time at a sample's node count, or when
    the scaled coefficients leave the float range. *)
val update : Scaling_law.t -> (float * float) array -> Scaling_law.t

(** [predict fit n] — fitted time on [n] nodes. *)
val predict : fit -> int -> float

(** [recommended_sizes ~n_min ~n_max ~points] — geometric spacing of
    benchmark node counts between the extremes, as section III-C
    recommends (smallest allowed, largest possible, a few in between to
    capture curvature).
    @raise Invalid_argument when [points < 2], [n_min < 1], or
    [n_min > n_max] — each with a message naming the offending value. *)
val recommended_sizes : n_min:int -> n_max:int -> points:int -> int list
