(** Recursive least squares with Sherman–Morrison rank-one updates.

    The online half of the fitting layer: a state holds the current
    parameter estimate [theta] and the inverse normal-equations matrix
    [P = (JᵀJ + ridge·I)⁻¹] of the linearized system. Each [update]
    folds one new (gradient, prediction-error) pair into both in O(k²)
    — no refactorization, no stored observation matrix — via the
    Sherman–Morrison identity

    [P ← P − (P g gᵀ P) / (1 + gᵀ P g)],  [theta ← theta + (P g)·e].

    Numerically this is the information-filter form of recursive least
    squares; it is exact for linear models and a Gauss–Newton
    approximation for linearized nonlinear ones (the caller decides
    when linearization error warrants a full refit — see
    {!Hslb.Fitting.Online}). *)

type t

(** [create theta0] — a state whose estimate is [theta0] held by a
    ridge prior of weight [1e-4]: [P = I/1e-4], so the first steps are
    large (a weakly held seed). [theta0] is copied. *)
val create : float array -> t

(** [of_normal_equations ~jtj theta] — seed from an explicit
    normal-equations matrix [JᵀJ] (e.g. the Jacobian of a batch fit at
    its solution): [P = (JᵀJ + 1e-8·D²)⁻¹], with [D²] the diagonal of
    [JᵀJ] (1 where it is 0), inverted in Jacobi-scaled form so that a
    finite [JᵀJ] never makes it singular, however far apart the
    parameters' scales are.
    @raise Invalid_argument on a non-square or mismatched [jtj]. *)
val of_normal_equations : jtj:float array array -> float array -> t

(** [update t ~gradient ~error] — one rank-one step: fold in an
    observation whose linearized model row is [gradient] and whose
    prediction error (observed minus predicted, in the residual's
    scaling) is [error]. Returns [false], leaving the state as it was,
    when a term of the step is not finite (a gradient scaled far from
    [P]'s units).
    @raise Invalid_argument on a gradient of the wrong length. *)
val update : t -> gradient:float array -> error:float -> bool

(** Current estimate (a copy). *)
val theta : t -> float array

(** [set_theta t v] — overwrite the estimate in place (used to project
    back into a feasible box after an update). Length-checked. *)
val set_theta : t -> float array -> unit
