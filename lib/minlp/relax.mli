(** Continuous relaxations of a MINLP and their solution.

    Internal plumbing for {!Bnb}, {!Oa} and {!Oa_multi}: drops
    integrality, applies node bounds and hands the resulting NLP to
    {!Nlp.Auglag} with exact expression gradients. *)

type nlp_result = {
  x : float array;
  obj : float;  (** objective of the original problem at [x] (problem sense) *)
  violation : float;  (** max constraint violation *)
  feasible : bool;  (** [violation] below tolerance *)
  converged : bool;
}

(** Compiled relaxation context: objective and constraint expressions
    lowered to closure programs, plus the linear-row LP skeleton, built
    once per solver run instead of once per node. The context is
    immutable (compiled programs hold no scratch state) and may be
    shared across domains, though each solver run already builds its
    own. *)
type ctx

(** [context p] — compile [p]'s hot-path evaluators once. *)
val context : Problem.t -> ctx

(** [solve_nlp_ctx ctx ~lo ~hi ~start] — solve the continuous
    relaxation of [ctx]'s problem restricted to the box [lo, hi].
    [start] (clamped) seeds the solver; pass the parent node's solution
    for warm starts. [budget] and [tally] are threaded into the LP
    seeding and the augmented-Lagrangian inner loops; each AugLag
    attempt counts one [nlp_solves]. *)
val solve_nlp_ctx :
  ?tol_feas:float ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ctx ->
  lo:float array ->
  hi:float array ->
  start:float array ->
  nlp_result

(** [solve_fixed ctx ~lo ~hi x] — the best continuous completion of
    [x]'s integer assignment: {!solve_nlp_ctx} over the box [lo, hi]
    with every integer variable fixed to its rounded value in [x],
    started from [x]. *)
val solve_fixed :
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ctx ->
  lo:float array ->
  hi:float array ->
  float array ->
  nlp_result

(** [midpoint lo hi] — a finite starting point inside the box
    (0 / clamped 0 when a side is infinite). *)
val midpoint : float array -> float array -> float array

(** [oa_cut c x] — outer-approximation row for the nonlinear constraint
    [c] (sense [<=]) at point [x]:
    [g(x) + ∇g(x)·(x' − x) <= rhs] as an LP row over the variables of
    [c.expr]. Valid globally when [c.expr] is convex. *)
val oa_cut : Problem.constr -> float array -> Lp.Lp_problem.constr

(** [finite_cuts cs x] — {!oa_cut} of each constraint of [cs] at [x],
    keeping the rows whose coefficients and right-hand side are all
    finite (a point on a curve's pole yields none). *)
val finite_cuts : Problem.constr list -> float array -> Lp.Lp_problem.constr list

(** [violated_nl p ?tol x] — nonlinear constraints of [p] violated at
    [x]. *)
val violated_nl : ?tol:float -> Problem.t -> float array -> Problem.constr list
