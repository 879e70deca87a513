(** Augmented-Lagrangian solver for generally-constrained NLPs.

    Standard first-order multiplier method: the inner bound-constrained
    subproblems go to {!Bounded}; multipliers are updated per outer
    iteration and the penalty grows when the constraint violation fails
    to shrink. Fills filterSQP's role from the paper: solving the
    continuous relaxations inside the MINLP branch-and-bound. *)

type result = {
  x : Numerics.Vec.t;
  f : float;  (** objective value at [x] *)
  violation : float;  (** max constraint violation at [x] *)
  outer_iterations : int;
  converged : bool;  (** violation and stationarity tolerances met *)
}

(** [run ?max_outer ?tol_feas ?tol_opt ?budget ?tally p x0] — solve
    [p] starting from [x0] (clamped into the box), returning the raw
    solver record. The armed [budget] is checked between outer
    iterations and threaded into the inner {!Bounded} solves; on
    exhaustion the current iterate is returned with
    [converged = false]. *)
val run :
  ?max_outer:int ->
  ?tol_feas:float ->
  ?tol_opt:float ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  Nlp_problem.t ->
  Numerics.Vec.t ->
  result
