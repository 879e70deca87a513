(** Two-phase dense primal simplex.

    Plays the role of CLP in the paper's stack: it solves the LP
    relaxations inside the MILP branch-and-bound and the master problems
    of the LP/NLP-based MINLP algorithm. General bounds and free
    variables are handled by substitution; degeneracy is handled by
    switching from Dantzig to Bland's rule, which guarantees
    termination. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit  (** gave up; [x]/[obj] hold the last iterate *)

type solution = {
  status : status;
  x : float array;  (** length [num_vars]; meaningful when [Optimal] *)
  obj : float;  (** objective value in the problem's own sense *)
}

(** [run ?max_iter ?budget ?tally p] — solve [p], returning the raw
    solver record. The result's [x] is in the original variable space
    (bound offsets undone).

    The tableau is a flat row-major [float array] (stride = columns +
    rhs); pivoting and the ratio test are allocation-free.

    [budget] is an armed {!Engine.Budget}: each pivot bumps its
    iteration counter and the deadline/cancel token is polled every 64
    pivots; on exhaustion the status is [Iteration_limit] (interpret the
    cause via [Engine.Budget.inspect]). [tally] accumulates [lp_solves]
    and [simplex_pivots]. *)
val run :
  ?max_iter:int ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  Lp_problem.t ->
  solution
