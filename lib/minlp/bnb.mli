(** NLP-based branch-and-bound for convex MINLPs.

    The classical algorithm (Dakin's tree search with nonlinear
    relaxations): each node solves the continuous NLP relaxation under
    the node's bounds; convexity of the model class makes the relaxation
    value a valid lower bound, so pruning is exact. Serves as the
    reference solver and as the baseline against which the LP/NLP-based
    {!Oa} solver is benchmarked (experiment E6). *)

type options = {
  max_nodes : int;
  tol_int : float;
  rel_gap : float;
  branch_sos_first : bool;
}

val default_options : options

(** [run ?options ?budget ?tally ?warm_start p] — solve the MINLP,
    returning the raw {!Solution.t}. Nonlinear objectives are handled
    by epigraph normalization internally; the returned [x] is in the
    original variable space.

    The armed [budget] is polled at the top of the node loop and inside
    every NLP relaxation solve; on exhaustion the best incumbent found
    so far is returned with status [Budget_exhausted] (empty [x] when
    none was found). [warm_start] is a feasible point of [p] in the
    original variable space: it primes the incumbent (and hence the
    pruning bound), measurably cutting node counts; infeasible points
    are silently ignored. [tally] accumulates node / NLP / incumbent
    counters. *)
val run :
  ?options:options ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ?warm_start:float array ->
  Problem.t ->
  Solution.t
