(** LP/NLP-based branch-and-bound (single-tree outer approximation).

    The algorithm the paper uses from MINOTAUR (Quesada–Grossmann /
    Fletcher–Leyffer [13]): a {e single} MILP tree ({!Milp.run}) is
    searched; whenever a node's LP optimum is integer feasible, the
    nonlinear constraints are checked. If violated, an NLP with the
    integer assignment fixed is solved, outer-approximation cuts are
    generated at its solution (or feasibility cuts at the LP point when
    the fixed NLP is infeasible), and the node is re-solved against the
    tightened relaxation. Convexity of the fitted performance functions
    (coefficients [a, b, d >= 0]) guarantees the cuts are globally
    valid, so the returned solution is a global optimum — the property
    the paper highlights ("guarantees to provide an optimal solution or
    show that none exists"). After 60 cut rounds on one integer
    assignment (a cycling guard) the cuts are taken at the LP point
    instead. *)

(** Its defaults: 100,000 master nodes, gap 1e-6, SOS1 first,
    pseudocost branching. *)
val default_options : Milp.options

(** [run ?options ?budget ?tally ?warm_start p] — solve a convex MINLP
    in {!Presolve.framed}, returning the raw {!Solution.t}; [x] is
    returned in the original variable space.

    The armed [budget] covers the whole run (root NLP, master tree,
    fixed-integer NLPs); on exhaustion the best incumbent is returned
    with status [Budget_exhausted]. [warm_start] is a feasible point of
    [p] in the original variable space: it primes the master tree's
    incumbent so pruning is sharp from the first node, and the master's
    first cuts linearize the nonlinear rows there as well as at the root
    relaxation's point (points that fail the feasibility check are
    silently ignored). [tally] accumulates the
    full counter set, plus "presolve" / "root-nlp" / "master" phase
    timers. *)
val run :
  ?options:Milp.options ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ?warm_start:float array ->
  Problem.t ->
  Solution.t
