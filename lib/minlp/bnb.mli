(** NLP-based branch-and-bound for convex MINLPs.

    The classical algorithm (Dakin's tree search with nonlinear
    relaxations): {!Milp.search}'s tree, with each node relaxed to the
    continuous NLP under the node's bounds. The baseline against which
    the LP/NLP-based {!Oa} solver is benchmarked (experiment E6).

    It proves less than its status says. Each node NLP is solved by
    {!Nlp.Auglag}, a local first-order method: for a convex model the
    exact relaxation value would be a valid lower bound, but the value
    the solver stops at can sit above it, so pruning on it can discard
    the subtree that holds the optimum, and the reported bound is not
    a proven one. An [Optimal] answer can therefore sit above the true
    optimum: 74.0183 against OA's 72.0853 on
    [examples/models/allocation.mod], up to 19% on E6's 16-class model
    (EXPERIMENTS.md). A sound node bound is ROADMAP item 7. *)

(** Its defaults: 20,000 nodes, gap 1e-6, SOS1 first, most-fractional
    branching. *)
val default_options : Milp.options

(** [run ?options ?budget ?tally ?warm_start p] — solve the MINLP in
    {!Presolve.framed}, returning the raw {!Solution.t}; the returned
    [x] is in the original variable space.

    The root relaxation starts from the warm start when one is given
    and feasible, otherwise from the box midpoint; every other node
    from its parent's relaxation point. An integral relaxation point is
    polished before it is offered as an incumbent: the NLP is re-solved
    with its integer assignment fixed ({!Relax.solve_fixed}), and the
    better of the two points is kept (rounding the relaxation point
    alone can be measurably suboptimal).

    The armed [budget] is polled at the top of the node loop and inside
    every NLP solve; on exhaustion the best incumbent found so far is
    returned with status [Budget_exhausted] (empty [x] when none was
    found). [warm_start] is a feasible point of [p] in the original
    variable space: it primes the incumbent (and hence the pruning
    bound); infeasible points are silently ignored. [tally] accumulates
    node / NLP / incumbent counters and the "presolve" phase timer. *)
val run :
  ?options:Milp.options ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ?warm_start:float array ->
  Problem.t ->
  Solution.t
