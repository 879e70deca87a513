(** The branch-and-bound tree every solver in this library runs.

    {!run} searches it over LP relaxations ({!Lp.Simplex}): standalone
    for MILP models, and as the master problem of the single-tree
    LP/NLP-based MINLP solver ({!Oa}), whose [on_integral] callback
    rejects an integral LP point by returning cuts that join a global
    pool — exactly how Quesada–Grossmann keeps a single tree while
    tightening the MILP relaxation. {!search} is the same tree over any
    node relaxation; the NLP-based solver ({!Bnb}) plugs in its
    continuous NLP.

    Nodes are expanded best bound first. Branching follows the paper:
    violated SOS1 sets are branched as sets (split at the weighted
    average) before any single fractional variable is considered; the
    [branch_sos_first] toggle exists for the ablation experiment. *)

(** Variable-branching rule: [Most_fractional] picks the integer
    variable farthest from integrality; [Pseudocost] learns each
    variable's objective degradation per branch direction and picks the
    best product score — fewer nodes once estimates warm up. *)
type branching = Most_fractional | Pseudocost

(** The options of every tree search: {!run} and the three MINLP
    solvers each ship their own defaults of this one record. *)
type options = {
  max_nodes : int;  (** nodes expanded before the search stops with [Feasible Node_limit] *)
  rel_gap : float;  (** stop when (incumbent - bound)/|incumbent| below this *)
  branch_sos_first : bool;
  branching : branching;
}

(** {!run}'s: 100,000 nodes, gap 1e-9, SOS1 first, pseudocost. *)
val default_options : options

(** [on_integral ~lo ~hi x obj] — called on a node whose relaxation
    point [x] (integer variables rounded) with value [obj] satisfies
    integrality and SOS1 conditions; [lo, hi] is the node's box.
    [`Accept (x', obj')] closes the node and offers [x'] as an
    incumbent at value [obj'] (an unrejected point offers itself);
    [`Reject (cuts, offer)] adds the rows to every remaining node,
    offers the optional point, and re-opens the node against the
    tightened relaxation. An offered point replaces the incumbent when
    its value is better. *)
type callback =
  lo:float array ->
  hi:float array ->
  float array ->
  float ->
  [ `Accept of float array * float
  | `Reject of Lp.Lp_problem.constr list * (float array * float) option ]

(** [run ?options ?extra_rows ?on_integral ?budget ?tally ?warm_start p]
    — [p] must have a linear objective and only linear constraints
    (raise otherwise). [extra_rows] are appended to the LP relaxation
    (the OA solver's initial cut set).

    The armed [budget] is polled at the top of the node loop and inside
    every LP solve; on exhaustion the best incumbent found so far is
    returned with status [Budget_exhausted] (empty [x] when none).
    [warm_start] primes the incumbent with a feasible point of [p] —
    infeasible points are ignored. [tally] accumulates node, LP, cut and
    incumbent counters. *)
val run :
  ?options:options ->
  ?extra_rows:Lp.Lp_problem.constr list ->
  ?on_integral:callback ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ?warm_start:float array ->
  Problem.t ->
  Solution.t

(** [search ~options ~relax ~root ~carry ~on_integral ~add_cuts ?budget
    ?tally ?warm_start p] — the node loop of {!run} over the relaxation
    [relax start ~lo ~hi], which solves the relaxation of [p] over the
    box from the state [start] its node carries: the root carries
    [root], and both children of a node carry [carry x] of its
    relaxation point [x]. A relaxation reports [Optimal] with its point
    and value, or [Infeasible] to prune the node ([Unbounded] at the
    root ends the search; [Iteration_limit] abandons the node and
    withholds the optimality claim). [add_cuts] receives the rows of
    every [`Reject], which the relaxation must honour from then on.

    The returned stats count nodes and cuts; their [lp_solves] and
    [nlp_solves] are 0, for the caller to fill in. Budget, warm start
    and tally act as in {!run}. *)
val search :
  options:options ->
  relax:('a -> lo:float array -> hi:float array -> Lp.Simplex.solution) ->
  root:'a ->
  carry:(float array -> 'a) ->
  on_integral:callback ->
  add_cuts:(Lp.Lp_problem.constr list -> unit) ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ?warm_start:float array ->
  Problem.t ->
  Solution.t
