(** Mixed-integer {e linear} branch-and-bound over {!Lp.Simplex}.

    Used standalone for MILP models and as the master-problem engine of
    the single-tree LP/NLP-based MINLP solver ({!Oa}): the [on_integral]
    callback fires whenever a node's LP optimum satisfies integrality
    and SOS1 conditions, and may reject the point by returning cuts that
    are added to a global pool — exactly how Quesada–Grossmann keeps a
    single tree while tightening the MILP relaxation.

    Branching follows the paper: violated SOS1 sets are branched as
    sets (split at the weighted average) before any single fractional
    variable is considered; the [branch_sos_first] toggle exists for the
    ablation experiment. *)

(** Variable-branching rule: [Most_fractional] picks the integer
    variable farthest from integrality; [Pseudocost] (default) learns
    each variable's objective degradation per branch direction and
    picks the best product score — fewer nodes once estimates warm
    up. *)
type branching = Most_fractional | Pseudocost

type options = {
  max_nodes : int;
  tol_int : float;  (** integrality tolerance *)
  rel_gap : float;  (** stop when (incumbent - bound)/|incumbent| below this *)
  branch_sos_first : bool;
  depth_first : bool;  (** false = best-bound node selection *)
  branching : branching;
}

val default_options : options

(** [on_integral x obj] — called on integer-feasible node solutions.
    [`Accept] takes the point as a new incumbent candidate; [`Reject
    cuts] refuses it and adds the rows to every remaining node;
    [`Reject_with_incumbent (cuts, x', obj')] additionally records an
    externally-constructed feasible point (the OA solver's fixed-integer
    NLP solution) as an incumbent so pruning stays sharp. *)
type callback =
  float array ->
  float ->
  [ `Accept
  | `Reject of Lp.Lp_problem.constr list
  | `Reject_with_incumbent of Lp.Lp_problem.constr list * float array * float ]

(** [sos_split members x] — partition an SOS1 set at the weighted
    average of the point [x] (both halves non-empty). Exposed for reuse
    by the nonlinear tree searches. *)
val sos_split :
  (int * float) list -> float array -> (int * float) list * (int * float) list

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
