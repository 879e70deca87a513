(** Multi-tree outer approximation (Duran–Grossmann).

    The classical OA alternation, predating the single-tree LP/NLP
    variant the paper uses: repeatedly (1) solve the MILP master built
    from all accumulated linearizations to optimality — its value is a
    valid lower bound — then (2) fix the integer assignment and solve
    the NLP for the best continuous completion — a valid upper bound and
    a fresh linearization point. Terminates when the bounds meet. Each
    iteration restarts a full MILP tree, which is exactly the cost the
    LP/NLP single-tree method ({!Oa}) avoids; experiment E6 quantifies
    the difference. *)

type options = {
  max_iterations : int;  (** master/NLP alternations *)
  milp_max_nodes : int;  (** per-master budget *)
  tol_int : float;
  tol_nl : float;
  rel_gap : float;
  branch_sos_first : bool;
}

val default_options : options

type info = {
  solution : Solution.t;
  iterations : int;  (** alternations used *)
}

(** [run ?options ?budget ?tally p] — returns the solution plus the
    iteration count. [solution.stats] accumulates over all master
    solves. The armed [budget] is checked between alternations and
    threaded into every master / NLP solve; on exhaustion the best
    incumbent is returned with status [Budget_exhausted]. *)
val run :
  ?options:options ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  Problem.t ->
  info
