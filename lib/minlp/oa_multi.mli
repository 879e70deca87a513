(** Multi-tree outer approximation (Duran–Grossmann).

    The classical OA alternation, predating the single-tree LP/NLP
    variant the paper uses: repeatedly (1) solve the MILP master built
    from all accumulated linearizations to optimality — its value is a
    valid lower bound — then (2) fix the integer assignment and solve
    the NLP for the best continuous completion — a valid upper bound and
    a fresh linearization point. Terminates when the bounds meet, or
    after 100 alternations. Each iteration restarts a full MILP tree,
    which is exactly the cost the LP/NLP single-tree method ({!Oa})
    avoids; experiment E6 quantifies the difference. *)

(** Its defaults: 50,000 nodes per master, gap 1e-6, SOS1 first,
    pseudocost branching. [max_nodes] caps each master; [rel_gap]
    serves both the masters and the alternation's stop. *)
val default_options : Milp.options

type info = {
  solution : Solution.t;
  iterations : int;  (** alternations used *)
}

(** [run ?options ?budget ?tally p] — returns the solution, solved in
    {!Presolve.framed}, plus the iteration count. [solution.stats]
    accumulates over all master solves; its [cuts], like the tally's
    [oa_cuts], counts each cut generated after the root's seed cuts
    once, as {!Oa} does. The armed [budget] is checked
    between alternations and threaded into every master / NLP solve; on
    exhaustion the best incumbent is returned with status
    [Budget_exhausted]. *)
val run :
  ?options:Milp.options ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  Problem.t ->
  info
