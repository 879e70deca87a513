(** The topology-constrained placement model.

    {!Alloc_model} decides how many nodes each task class gets; this
    model decides {e where} the work lands. An instance carves the
    torus into node groups and asks for an assignment of tasks to
    groups minimizing

    {v total = makespan + comm_cost
       makespan  = max_g  sum over tasks t on g of duration_s.(t).(g)
       comm_cost = sum over task pairs i<j of
                     comm_mb.(i).(j) * hops(group i, group j)
                       * hop_cost_s_per_mb v}

    subject to per-group memory-capacity knapsack constraints: the
    tasks on group [g] must fit in [|groups.(g)| * mem_per_node_gb].
    [hops] is the minimum torus hop distance between the two groups'
    node sets (zero for tasks sharing a group — co-location is how the
    optimizer buys communication down).

    Memory-infeasible instances are rejected by {!make} with a precise
    [Invalid_argument] before any solver work (the
    {!Hslb.Fitting.recommended_sizes} per-case message convention). *)

type instance = private {
  topology : Topology.t;
  groups : int array array;  (** node ids per group, disjoint *)
  names : string array;  (** task names, for diagnostics *)
  duration_s : float array array;  (** [duration_s.(t).(g)] — compute seconds *)
  mem_gb : float array;  (** per-task working set *)
  mem_per_node_gb : float;
  comm_mb : float array array;  (** symmetric, zero diagonal *)
  hop_cost_s_per_mb : float;
}

(** Validates every shape and the two memory-feasibility necessary
    conditions (any single task must fit the largest group; the total
    must fit the machine), raising [Invalid_argument] with an exact
    per-case message naming the class and the capacities involved. *)
val make :
  topology:Topology.t ->
  groups:int array array ->
  names:string array ->
  duration_s:float array array ->
  mem_gb:float array ->
  mem_per_node_gb:float ->
  comm_mb:float array array ->
  hop_cost_s_per_mb:float ->
  unit ->
  instance

val num_tasks : instance -> int
val num_groups : instance -> int

(** [capacity_gb inst g] — [|groups.(g)| * mem_per_node_gb]. *)
val capacity_gb : instance -> int -> float

(** [hop_matrix inst] — minimum pairwise torus distance between every
    pair of groups; zero on the diagonal. *)
val hop_matrix : instance -> int array array

type eval = { makespan_s : float; comm_cost_s : float; total_s : float }

(** [eval inst assignment] — score a task→group assignment. Raises
    [Invalid_argument] on a malformed assignment (wrong length or a
    group index out of range). *)
val eval : instance -> int array -> eval

(** {!eval} against a precomputed {!hop_matrix} and without the
    assignment validation — the local search's inner loop. *)
val eval_with : hop:int array array -> instance -> int array -> eval

(** Does the assignment respect every group's memory capacity? *)
val feasible_memory : instance -> int array -> bool

(** Cache / dedupe key. Injective over topology shape, group carve,
    durations, memory (per task and per node), the comm matrix and the
    hop cost — two instances differing only in topology never share a
    key. [base] (e.g. an {!Hslb.Alloc_model.fingerprint}) is prefixed
    verbatim, so a placed solve never collides with an unplaced one. *)
val fingerprint : ?base:string -> instance -> string

(** The exact path: the placement MILP (binaries [x_tg], epigraph
    makespan, linearized products pricing every comm pair against the
    hop matrix) plus the witness embedding lifting a task→group
    assignment into the model's variable space (for warm starts and
    audit). *)
val build_milp : instance -> Minlp.Problem.t * (int array -> float array)

type solved = {
  assignment : int array;
  evaluation : eval;
  status : Minlp.Solution.status;
  stats : Minlp.Solution.stats;
  certificate : Engine.Certificate.t option;
}

(** [solve_minlp ?solver ?budget ?cancel ?warm_start ?trace inst] — the
    full MINLP path through {!Minlp.Solver.run} at
    {!Minlp.Solver.model_rel_gap}: Bnb/Oa/Oa_multi via [solver] (default
    Oa), engine budgets and cooperative cancellation, [warm_start] a
    task→group assignment priming the incumbent (the heuristic's answer,
    typically; Oa_multi has none), [trace] accumulating solver counters.
    Returns the audited-checkable certificate alongside the decoded
    assignment; [Error status] when no usable incumbent was found. *)
val solve_minlp :
  ?solver:Engine.Solver_choice.t ->
  ?budget:Engine.Budget.armed ->
  ?cancel:Engine.Cancel.t ->
  ?warm_start:int array ->
  ?trace:Engine.Telemetry.t ->
  instance ->
  (solved, Minlp.Solution.status) result
