(** HSLB step 3: the allocation MINLP and its solution.

    Decision variables are the nodes-per-task [n_c] for every task
    class; the model minimizes the makespan of one round in which each
    task runs in its own group (the paper's "few large tasks of diverse
    size" regime), subject to the node budget
    [Σ count_c · n_c <= N], optional "sweet-spot" restrictions of
    [n_c] to an allowed list (encoded with binaries + an SOS1 set, as
    the paper does for the ocean and atmosphere components), and the
    chosen objective.

    [Min_max] is a convex MINLP solved by {!Minlp.Oa} (or {!Minlp.Bnb}).
    [Max_min] is nonconvex in epigraph form, so it is solved by the
    customized bisection its structure admits (the time curves are
    decreasing in [n] up to their minimum). [Min_sum] is a separable
    convex resource-allocation problem and is solved exactly by greedy
    marginal allocation — the customized polynomial-time route the paper
    cites (Ibaraki & Katoh); its MINLP form remains available through
    {!build_minlp} for the solver benchmarks. *)

type spec = {
  fc : Classes.fitted;
  n_min : int;  (** smallest group size allowed for this class *)
  n_max : int;  (** largest group size allowed *)
  allowed : int list option;  (** sweet spots: restrict [n_c] to this list *)
}

(** [spec_of ?n_min ?n_max ?allowed fc] — defaults: [n_min = 1],
    [n_max] = node budget at solve time. *)
val spec_of : ?n_min:int -> ?n_max:int -> ?allowed:int list -> Classes.fitted -> spec

type allocation = {
  nodes_per_task : int array;  (** indexed like the spec list *)
  predicted_makespan : float;  (** max over classes of fitted time *)
  predicted_times : float array;  (** fitted per-class times *)
  status : Minlp.Solution.status;
      (** how the solve ended; [Optimal] for the exact
          bisection/greedy paths *)
  stats : Minlp.Solution.stats;  (** zero for the bisection path *)
  certificate : Engine.Certificate.t option;
      (** machine-checkable claim backing [status]: solver-emitted for
          the [Min_max] MINLP path ([Audit.check_minlp]-verifiable
          against {!build_minlp}'s problem), [Exact_method] for the
          bisection/greedy paths, [None] only for cache hits stored by
          older versions *)
}

(** [restrict_to_values b ~var values] — restrict an integer variable
    of a model under construction to a discrete value list using
    binaries linked by equality rows plus an SOS1 set (the paper's
    sweet-spot encoding). The list is deduplicated and sorted first.
    Returns the (binary variable, value) pairs in increasing value
    order. Shared with the layout models. *)
val restrict_to_values :
  Minlp.Problem.Builder.b -> var:int -> int list -> (int * int) list

(** [build_minlp ~objective ~n_total specs] — the MINLP (for
    [Min_max]/[Min_sum]; raises on [Max_min]). Returns the problem, the
    indices of the [n_c] variables, and a lifting function mapping a
    nodes-per-class vector to a full variable-space point (epigraph and
    sweet-spot binaries filled in) — the warm-start format the solvers
    take. Exposed for the solver-benchmark experiment E6. *)
val build_minlp :
  objective:Objective.t ->
  n_total:int ->
  spec list ->
  Minlp.Problem.t * int array * (int array -> float array)

(** [fingerprint ~solver ~objective ~n_total specs] — a canonical,
    injective serialization of the solve, suitable as a
    {!Runtime.Cache} key: the solver that answers it, then the
    allocation instance. Class names are length-prefixed, law
    coefficients are printed round-trippably ([%.17g]), and [allowed]
    lists are sorted and deduplicated first (matching what the model
    does), so equal fingerprints imply instances the solver cannot tell
    apart, solved by the same solver. *)
val fingerprint :
  solver:Engine.Solver_choice.t -> objective:Objective.t -> n_total:int -> spec list -> string

(** [solve ?solver ?objective ?budget ?cancel ?warm_start ?trace ?cache
    ~n_total specs] — full solve + decode, following the
    {!Engine.Solver_intf.S} labelled-argument convention ([?budget
    ?cancel ?warm_start ?trace]) with the model-layer knobs around it. Infeasibility (e.g. a node budget below one group per
    task) is returned as [Error], not raised.

    For [Min_max], a greedy min-sum allocation is computed automatically
    and used to warm-start the solver unless [warm_start] (a
    nodes-per-class vector) is given. The armed [budget] makes the solve
    interruptible: on exhaustion with an incumbent the allocation is
    returned with status [Budget_exhausted _]; without one, [Error
    (Budget_exhausted _)].

    [solver] (default [Oa]) is the one solver the [Min_max] MINLP runs;
    [Max_min]/[Min_sum] always use their exact customized paths. Every
    solver-path allocation carries a certificate.

    [cache] memoizes solves across calls, keyed by {!fingerprint}. Only
    proven-[Optimal] results are stored (budget-exhausted incumbents are
    timing-dependent); a hit bypasses the solver entirely and returns
    the allocation bit-for-bit. *)
val solve :
  ?solver:Engine.Solver_choice.t ->
  ?objective:Objective.t ->
  ?budget:Engine.Budget.armed ->
  ?cancel:Engine.Cancel.t ->
  ?warm_start:int array ->
  ?trace:Engine.Telemetry.t ->
  ?cache:allocation Runtime.Cache.t ->
  n_total:int ->
  spec list ->
  (allocation, Minlp.Solution.status) result

(** [assignment_milp ~group_sizes ~duration ~num_tasks] — the second
    model family: groups fixed, assign tasks to groups minimizing
    predicted makespan (a pure MILP). Falls back to LPT when the node
    budget of the branch-and-bound is exhausted. Returns (task→group,
    predicted makespan). *)
val assignment_milp :
  ?max_nodes:int ->
  group_sizes:int array ->
  duration:(task:int -> group:int -> float) ->
  num_tasks:int ->
  unit ->
  int array * float
