(** HSLB step 3: the allocation MINLP and its solution.

    Decision variables are the nodes-per-task [n_c] for every task
    class; the model minimizes the makespan of one round in which each
    task runs in its own group (the paper's "few large tasks of diverse
    size" regime), subject to the node budget
    [Σ count_c · n_c <= N], optional "sweet-spot" restrictions of
    [n_c] to an allowed list (encoded with binaries + an SOS1 set, as
    the paper does for the ocean and atmosphere components), and the
    chosen objective.

    [Min_max] is separable: its optimum is the least time T at which
    every class's smallest admissible size meeting T fits the budget.
    The default solver ([Exact]) finds it by threshold search and
    certifies it with a witness the auditor re-checks from the specs;
    the model is also a convex MINLP that {!Minlp.Oa} (or {!Minlp.Bnb})
    solves, and OA stays the paper's method and the differential
    oracle. [Max_min] is nonconvex in epigraph form, so it is answered
    by the customized bisection its structure admits (the time curves
    are decreasing in [n] up to their minimum). [Min_sum] is answered
    by greedy marginal allocation, the customized polynomial-time route
    the paper cites (Ibaraki & Katoh). That greedy is exact when every
    class has count 1 and no sweet spots; with larger counts or sweet
    spots it can stop above the optimum (ROADMAP.md), though it still
    stamps [Optimal]. The min-sum MINLP remains available through
    {!build_minlp}. *)

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
      (** how the solve ended; [Optimal] for the threshold,
          bisection and greedy paths *)
  stats : Minlp.Solution.stats;  (** zero for those paths *)
  certificate : Engine.Certificate.t option;
      (** machine-checkable claim backing [status], which
          [Audit.check_allocation] re-checks from the specs: a MINLP
          solver's own, in {!build_minlp}'s variables; otherwise a
          witness in nodes per task, with [Threshold] evidence for
          [Exact] and [Exact_method] for the bisection/greedy paths.
          [None] only for cache hits stored by older versions *)
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
    allocation instance. Class names are length-prefixed, each law
    coefficient is the 8 bytes of its bit pattern
    ([Int64.bits_of_float], little-endian; the key is binary, not
    text), and [allowed] lists are sorted and deduplicated first
    (matching what the model does), so equal fingerprints imply
    instances the solver cannot tell apart, solved by the same
    solver. *)
val fingerprint :
  solver:Engine.Solver_choice.t -> objective:Objective.t -> n_total:int -> spec list -> string

(** The solver every allocation solve uses unless told otherwise:
    [Exact]. [hslb solve], [hslb serve] and the wire's cache key default
    to it as well. *)
val default_solver : Engine.Solver_choice.t

(** [solve ?solver ?objective ?budget ?warm_start ?trace ?cache
    ~n_total specs] — full solve + decode. [budget] is the one handle
    that stops the solve (arm it with [Engine.Budget.make ~cancel] to
    stop it from another domain); [trace] accumulates the solver's
    counters. An instance with no admissible allocation — some class
    has no size in [[n_min, min n_max n_total]] (or none of its sweet
    spots lies there), or the smallest admissible sizes overflow
    [n_total] — is [Error Infeasible] under every objective, never
    raised. [Max_min] is also [Error Infeasible] when some class has no
    admissible size on the decreasing branch of its curve.

    For [Min_max] under a MINLP solver, a greedy min-sum allocation is
    computed automatically and used to warm-start the solver unless
    [warm_start] (a nodes-per-class vector) is given; [Exact] ignores
    [warm_start]. The armed [budget] makes the solve interruptible: on
    exhaustion with an incumbent the allocation is returned with status
    [Budget_exhausted _]; without one, [Error (Budget_exhausted _)].

    [solver] (default {!default_solver}) answers [Min_max]. [Exact] is
    the threshold search: every class's least admissible size meeting
    the optimum T*, then the leftover nodes one admissible step at a
    time to the slowest class whose time the step strictly lowers
    (lowest index among ties) while it fits. It raises
    [Invalid_argument] on a law outside the convex family
    ({!Scaling_law.is_convex}) or on [n_total > 2^53]. Its certificate
    carries the allocation in nodes per task and [Threshold] evidence
    computed with {!Scaling_law.eval_int} ([Audit.check_allocation]
    re-checks both from the specs); no MINLP is built. [Oa],
    [Bnb] and [Oa_multi] run the MINLP ({!Minlp.Solver.run} at
    {!Minlp.Solver.model_rel_gap}). [Max_min]/[Min_sum] always use
    their exact customized paths, under every [solver]. [Max_min]
    keeps each class on the decreasing branch of its curve (up to the
    floor of {!Scaling_law.optimal_nodes}) and bisects for the greatest
    time t* at which the classes' largest sizes still taking t* or
    longer cover the budget together; it then gives the slowest class
    (lowest index among ties) one admissible step at a time, up to that
    size, while it fits; its certificate claims the fastest class's
    time. [Min_sum] gives the class whose next admissible step lowers
    its total time most per node (lowest index among ties) that step,
    while it lowers and fits; its certificate claims the count-weighted
    total. Both carry [Exact_method] evidence, which proves no
    optimality: neither answer is checked for it, and the greedy's is
    not always optimal (see the header).

    The three customized paths ([Exact], [Max_min], [Min_sum]) check
    the budget once, on entry — a cancelled token or a spent deadline
    is [Error (Budget_exhausted _)] — and record no B&B, LP or NLP
    counters. Each walks every class's admissible sizes by bisection:
    O(k log N) work per level test and at most k + 1 rounds of level
    bisections, after [Max_min]'s 60 halvings for t* at O(k log N)
    each, in O(k) memory besides the sweet-spot lists. No node range
    is enumerated and nothing steps once per node. Every allocation
    carries a certificate.

    [cache] memoizes solves across calls, keyed by {!fingerprint}, as
    {!memoize} stores them; a hit bypasses the solver entirely and
    returns the allocation bit-for-bit. *)
val solve :
  ?solver:Engine.Solver_choice.t ->
  ?objective:Objective.t ->
  ?budget:Engine.Budget.armed ->
  ?warm_start:int array ->
  ?trace:Engine.Telemetry.t ->
  ?cache:allocation Runtime.Cache.t ->
  n_total:int ->
  spec list ->
  (allocation, Minlp.Solution.status) result

(** How far an incumbent allocation is from the exact [Min_max]
    optimum of the specs it is priced under. *)
type reoptimality = {
  incumbent_makespan : float;  (** [U]: the incumbent's makespan under the specs' laws *)
  optimum : allocation;
      (** the default ([Exact]) min-max solve; its makespan is the
          optimum [OPT], a lower bound on every allocation's *)
  gap_rel : float;  (** [(U − OPT) / OPT], and 0 when [OPT] is 0 *)
  keep : bool;  (** [gap_rel <= eps]: the incumbent stays *)
}

(** [reoptimality ~eps ~n_total ~incumbent specs] — the one rule for
    keeping an incumbent (one node count per spec, in spec order) after
    the specs' laws moved: keep it iff its makespan is within a factor
    [1 + eps] of the optimum. [None] when the incumbent is not an
    admissible allocation of [specs]: wrong length, a size outside its
    class's box [\[max 1 n_min, min n_max n_total\]] or not among its
    sweet spots, or over the node budget. Otherwise the exact optimum is
    computed (the threshold search; no MINLP runs, whatever solver the
    caller would re-solve with). It raises what the [Exact] solve raises
    (see {!solve}), and [Invalid_argument] on an empty spec list. *)
val reoptimality :
  eps:float -> n_total:int -> incumbent:int array -> spec list -> reoptimality option

(** [memoize ~solver ~objective cache key result] — store [result]
    under [key], the one rule for {!solve}'s [cache] and [hslb serve]'s:
    proven-[Optimal] allocations only (budget-exhausted incumbents are
    timing-dependent). An [Exact] [Min_max] answer costs about as much
    to recompute as to store, so it is stored only once its key recurs
    ({!Runtime.Cache.put} [~recurring]); every other one at once. *)
val memoize :
  solver:Engine.Solver_choice.t ->
  objective:Objective.t ->
  allocation Runtime.Cache.t ->
  string ->
  (allocation, Minlp.Solution.status) result ->
  unit
