(** Solver result types shared by the MILP, NLP-based and LP/NLP-based
    branch-and-bound algorithms.

    [reason] and [status] are re-exports (type equations) of
    {!Engine.Status.reason} and {!Engine.Status.t}: every solver layer
    in the stack reports the same status type, and existing pattern
    matches over [Solution.status] keep compiling unchanged. *)

(** Why a solver stopped before proving optimality. *)
type reason = Engine.Status.reason =
  | Node_limit  (** the solver's own node / outer-iteration cap *)
  | Iter_limit  (** an LP pivot / NLP iteration cap *)
  | Round_limit  (** OA alternation round cap *)
  | Deadline  (** engine budget: wall-clock deadline elapsed *)
  | Cancelled  (** engine budget: cancel token triggered *)

type status = Engine.Status.t =
  | Optimal  (** proven optimal within the gap tolerance *)
  | Feasible of reason
      (** a feasible incumbent is in [x], but the search stopped early
          on a solver-internal limit, so optimality is unproven *)
  | Infeasible
  | Unbounded
  | Budget_exhausted of reason
      (** the {!Engine.Budget} stopped the run — or it stopped early for
          [reason] before any incumbent was found. [x] holds the best
          incumbent found so far when there is one (check
          {!has_incumbent}), and is empty otherwise *)

type stats = {
  nodes : int;  (** branch-and-bound nodes processed *)
  lp_solves : int;
  nlp_solves : int;
  cuts : int;  (** outer-approximation cuts added *)
}

type t = {
  status : status;
  x : float array;
  obj : float;
  bound : float;  (** best proven bound on the optimum (min-sense value) *)
  stats : stats;
}

val empty_stats : stats
val reason_to_string : reason -> string
val status_to_string : status -> string

(** The solution carries a usable (feasible) point in [x]: status is
    [Optimal], [Feasible _], or [Budget_exhausted _] with a non-empty
    [x]. *)
val has_incumbent : t -> bool

(** Map an engine budget-stop reason into a status reason. *)
val reason_of_budget : Engine.Budget.reason -> reason

(** [certify ~producer ?budget ?minimize ?tol ?pruned s] — the
    machine-checkable certificate backing [s]'s status claim. An
    [Optimal] claim gets [Cover_exhausted] evidence built from the
    solution's node count (plus [pruned] when the caller tracked it);
    incumbents without a proof get [Incumbent_only]; empty-handed
    statuses get [No_witness]. When [budget] is given, its stop verdict
    is recorded (via the non-charging {!Engine.Budget.inspect}, so
    certifying never perturbs a fault-injection schedule). *)
val certify :
  producer:string ->
  ?budget:Engine.Budget.armed ->
  ?minimize:bool ->
  ?tol:float ->
  ?pruned:int ->
  t ->
  Engine.Certificate.t

(** [to_result ~producer ... s] — the {!Engine.Solver_intf.S}-shaped
    view of a solution: [Ok] with a {!certify}-built certificate when
    [s] carries a usable incumbent, [Error s.status] otherwise. *)
val to_result :
  producer:string ->
  ?budget:Engine.Budget.armed ->
  ?minimize:bool ->
  ?tol:float ->
  ?pruned:int ->
  t ->
  (t Engine.Solver_intf.certified, status) result

val pp : Format.formatter -> t -> unit
