(** The one solver status vocabulary shared by every layer of the stack.

    Before this module each solver family kept its own variant
    ([Lp.Simplex.status], [Minlp.Solution.status], ad-hoc [converged]
    booleans in the NLP layer); {!t} replaces them all so results can
    flow through the engine, the model layers and the audit layer
    without lossy translation. [Minlp.Solution.status] is re-exported as
    an equation on this type, so existing pattern matches keep working.

    Constructor meaning:
    - [Optimal] — proven optimal within the solver's gap tolerance. Any
      [Optimal] claim is expected to carry a {!Certificate.t} that
      [Audit.check] can verify independently.
    - [Feasible r] — a usable incumbent exists but the search stopped on
      a solver-internal limit [r], so optimality is unproven.
    - [Infeasible] / [Unbounded] — proven properties of the model.
    - [Budget_exhausted r] — the {e engine} budget stopped the run. *)

type reason =
  | Node_limit  (** the solver's own node / outer-iteration cap *)
  | Iter_limit  (** an LP pivot / NLP iteration cap *)
  | Round_limit  (** OA alternation round cap *)
  | Deadline  (** engine budget: wall-clock deadline elapsed *)
  | Cancelled  (** engine budget: cancel token triggered *)

type t =
  | Optimal
  | Feasible of reason
  | Infeasible
  | Unbounded
  | Budget_exhausted of reason

val reason_to_string : reason -> string
val to_string : t -> string

(** Inverses of [reason_to_string] / [to_string] (used when statuses
    round-trip through reports and certificates). *)
val reason_of_string : string -> reason option

val of_string : string -> t option

(** A status that proves something about the model: [Optimal],
    [Infeasible] or [Unbounded]. *)
val is_final : t -> bool

(** Map an engine budget-stop reason into a status reason. *)
val reason_of_budget : Budget.reason -> reason

val pp : Format.formatter -> t -> unit
