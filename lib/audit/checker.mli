(** The independent certificate checker.

    {!check_minlp} re-verifies a MINLP solver's {!Engine.Certificate.t}
    against the {e raw model} — walking the model's own constraint
    expressions, bounds, integrality and SOS1 sets — never against
    solver internals. {!check_allocation} re-verifies an allocation's
    certificate from the allocation's specs: each class's admissible
    sizes, its count and its law. A solver bug therefore cannot vouch
    for itself: the producer and the checker share only the model or
    spec representation, [Scaling_law.eval_int] and lib/numerics.

    What is checkable without re-solving: that the witness is feasible,
    that the claimed objective matches the model at the witness, that
    the claimed bound does not contradict the incumbent, and that the
    claimed gap evidence is internally consistent (a closed gap really
    is closed under the certificate's own tolerance; an exhausted cover
    really has no open branches; a threshold witness really proves its
    bound). The {e validity} of a relaxation bound itself is not
    re-derivable from a feasibility witness — the fault-injection
    stress harness ({!Stress}) covers that side by construction. *)

(** One reason a certificate was rejected. *)
type violation =
  | Missing_witness  (** the claimed status requires a witness *)
  | Witness_dimension of { expected : int; got : int }
  | Bound_violated of { var : int; value : float; lo : float; hi : float }
  | Not_a_sweet_spot of { var : int; value : float }
      (** an allocation's size inside its class's box but not among
          its sweet spots *)
  | Constraint_violated of { name : string; violation : float }
  | Not_integral of { var : int; value : float }
  | Sos1_violated of { nonzero : int }
      (** an SOS1 set with more than one nonzero member *)
  | Objective_mismatch of { claimed : float; actual : float }
  | Bound_above_incumbent of { bound : float; incumbent : float }
      (** min-sense: a lower bound claimed above the incumbent's value *)
  | Gap_open of { gap : float; allowed : float }
      (** [Gap_closed] evidence whose own numbers leave the gap open *)
  | Open_branches of int
      (** [Cover_exhausted] evidence admitting unexplored branches *)
  | Evidence_mismatch of string
      (** evidence inconsistent with the claimed status, or a
          [Threshold] witness that does not prove its bound *)

val violation_to_string : violation -> string

type verdict = (unit, violation list) result

(** "ok", or the "; "-joined violation list. *)
val summary : verdict -> string

(** [check_minlp ?tol p cert] — verify [cert] against MINLP model [p]
    (in the {e original} variable space, as certificates are emitted).
    [tol] is the checker's own feasibility slack (default [1e-5],
    relative where the quantity has a scale). An [Optimal] claim on
    [Threshold] or [Exact_method] evidence is an [Evidence_mismatch]:
    neither names anything a model can re-check. *)
val check_minlp : ?tol:float -> Minlp.Problem.t -> Engine.Certificate.t -> verdict

(** [check_allocation ~objective ~n_total specs cert] — verify the
    certificate of an allocation of [specs] on [n_total] nodes. A
    certificate whose producer names a MINLP solver
    ({!Engine.Solver_choice.minlp}) goes to {!check_minlp} against
    {!Hslb.Alloc_model.build_minlp}'s model (raising what that raises).
    Every other one is in nodes per task and is checked from the specs
    alone, enumerating no size range: each size admissible, the budget
    (in ints), the claimed objective, and [Threshold] evidence for
    [Min_max], [Exact_method] evidence for [Max_min] and [Min_sum]
    (docs/AUDIT.md). *)
val check_allocation :
  objective:Hslb.Objective.t ->
  n_total:int ->
  Hslb.Alloc_model.spec list ->
  Engine.Certificate.t ->
  verdict

(** [optimality_checked cert] — whether a pass of [cert]'s check
    covered its optimality claim too: [false] for [Exact_method]
    evidence, whose witness and objective alone are checked. *)
val optimality_checked : Engine.Certificate.t -> bool
