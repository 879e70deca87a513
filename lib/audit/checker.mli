(** The independent certificate checker.

    {!check_minlp} re-verifies a solver's {!Engine.Certificate.t} against
    the {e raw model} — walking the model's own constraint expressions,
    bounds, integrality and SOS1 sets — never against solver internals.
    A solver bug therefore cannot vouch for itself: the only shared code
    between producer and checker is the model representation and
    lib/numerics.

    What is checkable without re-solving: that the witness is feasible,
    that the claimed objective matches the model at the witness, that
    the claimed bound does not contradict the incumbent, and that the
    claimed gap evidence is internally consistent (a closed gap really
    is closed under the certificate's own tolerance; an exhausted cover
    really has no open branches). The {e validity} of the relaxation
    bound itself is not re-derivable from a feasibility witness — the
    fault-injection stress harness ({!Stress}) covers that side by
    construction. *)

(** One reason a certificate was rejected. *)
type violation =
  | Missing_witness  (** the claimed status requires a witness *)
  | Witness_dimension of { expected : int; got : int }
  | Bound_violated of { var : int; value : float; lo : float; hi : float }
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
      (** evidence constructor inconsistent with the claimed status *)

val violation_to_string : violation -> string

type verdict = (unit, violation list) result

(** "ok", or the "; "-joined violation list. *)
val summary : verdict -> string

(** [check_minlp ?tol p cert] — verify [cert] against MINLP model [p]
    (in the {e original} variable space, as certificates are emitted).
    [tol] is the checker's own feasibility slack (default [1e-5],
    relative where the quantity has a scale). *)
val check_minlp : ?tol:float -> Minlp.Problem.t -> Engine.Certificate.t -> verdict
