(** Presolve: bound tightening by interval propagation.

    Classic feasibility-based tightening over the linear rows: for
    [Σ a_j x_j <= b] and a variable with [a_k > 0],
    [x_k <= (b − min-activity of the rest) / a_k] (and symmetrically),
    iterated to a fixpoint. Integer variables get floored/ceiled
    bounds. Tight boxes shrink the branch-and-bound trees and give the
    NLP relaxations better starting boxes — MINOTAUR ships the same
    kind of reformulation/presolve layer. *)

type result = {
  problem : Problem.t;  (** with tightened bounds *)
  rounds : int;  (** propagation rounds until fixpoint (or cap) *)
  tightened : int;  (** number of bound changes applied *)
  infeasible : bool;  (** a variable's box emptied: the problem is infeasible *)
}

(** [tighten ?max_rounds p] — propagate (default 10 rounds max). *)
val tighten : ?max_rounds:int -> Problem.t -> result

(** [framed ?tally ?warm_start p0 solve] — the frame every MINLP
    solver runs in. [p0] is epigraph-normalized ({!Problem.normalize})
    and tightened, timed as the ["presolve"] phase; a box that empties
    answers [Infeasible] with empty stats. Otherwise [solve p warm] runs
    on the tightened problem [p], where [warm] is [warm_start] lifted
    into [p]'s variables ({!Problem.lift_point}) when feasible there.
    Its answer comes back in [p0]'s variables with the objective
    re-evaluated at the returned point, and the bound clamped to that
    value: an early-aborted inner NLP can leave the epigraph variable
    above the true objective, and a certificate's claim must match its
    witness exactly. *)
val framed :
  ?tally:Engine.Telemetry.t ->
  ?warm_start:float array ->
  Problem.t ->
  (Problem.t -> float array option -> Solution.t) ->
  Solution.t
