(** Cheap LP presolve for the MINLP relaxation layer: [Minlp.Relax]
    runs it before the LP that seeds each NLP relaxation.

    [reduce] applies, to a fixpoint: fixed-variable substitution
    (variables whose bounds coincide — branching pins many), empty-row
    feasibility checks, singleton-row elimination by bound tightening;
    then a power-of-two row equilibration (exponent shifts only, exact
    in binary floating point).  The reduced problem has the fixed
    columns removed; [recover] maps a reduced solution back to the full
    variable space.

    Note the reduced problem's objective omits the constant contributed
    by fixed variables — evaluate the original objective on the
    recovered point when the value matters. *)

type reduction

(** [reduce p] — [`Infeasible] when presolve proves the LP empty
    (crossed bounds, unsatisfiable constant row), [`Solved x] when
    every variable is pinned by its bounds and all rows hold at [x],
    otherwise [`Reduced r]. *)
val reduce : Lp_problem.t -> [ `Infeasible | `Solved of float array | `Reduced of reduction ]

(** The reduced LP to hand to {!Simplex.run}. *)
val reduced : reduction -> Lp_problem.t

(** [recover r xr] — lift a reduced-space solution to the original
    variable space (fixed variables at their pinned values). *)
val recover : reduction -> float array -> float array

(** Diagnostics: columns eliminated / rows dropped by the reduction. *)
val vars_fixed : reduction -> int

val rows_dropped : reduction -> int
