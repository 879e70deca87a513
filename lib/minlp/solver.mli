(** The one MINLP dispatch: run the chosen solver, then certify its
    answer.

    Every layer that solves a MINLP — the allocation, layout and
    placement models, [hslb minlp], the bench harness and the audit
    stress sweep — goes through {!run}, so a solver is added or refused
    in this one place. Experiments that time solvers under ablation
    options (E6) call each solver's own [run]. *)

(** The relative gap the allocation, layout and placement models solve
    to: 1e-4 is far below benchmark noise, and demanding more makes the
    tree crawl on near-flat fitted curves. *)
val model_rel_gap : float

(** The refusal {!run} raises for [Exact]. *)
val exact_refused : string

(** [run ?rel_gap ?budget ?tally ?warm_start choice p] — solve [p] with
    [choice] under its default options, returning the raw solution and
    the certificate backing its status claim ({!Solution.certify},
    producer [Engine.Solver_choice.to_string choice]).

    [rel_gap] (default 1e-6, the solvers' own default) sets both the
    solver's stopping gap and the certificate's [tol]. [budget] covers
    the whole run and its stop verdict is recorded in the certificate.
    [tally] accumulates the solver's counters and supplies the
    certificate's [pruned] count. [warm_start], a feasible point of [p],
    primes the incumbent of [Oa] and [Bnb]; [Oa_multi] has no warm start
    and ignores it. Test {!Solution.has_incumbent} before using [x].

    @raise Invalid_argument with {!exact_refused} when [choice] is
    [Exact]: the threshold search needs the separable allocation
    structure only [Hslb.Alloc_model] knows, so the layout and placement
    models, [hslb minlp] and [hslb place] all refuse it here. *)
val run :
  ?rel_gap:float ->
  ?budget:Engine.Budget.armed ->
  ?tally:Engine.Telemetry.t ->
  ?warm_start:float array ->
  Engine.Solver_choice.t ->
  Problem.t ->
  Solution.t * Engine.Certificate.t
