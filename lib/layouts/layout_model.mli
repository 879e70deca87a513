(** The three component-layout MINLP models (Table I of the follow-up
    application of HSLB to coupled climate components).

    Four components — ice, land, atmosphere, ocean — are placed on [N]
    nodes under layout-specific sequencing constraints:

    - {b Hybrid} (layout 1): ice and land run concurrently, then the
      atmosphere runs sequentially after them on the same pool, with the
      ocean concurrent to all three:
      [T = max(max(T_ice, T_lnd) + T_atm, T_ocn)], with
      [n_ice + n_lnd <= n_atm] and [n_atm + n_ocn <= N].
    - {b Sequential_group} (layout 2): ice, land and atmosphere run
      back-to-back on the pool complementary to the ocean's.
    - {b Fully_sequential} (layout 3): everything back-to-back on all
      nodes.

    Ocean and atmosphere node counts may be restricted to discrete
    "sweet spot" lists, modelled with binaries and an SOS1 set exactly
    as in the text (lines 29–31 of Table I). The optional
    synchronization-tolerance constraint
    [|T_lnd − T_ice| <= Tsync] is nonconvex, so it is only honoured by
    the NLP-based branch-and-bound (documented limitation; the text
    itself warns the constraint "may actually result in reduced
    performance"). *)

type layout = Hybrid | Sequential_group | Fully_sequential

type config = {
  n_total : int;
  ocn_allowed : int list option;  (** ocean sweet spots (Table I line 5) *)
  atm_allowed : int list option;  (** atmosphere sweet spots (line 6) *)
  tsync : float option;  (** synchronization tolerance (line 9) *)
  solver : Engine.Solver_choice.t;
}

val default_config : n_total:int -> config

type inputs = {
  ice : Component.t;
  lnd : Component.t;
  atm : Component.t;
  ocn : Component.t;
}

type alloc = {
  nodes : (string * int) list;  (** component name → nodes *)
  times : (string * float) list;  (** predicted per-component times *)
  total : float;  (** predicted total time under the layout formula *)
  status : Minlp.Solution.status;  (** how the solve ended *)
  stats : Minlp.Solution.stats;
  certificate : Engine.Certificate.t option;
      (** solver-emitted claim backing [status], verifiable with
          [Audit.check_minlp] against {!build}'s problem *)
}

(** [layout_total layout ~ice ~lnd ~atm ~ocn] — the layout's total-time
    formula applied to given per-component times. *)
val layout_total : layout -> ice:float -> lnd:float -> atm:float -> ocn:float -> float

(** [build layout config inputs] — the MINLP; returns the problem and
    the variable indices of [(n_ice, n_lnd, n_atm, n_ocn)]. *)
val build : layout -> config -> inputs -> Minlp.Problem.t * (int * int * int * int)

(** [solve ?budget ?cancel ?trace layout config inputs] — build, solve
    with [config.solver] ({!Minlp.Solver.run} at
    {!Minlp.Solver.model_rel_gap}) and decode. [cancel] additionally
    stops [budget]; [trace] accumulates the solver's counters.
    Infeasibility or an empty-handed budget stop is returned as
    [Error], not raised.
    Models with a [tsync] tolerance are nonconvex and always use the
    NLP-based branch and bound, whatever [config.solver] says. *)
val solve :
  ?budget:Engine.Budget.armed ->
  ?cancel:Engine.Cancel.t ->
  ?trace:Engine.Telemetry.t ->
  layout ->
  config ->
  inputs ->
  (alloc, Minlp.Solution.status) result

(** [predict_scaling layout config inputs ~node_counts] — predicted
    total time at each node budget (the layout-comparison figure). *)
val predict_scaling :
  layout -> config -> inputs -> node_counts:int list -> (int * float) list

val layout_name : layout -> string
