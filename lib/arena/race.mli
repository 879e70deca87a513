(** The race itself: every balancer over every scenario class, scored
    as regret against the dynamic baseline (experiment E13).

    Regret of balancer [b] on scenario [s] is
    [(makespan_b − makespan_dynamic) / makespan_dynamic] — negative
    means [b] beat the stock dynamic scheduler; the per-class winner
    is the argmin regret. *)

type cell = {
  scheduler : string;  (** {!Balancer.name} *)
  total_makespan_s : float;
  mean_utilization : float;
  regret_vs_dynamic : float;
}

type row = {
  scenario : string;  (** scenario name, e.g. ["drifting-s42"] *)
  cls : Scenario.cls;
  cells : cell list;  (** one per raced balancer, in balancer order *)
  winner : string;  (** scheduler with minimal regret *)
}

type t = {
  seed : int;
  phases : int;
  tasks_per_phase : int;
  groups : int;
  nodes_per_group : int;
  schedulers : string list;
  rows : row list;  (** one per scenario class *)
}

(** [run ~seed classes] — generate one scenario per class and race
    every balancer in [balancers] (default {!Balancer.all}; must
    include [Dynamic], the regret baseline) over it. Emits one
    [cat:"arena"] span per scenario × balancer and feeds every phase
    makespan into the [arena_phase_makespan_s] histogram. *)
val run :
  ?phases:int ->
  ?tasks_per_phase:int ->
  ?groups:int ->
  ?nodes_per_group:int ->
  ?balancers:Balancer.t list ->
  seed:int ->
  Scenario.cls list ->
  t

val schema_version : string

(** Bench-artifact JSON (schema [hslb-bench-arena-v1]) — the
    BENCH_arena.json payload that [hslb obs --bench] checks. *)
val to_json : t -> Obs.Json.t

(** Field-by-field decode; [Error] names the offending field. *)
val of_json : Obs.Json.t -> (t, string) result

(** The artifact's claims: all five families raced over at least 3
    classes, every row complete with its winner the regret argmin and
    the dynamic baseline at zero regret, and hybrid rebalancing beating
    the static map on the drifting class. *)
val gates : t Obs.Gate.t list

val write_bench : string -> t -> unit

(** Human-readable matrix (rows = scenario classes, columns =
    schedulers, entries = regret; winner starred). *)
val pp : Format.formatter -> t -> unit
