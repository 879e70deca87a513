(** Workload-scenario zoo: seeded, deterministic multi-phase traces.

    The SC 2012 evaluation races schedulers on paper-shaped workloads
    only; the arena goes wide. A scenario is a sequence of
    barrier-delimited phases (the GDDI execution model of {!Gddi.Sim}),
    each carrying a bag of task costs and a per-group speed factor, so
    one generator covers steady traffic, bursty multi-phase arrivals,
    multi-tenant mixes, heavy-tailed fragment-size distributions, and
    group slowdown/failure mid-run.

    Generation is reproducible: equal seeds give equal scenarios,
    and every phase draws from its own {!Numerics.Rng.split} stream
    (the E9 two-pass split convention), so phase [i]'s content depends
    only on [(seed, i)] — never on how many phases follow it. *)

type cls =
  | Steady  (** uniform arrivals, homogeneous groups — the control *)
  | Bursty  (** alternating burst/lull phases with idle gaps *)
  | Multi_tenant
      (** two tenants with disparate task sizes; the mix drifts
          from mostly-small to mostly-large across phases *)
  | Heavy_tailed  (** lognormal task sizes with a heavy tail *)
  | Drifting
      (** per-group speeds drift downward mid-run — the class where
          a stale static map loses to periodic rebalancing *)
  | Failure
      (** one group browns out (speed collapses to 5%) at the
          midpoint and never recovers *)

val all_classes : cls list

val class_to_string : cls -> string

(** [class_of_string s] — inverse of {!class_to_string}; the error
    message lists every valid spelling. *)
val class_of_string : string -> (cls, string) result

type phase = {
  costs : float array;
      (** base cost of each task: seconds on one nominal-speed node *)
  speed : float array;
      (** per-group speed multiplier for this phase (length = groups;
          all positive) *)
  gap_s : float;  (** arrival gap preceding the phase (burstiness) *)
}

type t = {
  name : string;
  cls : cls;
  seed : int;
  groups : int;
  nodes_per_group : int;
  phases : phase array;
}

(** [generate cls ~seed] — a deterministic scenario of the given
    class. Defaults: 8 phases, 48 tasks per phase, 8 groups of 4
    nodes. @raise Invalid_argument on non-positive dimensions. *)
val generate :
  ?phases:int ->
  ?tasks_per_phase:int ->
  ?groups:int ->
  ?nodes_per_group:int ->
  cls ->
  seed:int ->
  t

(** [partition t] — the even processor-group partition every balancer
    races on. *)
val partition : t -> Gddi.Group.partition
