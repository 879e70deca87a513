(** The E12 drift-rate × re-solve-policy frontier, and the
    BENCH_resolve.json artifact it is serialized to.

    A seeded world of task classes follows hidden ground-truth scaling
    laws that drift each round. Each round every law is brought up to
    date with that round's noisy benchmarks of the truth by
    {!Hslb.Fitting.update}, and three policies maintain an allocation
    from those laws — [always] (solve every round), [never] (solve
    once), and [certified] (adopt the exact optimum of the updated laws
    only when {!Hslb.Alloc_model.reoptimality} finds the incumbent more
    than ε above it). Each policy is scored on the true makespan of its
    current allocation, averaged over rounds. *)

val schema_version : string

type cell = {
  policy : string;  (** "always" | "never" | "certified" *)
  makespan_avg : float;  (** mean true makespan over the rounds *)
  solves : int;  (** allocations adopted, the initial one included *)
  skipped : int;  (** rounds that kept the incumbent *)
}

type row = { drift_rate : float; cells : cell list }

type t = {
  seed : int;
  rounds : int;
  classes : int;
  nodes : int;
  epsilon : float;  (** certificate threshold the certified policy used *)
  rows : row list;
}

(** [run ?quick ?eps ?rounds ?drift_rates ~seed ()] — deterministic for
    a given seed. [quick] shrinks rounds and the drift grid. *)
val run :
  ?quick:bool -> ?eps:float -> ?rounds:int -> ?drift_rates:float list -> seed:int -> unit -> t

val to_json : t -> Obs.Json.t

(** Field-by-field decode; [Error] names the offending field. *)
val of_json : Obs.Json.t -> (t, string) result

(** The artifact's claims: every drift rate carries the three
    policies with positive makespans, never-resolve solved exactly
    once, and certified within 5% of always-resolve makespan on
    strictly fewer adopted allocations, keeping its incumbent at least
    once. *)
val gates : t Obs.Gate.t list

(** Write the artifact (one JSON object + newline). *)
val write_bench : string -> t -> unit

val pp : Format.formatter -> t -> unit
