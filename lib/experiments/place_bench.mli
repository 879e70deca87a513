(** The E14 comm-blind × comm-aware placement frontier, and the
    BENCH_place.json artifact it is serialized to.

    Each scenario carves a 3-D torus into even compact node groups,
    generates a seeded fragment-pair communication matrix
    ({!Fmo.Comm.generate} over a water cluster) and durations from the
    machine's cost model, then places the fragments twice: with the
    comm-blind LPT baseline and with the comm-aware heuristic
    ({!Place.Optimizer}). The exact rows solve small instances through
    the full MINLP path and audit the optimality certificate. *)

val schema_version : string

(** Deterministic scenario builder shared by the bench, E14 and the
    [hslb place] demo path. [torus] must split evenly into [groups].
    Raises [Invalid_argument] when it does not. *)
val instance :
  ?seed:int ->
  ?hop_cost_s_per_mb:float ->
  torus:int * int * int ->
  tasks:int ->
  groups:int ->
  unit ->
  Place.Model.instance

type cell = {
  strategy : string;  (** "blind" | "aware" *)
  makespan_s : float;
  comm_cost_s : float;
  total_s : float;
}

type row = {
  dims : int * int * int;  (** torus shape *)
  tasks : int;
  groups : int;
  cells : cell list;
}

(** One small instance pushed through {!Place.Model.solve_minlp} with
    the heuristic's answer as warm start, certificate audited. *)
type exact = {
  solver : string;
  xtasks : int;
  xgroups : int;
  status : string;
  audited : bool;
  minlp_total_s : float;
  heuristic_total_s : float;
}

type t = {
  seed : int;
  hop_cost_s_per_mb : float;
  rows : row list;
  exact : exact list;
}

(** [run ?quick ~seed ()] — deterministic for a given seed. [quick]
    shrinks the torus grid and the exact-solver sweep. *)
val run : ?quick:bool -> seed:int -> unit -> t

val to_json : t -> Obs.Json.t

(** Field-by-field decode; [Error] names the offending field. *)
val of_json : Obs.Json.t -> (t, string) result

(** The artifact's claims: every torus scenario carries both
    strategies, comm-aware strictly cheaper on modeled communication
    with makespan within 5% of comm-blind, and every exact row solved
    to audited optimality no worse than the heuristic. *)
val gates : t Obs.Gate.t list

(** Write the artifact (one JSON object + newline). *)
val write_bench : string -> t -> unit

val pp : Format.formatter -> t -> unit
