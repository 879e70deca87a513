(** Structured per-run solver telemetry.

    One mutable record is threaded (as [?tally]) through the whole
    solver stack; each layer bumps the counters it owns:

    - [Lp.Simplex]: [lp_solves], [simplex_pivots]
    - [Nlp.Bounded]: [nlp_iterations], [line_search_steps]
    - [Minlp.Relax]: [nlp_solves]
    - [Minlp.Milp]'s node loop, which [Minlp.Bnb] and the OA masters
      run on: [nodes_expanded], [nodes_pruned], [incumbent_updates],
      [warm_start_used], [oa_cuts]

    Phase timers accumulate wall-clock seconds under string labels
    ("presolve", "root-nlp", "master", ...). All entry points are
    [option]-tolerant so instrumentation is free when no tally is
    attached. *)

type t = {
  mutable nodes_expanded : int;
  mutable nodes_pruned : int;
  mutable lp_solves : int;
  mutable simplex_pivots : int;
  mutable nlp_solves : int;
  mutable nlp_iterations : int;
  mutable line_search_steps : int;
  mutable oa_cuts : int;
  mutable incumbent_updates : int;
  mutable warm_start_used : bool;
  phase_s : (string, float) Hashtbl.t;  (** label -> accumulated seconds *)
}

val create : unit -> t
val reset : t -> unit

(** Add every counter of the second tally into the first. *)
val merge_into : t -> t -> unit

(** [bump tally f n] adds [n] via setter [f] when [tally] is [Some _]. *)
val bump : t option -> (t -> int -> unit) -> int -> unit

val add_nodes_expanded : t -> int -> unit
val add_nodes_pruned : t -> int -> unit
val add_lp_solves : t -> int -> unit
val add_simplex_pivots : t -> int -> unit
val add_nlp_solves : t -> int -> unit
val add_nlp_iterations : t -> int -> unit
val add_line_search_steps : t -> int -> unit
val add_oa_cuts : t -> int -> unit
val add_incumbent_updates : t -> int -> unit
val set_warm_start_used : t option -> unit

(** [time tally label f] runs [f ()], accumulating its wall-clock time
    under [label] when a tally is attached. Re-entrant labels just
    accumulate. *)
val time : t option -> string -> (unit -> 'a) -> 'a

(** Accumulated phase timers, sorted by label. *)
val phases : t -> (string * float) list

val pp : Format.formatter -> t -> unit
