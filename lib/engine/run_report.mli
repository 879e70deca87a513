(** A complete, serializable record of one solver run: which solver
    ran, how it stopped, the objective/bound it reached, wall time, and
    the full {!Telemetry} counter set with phase timers.

    This is the artifact the CLI ([hslb solve --report FILE]) and the
    bench harness emit so solver comparisons (E6 in docs/ALGORITHM.md)
    can be made from data rather than printf archaeology. *)

type t = {
  solver : string;
  status : string;
  objective : float;  (** [nan] when no incumbent *)
  bound : float;  (** best proven bound; [nan] when unknown *)
  wall_s : float;
  nodes_expanded : int;
  nodes_pruned : int;
  lp_solves : int;
  simplex_pivots : int;
  nlp_solves : int;
  nlp_iterations : int;
  line_search_steps : int;
  oa_cuts : int;
  incumbent_updates : int;
  warm_start_used : bool;
  cache_hit : bool;  (** the result came from the memoized solve cache *)
  certificate : Certificate.t option;
      (** machine-checkable claim backing [status]; see lib/audit *)
  audit : string option;
      (** independent checker's verdict on [certificate] ("ok" or a
          violation summary), when an audit was requested *)
  phases : (string * float) list;  (** label, seconds *)
  hists : (string * Obs.Metrics.Histogram.summary) list;
      (** optional latency-histogram summaries (e.g. the serve layer's
          queue-wait and solve-latency distributions); empty for plain
          solver runs, and omitted from the JSON when empty so
          pre-observability consumers see an unchanged object. CSV
          output never includes them. *)
}

val make :
  solver:string ->
  status:string ->
  ?objective:float ->
  ?bound:float ->
  ?cache_hit:bool ->
  ?certificate:Certificate.t ->
  ?audit:string ->
  ?hists:(string * Obs.Metrics.Histogram.summary) list ->
  wall_s:float ->
  Telemetry.t ->
  t

(** Compact single-object JSON (no trailing newline). Non-finite floats
    are emitted as [null]. *)
val to_json : t -> string

(** [to_json_list reports] — a JSON array of {!to_json} objects. *)
val to_json_list : t list -> string

val csv_header : string
val to_csv_row : t -> string
val pp : Format.formatter -> t -> unit

(** Write one report (or several, as a JSON array) to [path]. *)
val write_json : string -> t -> unit

val write_json_list : string -> t list -> unit
