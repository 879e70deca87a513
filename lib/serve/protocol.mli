(** The serve wire protocol: newline-delimited JSON, one request per
    line in, one response per line out (plus standalone event lines for
    drain and telemetry). See docs/SERVE.md for the field-by-field
    contract.

    A request is an object with an optional ["id"] (echoed verbatim in
    the response — any JSON scalar), an optional protocol version ["v"]
    (absent means v1, the pre-versioning dialect; current is
    {!current_version}), an ["op"] (default ["solve"]), and op-specific
    fields. Responses always carry ["id"] and an ["outcome"]: ["ok"],
    ["error"] (malformed request or failed solve), ["overloaded"]
    (queue high-water rejection), ["expired"] (the deadline was
    consumed before the solve started) or ["draining"] (rejected
    because shutdown began). Responses to v2+ requests additionally
    echo ["v"]; v1 responses are byte-identical to the pre-versioning
    wire. *)

(** Oldest dialect the server speaks (the implicit version of requests
    with no ["v"] field). *)
val min_version : int

(** Newest dialect the server speaks. The ["resolve"] op requires
    [>= 2]. *)
val current_version : int

(** [{"min":1,"max":2}] — the supported range, as v2 [ping] and
    [stats] replies advertise it under ["protocol"]. *)
val version_range : Json.t

(** The optional ["place"] section of a solve (v2+): where the classes
    should land once the allocator has sized them. The torus is carved
    into [place_groups] even compact node groups and each model class
    becomes one placement task; the server answers with a
    topology-aware task→group assignment minimizing hop-priced
    communication under per-group memory knapsacks (see
    docs/PLACEMENT.md). *)
type place_params = {
  torus : int * int * int;  (** ["place.topology"] — [\[x, y, z\]], all >= 1 *)
  place_groups : int;  (** ["place.groups"] — must divide the torus evenly *)
  mem_per_node_gb : float;  (** ["place.mem_per_node_gb"] — > 0 *)
  mem_gb : float array;  (** ["place.mem_gb"] — one entry per model class *)
  comm_mb : float array array;
      (** ["place.comm_mb"] — class-pair traffic, symmetric, zero
          diagonal (checked by {!place_instance}) *)
  hop_cost_s_per_mb : float;  (** ["place.hop_cost_s_per_mb"], default 1.0 *)
}

type solve_params = {
  model : [ `Inline of string | `Path of string ];
      (** [model_csv] (inline [name,count,a,b,c,d] text, [\n]-separated)
          or [model_path] (a {!Hslb.Model_store} file) *)
  n_total : int;  (** ["nodes"] — total node budget, >= 1 *)
  objective : Hslb.Objective.t;  (** ["objective"], default min-max *)
  solver : Engine.Solver_choice.t option;  (** ["solver"], server default otherwise *)
  deadline_ms : float option;
      (** ["deadline_ms"] — end-to-end (queue wait included), mapped to
          an {!Engine.Budget} wall-clock deadline for the solve *)
  allowed : int list option;  (** ["allowed"] — sweet-spot restriction *)
  policy : Arena.Scenario.cls option;
      (** ["policy"] — the workload class the client believes this
          traffic belongs to; the server answers with the scheduler the
          arena's regret matrix crowned for that class (see
          docs/ARENA.md). Advisory: it never changes the solve. *)
  place : place_params option;
      (** ["place"] (v2+) — ask for a topology-aware placement of the
          classes alongside the allocation *)
}

(** The ["resolve"] op (v2+): re-solve an instance the client solved
    before, folding fresh benchmark observations into the model online
    and keeping the previous allocation while its makespan is within a
    factor [1 + epsilon] of the updated model's exact optimum
    ({!Hslb.Alloc_model.reoptimality}); no MINLP runs to decide. *)
type resolve_params = {
  base : solve_params;  (** same model/budget fields as ["solve"] *)
  prev : int array;
      (** ["prev"] — the incumbent allocation (nodes per task, one entry
          per model class, in model order); mandatory warm start *)
  observe : (string * (float * float) array) list;
      (** ["observe"] — fresh benchmark points per class:
          [\[{"class": name, "samples": \[\[nodes, seconds\], ...\]}\]] *)
  epsilon : float option;
      (** ["epsilon"] — the keep threshold, server default otherwise *)
}

type request =
  | Solve of solve_params
  | Resolve of resolve_params  (** v2+ only *)
  | Sleep of float  (** ["op":"sleep"], ["ms"]: occupy a worker — testing/ops aid *)
  | Ping  (** liveness check, answered inline *)
  | Stats  (** server counters, answered inline *)
  | Drain  (** initiate graceful drain, as SIGTERM does *)

(** A parsed request line: the echoed [id] (Null when the line was not
    parseable JSON), the negotiated protocol version [v] ([min_version]
    when absent or invalid — an invalid ["v"] also puts its exact
    diagnostic in [req]), the request or a protocol error message, and
    the line's decoded members in wire order ([[]] unless the line is a
    JSON object) — what the router forwards without parsing again. *)
type parsed = {
  id : Json.t;
  v : int;
  req : (request, string) result;
  fields : (string * Json.t) list;
}

val parse_line : string -> parsed

(** [resolve_specs p] — load the request's model ([`Inline] text or the
    [`Path] file) and build the solver-ready spec list, applying the
    [allowed] restriction. [Error] is a protocol-grade message (bad
    path, malformed CSV, empty model). Used by the server before
    queueing and by the router before sharding, so both report model
    problems identically. *)
val resolve_specs : solve_params -> (Hslb.Alloc_model.spec list, string) result

(** [place_instance ?duration_s ~names pl] — lower a place section into
    a {!Place.Model} instance for the named classes: the torus carved
    into even compact groups, one placement task per class.
    [duration_s] defaults to all-zero (the request-level shape used for
    fingerprints; the server substitutes solved predicted times before
    optimizing). [Error] is protocol-grade: exact field paths for shape
    mismatches, {!Place.Model.make}'s own messages for semantic
    rejections (asymmetry, memory infeasibility). *)
val place_instance :
  ?duration_s:float array array ->
  names:string array ->
  place_params ->
  (Place.Model.instance, string) result

(** Class names of already-resolved specs, in model order. *)
val spec_names : Hslb.Alloc_model.spec list -> string array

(** [solve_key p specs] — the dedupe/cache key for a solve whose specs
    are already resolved: the {!Hslb.Alloc_model.fingerprint} of the
    instance under [p.solver] ({!Hslb.Alloc_model.default_solver}, the
    serve default, when absent; a
    server fills in its own default before keying), wrapped by
    {!Place.Model.fingerprint} when a place section rides along.
    Requests naming different solvers, or differing only in topology,
    memory or traffic, never share a cached allocation or a dedupe
    leader. *)
val solve_key : solve_params -> Hslb.Alloc_model.spec list -> (string, string) result

(** [fingerprint p] — {!solve_key} after {!resolve_specs}: the
    dedupe/cache key, and the key the router's hash ring shards on. *)
val fingerprint : solve_params -> (string, string) result

(** [response ?v ~id fields] — one NDJSON response line: an object
    opening with the echoed ["id"], then (for [v >= 2]) the ["v"] echo,
    then [fields]. Default [v] is {!min_version}, which emits no ["v"]
    — the pre-versioning byte layout. *)
val response : ?v:int -> id:Json.t -> (string * Json.t) list -> string

(** [error_response ?v ~id ~outcome msg] — [response] with
    [outcome] and an ["error"] message. *)
val error_response : ?v:int -> id:Json.t -> outcome:string -> string -> string
