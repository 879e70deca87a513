(** Trace replay and the 1-vs-N fleet benchmark behind
    [hslb loadgen].

    A {!trace_spec} generates a deterministic request mix (seeded;
    replays are reproducible): [distinct] solve instances cycled over
    [requests] lines, with optional sleeps, tiny-deadline solves that
    provoke [expired], and a per-solve [deadline_ms]. {!run} replays a
    trace against an {!endpoint} — a socket address or an in-process
    handler — pacing to [rate_rps], capping the in-flight [window],
    and recording per-request latency, outcomes, and the cache-hit
    telemetry of each answer. A [stats] request is appended
    after the measured window closes, so [server_stats] carries the
    endpoint's own final counters (for a router: per-backend stats).

    {!fleet_bench} replays one trace twice through an in-process
    {!Router} over spawned backends — once with a single backend, once
    with [backends] — and reports the throughput ratio. On one core
    the fleet's edge is cache locality, not parallelism: pick
    [distinct] larger than a backend's cache capacity and the single
    backend thrashes its LRU while each shard of the fleet stays
    resident. *)

type trace_spec = {
  requests : int;
  distinct : int;  (** distinct solve instances, cycled *)
  classes : int;  (** fragment classes per instance *)
  nodes : int;  (** total node budget per instance *)
  sleep_every : int;  (** every k-th request is a sleep; 0 = never *)
  sleep_ms : float;
  expire_every : int;  (** every k-th solve gets a tiny deadline; 0 = never *)
  tiny_deadline_ms : float;
  deadline_ms : float option;  (** deadline on ordinary solves *)
  seed : int;
}

(** 200 requests, 48 distinct instances, 3 classes, 16 nodes, no
    sleeps, no expiries, seed 1. *)
val default_spec : unit -> trace_spec

(** The request objects, in order, without ids ({!run} assigns
    positions). Every solve names ["solver":"oa"]: the trace measures
    locality and admission under expensive solves, which the
    microsecond default would not. @raise Invalid_argument on
    non-positive counts. *)
val make_trace : trace_spec -> Json.t list

(** [trace_of_scenario sc] — turn an arena workload scenario into a
    replayable request trace (the [hslb loadgen --scenario] path):
    each phase gap becomes a [sleep] op, each task a [solve] whose
    model is bucketed by task cost (nearest power of two, so the cache
    sees bounded reuse) and which carries the scenario
    class as its [policy] hint. *)
val trace_of_scenario : Arena.Scenario.t -> Json.t list

type endpoint =
  | Net of Transport_socket.addr
  | Inproc of (reply:(string -> unit) -> string -> unit)

type run_result = {
  label : string;
  requests : int;
  answered : int;
  wall_s : float;  (** measured window: first send to last answer *)
  throughput_rps : float;
  outcomes : (string * int) list;  (** outcome -> count, sorted *)
  cache_hits : int;
  audits : (string * int) list;
      (** the replies that carry an ["audit"], by its verdict, always
          these three in order: ["verified"] and ["exact-method"] for a
          ["verified (...)"] or ["exact-method (...)"] pass,
          ["rejected"] for any other string (["REJECTED: ..."],
          ["no certificate emitted"]) *)
  malformed : int;  (** reply lines that are not JSON *)
  latency : Obs.Metrics.Histogram.summary;  (** ms, send to answer *)
  server_stats : Json.t;  (** the post-run [stats] answer; [Null] if lost *)
}

(** [run endpoint trace] — replay. [drain_at_end] sends a [drain] op
    after the stats probe and waits for its ack (the endpoint shuts
    down). [timeout_s] (default 120) bounds the wait for answers;
    unanswered requests are missing from [answered]. *)
val run :
  ?label:string ->
  ?rate_rps:float ->
  ?window:int ->
  ?timeout_s:float ->
  ?drain_at_end:bool ->
  endpoint ->
  Json.t list ->
  run_result

val result_json : run_result -> Json.t

type bench = {
  spec : trace_spec;
  backends : int;
  single : run_result;
  fleet : run_result;
  speedup : float;  (** fleet throughput / single-backend throughput *)
}

(** Replay one trace against a 1-backend and an [backends]-backend
    in-process router, each over freshly spawned [prog] serve
    processes ([backend_args] are the CLI args before [--listen];
    sockets live under [dir]). @raise Invalid_argument if
    [backends < 2]. *)
val fleet_bench :
  ?spec:trace_spec ->
  ?rate_rps:float ->
  ?window:int ->
  ?timeout_s:float ->
  prog:string ->
  backend_args:string list ->
  dir:string ->
  backends:int ->
  unit ->
  bench

val schema_version : string

(** The BENCH_fleet.json document (schema [hslb-bench-fleet-v1]). *)
val bench_json : bench -> Json.t

(** Write [bench_json] (one line) to [path] — BENCH_fleet.json. *)
val write_bench : string -> bench -> unit
