(** The long-lived solve service behind [hslb serve].

    One {!t} owns a bounded request queue, a {!Runtime.Pool} worker set
    of solver domains, and a {!Runtime.Cache} of proven-optimal
    allocations keyed by {!Protocol.solve_key} (the instance and the
    solver that answers it, {!Protocol.request_solver}). The core is
    transport-agnostic: a transport ({!Transport_stdio}, {!Transport_socket}, or a test
    harness) feeds raw request lines to {!submit} together with the
    reply sink of the connection each line arrived on; every response
    goes out through that sink, one JSON line per admitted or rejected
    request, in completion order (responses carry the request [id], so
    ordering is not part of the contract). Each admitted request is
    answered in its own protocol version through one internal exit,
    which also records its queue wait and telemetry line and counts it
    [served]. Every allocation in an [ok] reply carries the independent
    auditor's verdict. Sinks from different connections may be called
    concurrently from worker domains but never interleave mid-line —
    all of them are serialized under one internal emit lock.

    {2 Admission control}

    [submit] answers inline — without occupying a worker — for
    malformed requests ([outcome "error"]), for requests arriving past
    the queue high-water mark ([outcome "overloaded"]; the queue never
    grows unboundedly), and for requests arriving after drain started
    ([outcome "draining"]). Every admitted request takes one queue
    slot, identical ones included; a later identical request reaches a
    proven optimum through the cache.

    {2 Deadlines}

    A request's [deadline_ms] is end-to-end: queue wait counts against
    it. At the moment a worker picks the request up, the remaining time
    is mapped onto an {!Engine.Budget} wall-clock deadline (so the
    existing cooperative-cancellation machinery enforces it); a request
    whose deadline was fully consumed while queued is answered
    [outcome "expired"] without solving. Each request is judged by its
    own deadline only.

    {2 Drain}

    {!initiate_drain} (what the SIGTERM handler calls) stops admission,
    wakes idle workers, and starts a grace timer; when the grace
    elapses, the server-wide drain {!Engine.Cancel} token — linked into
    every in-flight budget — is cancelled, so long solves unwind with
    their best incumbent instead of being lost. {!await_drain} blocks
    until the queue is empty and every worker domain has been joined
    (no orphaned domains), then returns the final {!Engine.Run_report}
    with the server's merged telemetry counters. Every admitted
    request is answered before [await_drain] returns. *)

type config = {
  jobs : int;  (** worker domains (the transport domain is extra) *)
  queue_limit : int;  (** admission high-water mark, >= 1 *)
  cache_capacity : int;
  drain_grace_s : float;
      (** how long after drain starts in-flight/queued solves may keep
          running before the drain token budget-cancels them *)
}

(** jobs from {!Runtime.Config.jobs}, queue limit 64, cache capacity
    128, grace 2 s. *)
val default_config : unit -> config

type t

(** [create ?telemetry config ~emit] — start the worker domains.
    [emit] is only the {e default} reply sink, used when {!submit} is
    called without [?reply]; the server writes no event lines through
    it. It receives lines without a trailing newline and is called
    from worker domains and from [submit]'s caller under an internal
    lock, so it needs no locking of its own.
    [telemetry], when given, receives one JSON line per finished
    request (queue wait, solve wall, cache hit) —
    the replayable trace.
    @raise Invalid_argument on a non-positive [jobs]/[queue_limit]. *)
val create : ?telemetry:(string -> unit) -> config -> emit:(string -> unit) -> t

(** [submit ?reply t line] — feed one raw request line. Responses for
    this request arrive through [reply] (default: the server-wide
    [emit]) — inline for rejections, ping, stats and drain
    acknowledgements; from a worker domain for solves and sleeps. A
    multi-connection transport passes each connection's writer here;
    the sink must stay callable after the connection dies (write to a
    dead peer should be a no-op, not an exception). *)
val submit : ?reply:(string -> unit) -> t -> string -> unit

val draining : t -> bool

(** Stop admission and start the drain-grace timer. Idempotent. This is
    what the SIGTERM path ultimately calls ({!Service.run}'s handler
    only sets a flag; the transport loop notices it and calls this — it
    takes the server mutex, so it must not run {e inside} a signal
    handler). *)
val initiate_drain : t -> unit

(** [await_drain t] — {!initiate_drain} (idempotent), then block until
    all queued work is answered and every worker domain is joined.
    Returns the final run report (solver ["serve"], merged counters,
    wall time = server uptime). *)
val await_drain : t -> Engine.Run_report.t

(** Server counters as a one-line JSON object (also what the [stats]
    op answers). Includes a [latency] object with queue-wait and
    solve-latency quantile summaries (p50/p90/p99, milliseconds) from
    the server's always-on histograms. *)
val stats_json : t -> string

(** The process-wide {!Obs.Metrics} registry snapshot plus this
    server's own latency histograms ([serve_queue_wait_ms],
    [serve_solve_ms]) — the exposition set behind [--metrics-out],
    ready for {!Obs.Export.prometheus}. *)
val metrics : t -> (string * Obs.Metrics.metric) list
