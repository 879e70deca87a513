(** The serving lifecycle, shared by one-backend ([hslb serve]) and
    fleet ([hslb route]) processes.

    Both {!Server.t} and {!Router.t} reduce to a {!core} — the
    {!Transport.submit} a transport pumps lines into, plus
    drain/stats/metrics hooks — and {!run} wraps any core with the
    machinery every deployment shape needs: the transport, SIGTERM
    handling, the periodic [--metrics-out] Prometheus flusher, the
    final {!Engine.Run_report} and the terminal
    [{"event":"drained",...}] line. *)

type core = {
  name : string;  (** the [hslb] command serving it: ["serve"] or ["route"] *)
  submit : Transport.submit;  (** where the transport pumps request lines *)
  initiate_drain : unit -> unit;  (** idempotent; stops admission *)
  draining : unit -> bool;
  await_drain : unit -> Engine.Run_report.t;
      (** block until every admitted request is answered; final report *)
  stats_json : unit -> string;  (** one-line JSON counters *)
  metrics : unit -> (string * Obs.Metrics.metric) list;
      (** the exposition set behind [--metrics-out] *)
}

val core_of_server : Server.t -> core

(** [Report_unwritable (path, msg)] — {!run} served every request and
    emitted the drained event, but could not write its report to
    [path]; [msg] is the [Sys_error] message. *)
exception Report_unwritable of string * string

(** [Metrics_unwritable (path, reason)] — {!run} could not write its
    first [metrics_out] exposition to [path] and served nothing;
    [reason] is the [Sys_error] message, less the file name. *)
exception Metrics_unwritable of string * string

(** One line to stdout, newline-terminated and flushed — the default
    event sink of {!run} and {!Router.create}. *)
val stdout_line : string -> unit

(** [run ~listen core] — serve until shutdown, then return the final
    drain report.

    - [listen = None] serves stdin/stdout ({!Transport_stdio}) and
      starts the drain when that stream ends.
    - [listen = Some addr] binds a {!Transport_socket} listener, then
      announces [{"event":"listening","addr":...}] followed by the
      [listening] members (default none) on [events].

    With [metrics_out], one exposition is written before serving; a
    later write that fails prints
    ["hslb NAME: --metrics-out: cannot write PATH: REASON"] to stderr
    and serving goes on.

    Transports stop on SIGTERM and once the core starts draining (a
    [drain] op). Shutdown sequence: transports unwind, the listener is
    shut down, the core drains (grace timer, then budget-cancel),
    [report_path]/[metrics_out] are written, and the
    [{"event":"drained","stats":...,"report":...}] line goes to
    [events] (default {!stdout_line}).

    @raise Invalid_argument if [metrics_interval_s <= 0].
    @raise Metrics_unwritable when the first exposition cannot be
    written, before serving.
    @raise Unix.Unix_error when [addr] cannot be bound.
    @raise Report_unwritable when [report_path] cannot be written,
    after the drained event. *)
val run :
  ?report_path:string ->
  ?metrics_out:string ->
  ?metrics_interval_s:float ->
  ?events:(string -> unit) ->
  ?listening:(string * Json.t) list ->
  listen:Transport_socket.addr option ->
  core ->
  Engine.Run_report.t
