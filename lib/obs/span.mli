(** Hierarchical span tracing on a monotonized clock.

    A span is one timed scope — a solver phase, a pool task, a serve
    request. Spans nest: within {!with_span} the current
    span is the implicit parent of any span opened below it on the
    same domain, and {!context}/{!in_context} carry that parentage
    across [Domain.spawn], so a pool fan-out shows one root span with
    per-task children even though tasks run on worker domains.

    When {!Control.enabled} is off, {!with_span} is a single atomic
    load plus a direct call of the body — no allocation, no clock
    read. Completed spans go to a process-wide sink; {!drain} collects
    them for export (see {!Export}). *)

type id = int

type t = {
  id : id;
  parent : id option;
  name : string;
  cat : string;  (** coarse grouping, e.g. ["engine.phase"], ["runtime"] *)
  args : (string * string) list;  (** free-form annotations *)
  start_s : float;  (** {!Clock.now_s} at open *)
  dur_s : float;
  domain : int;  (** domain the span closed on *)
}

(** [with_span name f] times [f] as a span named [name], parented to
    the current span (or [?parent] when given), and records it when
    [f] returns or raises. Returns [f ()]'s value; exceptions pass
    through with their backtrace. A no-op call of [f] when
    observability is disabled. *)
val with_span :
  ?cat:string ->
  ?parent:id ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a

(** Current span id on this domain, for carrying across a domain
    boundary: capture with [context ()] before [Domain.spawn], then
    wrap the spawned body in {!in_context}. *)
val context : unit -> id option

(** [in_context ctx f] runs [f] with the current-span context set to
    [ctx], restoring the previous context afterwards (also on
    exception). *)
val in_context : id option -> (unit -> 'a) -> 'a

(** Collect (and remove) all completed spans, oldest first. *)
val drain : unit -> t list

(** Discard all completed spans. *)
val clear : unit -> unit

(** Install (or with [None] remove) a streaming sink that sees each
    span as it completes, in addition to the {!drain} buffer. The sink
    runs outside the internal lock; exceptions it raises are
    swallowed. *)
val set_stream : (t -> unit) option -> unit
