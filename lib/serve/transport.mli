(** The transport abstraction behind every [hslb] serving process.

    The serve core ({!Server}) and the fleet router ({!Router}) are
    written against exactly two types here: {!conn} — a framed,
    line-oriented connection (read-line / write-line / close) — and
    {!submit} — where a transport pumps incoming lines, each paired
    with the reply sink of the connection it arrived on. Two
    implementations ship: {!Transport_stdio} (the original stdin/stdout
    NDJSON path, byte-compatible with the pre-split server) and
    {!Transport_socket} (Unix-domain and TCP listeners with the same
    newline framing); {!Service.run} picks one from its [~listen]
    argument.

    {2 Framing contract}

    One UTF-8 JSON value per line, terminated by a single [\n]
    (carriage returns are tolerated and trimmed). Blank lines are
    ignored. A final unterminated line at EOF is processed as if
    terminated. Responses use the same framing, written atomically —
    the core serializes every sink under one lock, so concurrent
    worker domains never interleave bytes mid-line. *)

type conn = {
  peer : string;  (** human-readable endpoint, for logs *)
  read_line : unit -> string option;
      (** blocking; [None] is final: peer EOF or the transport's stop
          condition (drain) fired. Implementations poll their stop
          condition while blocked so drain unwedges every reader. *)
  write_line : string -> unit;
      (** one frame out; must be a no-op (never an exception) once the
          peer is gone — replies can race a disconnecting client *)
  close : unit -> unit;  (** idempotent *)
}

type listener = {
  accept : unit -> conn option;
      (** block until the next connection; [None] (final) once the
          listener was shut down or its stop condition fired *)
  shutdown : unit -> unit;
      (** stop producing connections, unblock a blocked [accept].
          Idempotent; existing connections are left to drain. *)
}

(** The service side of the interface: one raw request line from
    [reply]'s connection. {!Server.t} and {!Router.t} both provide one
    (see {!Service.core}), which is all a transport knows about them. *)
type submit = reply:(string -> unit) -> string -> unit

(** [drive ?on_disconnect listener submit] — the accept loop: one
    spawned domain per connection pumps its lines into [submit] with a
    reply sink over [conn.write_line], then calls [on_disconnect] when
    the stream ends. [submit] must answer every line it is given
    exactly once: the connection closes only after its stream has
    ended and every line has been answered, so a drain never drops a
    reply still in flight. Every reader domain is joined before
    returning, which happens once [accept] answers [None]. *)
val drive : ?on_disconnect:(conn -> unit) -> listener -> submit -> unit
