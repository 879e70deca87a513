(** Unix-domain / TCP socket transport — many concurrent connections,
    same newline framing as {!Transport_stdio} (one UTF-8 JSON value
    per [\n]-terminated line; CR trimmed; a final unterminated line at
    EOF is processed).

    The listener half is what {!Service.run} serves with [~listen];
    the {!Client} half is what the router's backend links and [hslb
    loadgen] speak. SIGPIPE is ignored process-wide on first use — a
    reply racing a disconnecting peer must be a no-op, not a crash. *)

type addr =
  | Unix_path of string  (** [unix:PATH] *)
  | Tcp of string * int  (** [tcp:HOST:PORT]; empty host means 127.0.0.1 *)

(** Parse [unix:PATH] or [tcp:HOST:PORT]. *)
val addr_of_string : string -> (addr, string) result

val addr_to_string : addr -> string

type t

(** [listen ~stop addr] — bind and listen. A stale Unix socket file is
    unlinked first; TCP listeners set [SO_REUSEADDR]. [stop] is polled
    by [accept] (0.05 s cadence) so drain unblocks it.
    @raise Unix.Unix_error when binding fails. *)
val listen : ?backlog:int -> stop:(unit -> bool) -> addr -> t

(** The actually-bound address — resolves a [tcp:HOST:0] wildcard port
    to the kernel-assigned one. *)
val bound_addr : t -> addr

(** The {!Transport.drive} view: [accept] and {!shutdown}. *)
val listener : t -> Transport.listener

(** Close the listening fd and unlink a Unix socket path. Idempotent;
    live connections are untouched. *)
val shutdown : t -> unit

(** A connecting peer: framed sends and timeout-bounded receives. *)
module Client : sig
  type t

  (** @raise Unix.Unix_error when the endpoint refuses. *)
  val connect : addr -> t

  val peer : t -> string

  (** One frame out (atomic under an internal lock, so multiple
      domains may share a client). [false] once the peer is gone. *)
  val send : t -> string -> bool

  (** Next complete frame, waiting at most [timeout_s] (default
      0.05 s). [`Eof] is final. *)
  val recv : ?timeout_s:float -> t -> [ `Line of string | `Eof | `Timeout ]

  val close : t -> unit
end
