(** The fleet front-end behind [hslb route].

    One router owns N backend [hslb serve] processes and shards
    [solve] requests across them by {!Protocol.fingerprint} on a
    consistent-hash {!Ring}: equal instances always reach the same
    backend, which keys its proven-optimal LRU cache by the same
    fingerprint, so each cache stays shard-local and hot. [ping], [stats]
    and [drain] fan out to every live backend and aggregate; [sleep]
    round-robins.

    Client ids are never forwarded — each forwarded request gets a
    fresh internal integer id, mapped back (with a ["backend"] field
    added to the envelope) when the answer returns. Replies the router
    writes itself (fan-out aggregates, errors) answer in the client's
    protocol version, as a backend would. If a backend dies,
    its in-flight requests are answered [outcome "error"] and a
    router-spawned backend is re-spawned in place under the same name,
    leaving the ring — and every other shard's cache locality —
    untouched. Fleet drain reuses the serve drain design: admission
    stops, a [drain] fans out, every backend's ack (or death) is
    awaited, the client is acked, and only then does the router itself
    unwind. *)

type target =
  | Spawn of { name : string; prog : string; args : string list; sock : string }
      (** exec [prog args... --listen unix:sock]; supervised (respawn) *)
  | Attach of { name : string; addr : Transport_socket.addr }
      (** pre-started backend: connect only, no supervision (tests,
          externally-managed fleets); removed from the ring on death *)

(** [spawn_targets ~prog ~args ~dir ~count] — [backend-0..count-1]
    with sockets under [dir]. *)
val spawn_targets :
  prog:string -> args:string list -> dir:string -> count:int -> target list

type config = {
  vnodes : int;  (** ring points per backend *)
  drain_grace_s : float;
      (** {!await_drain}: how long owed answers may linger before
          being errored out *)
  spawn_timeout_s : float;  (** a spawned backend's socket must appear *)
  respawn_limit : int;  (** per backend; exceeded, it stays dead *)
}

(** vnodes 64, drain grace 5 s, spawn timeout 10 s, respawn limit 3. *)
val default_config : unit -> config

type t

(** Bring every backend up (spawn and/or connect), then start one
    reader domain per backend. [events] (default stdout) receives
    router event lines: [fleet_drain], [backend_death],
    [backend_respawn], [backend_respawn_failed].
    @raise Invalid_argument on empty or name-colliding targets.
    @raise Failure when a backend fails to come up (already-started
    backends are torn down first). *)
val create : ?cfg:config -> ?events:(string -> unit) -> target list -> t

(** Feed one raw client request line; answers arrive through [reply].
    See {!Server.submit} for the sink contract. *)
val submit : t -> reply:(string -> unit) -> string -> unit

val draining : t -> bool

(** Stop admission and fan a [drain] out to every backend. Idempotent. *)
val initiate_drain : t -> unit

(** Drain, wait for every owed answer (bounded by [drain_grace_s]),
    join the reader domains, reap the children. Final report: solver
    ["route"], status ["drained"], the forward round-trip histogram. *)
val await_drain : t -> Engine.Run_report.t

val stats_json : t -> string
val metrics : t -> (string * Obs.Metrics.metric) list

(** Reduce to a {!Service.core} — [hslb route] is [Service.run] over
    this, exactly as [hslb serve] is over {!Service.core_of_server}. *)
val core : t -> Service.core
