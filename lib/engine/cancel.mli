(** Cooperative cancellation token.

    A token is shared between the caller (who may [cancel] it from a
    signal handler, another domain, or a timeout watchdog) and the
    solver inner loops (which poll [cancelled] between pivots /
    iterations / nodes and unwind gracefully, returning the best
    incumbent found so far).

    The flag is an atomic, so triggering from one domain is reliably
    observed by solver loops polling in another. *)

type t

val create : unit -> t

(** Request cancellation. Idempotent; never raises. May be called from
    any domain. *)
val cancel : t -> unit

val cancelled : t -> bool
