(** Deterministic, splittable pseudo-random number generator.

    SplitMix64 core: every simulated experiment in this repository must be
    reproducible from a single integer seed, and independent streams
    (one per task class, per trial, ...) must not be correlated, which
    [split] provides without sharing mutable state. *)

type t

(** [create seed] — a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** [split t] derives an independent generator; [t] advances. *)
val split : t -> t

(** [int t bound] — uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t bound] — uniform in [0, bound). *)
val float : t -> float -> float

(** [uniform t ~lo ~hi] — uniform in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [normal t ~mu ~sigma] — Gaussian draw (Box–Muller). *)
val normal : t -> mu:float -> sigma:float -> float

(** [lognormal t ~mu ~sigma] — [exp] of a Gaussian with the given
    log-space parameters. Used for multiplicative runtime noise. *)
val lognormal : t -> mu:float -> sigma:float -> float

(** [bool t] — fair coin. *)
val bool : t -> bool

(** [shuffle t a] — in-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** [choose t a] — uniformly random element. Raises on empty. *)
val choose : t -> 'a array -> 'a
