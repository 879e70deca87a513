(** Bench-artifact gates as data, and the one checker that applies
    them ([hslb obs --bench]).

    A gate is one claim a [BENCH_*.json] artifact makes: a value
    recomputed from the artifact's decoded raw fields, a comparison and
    a bound. Each artifact module declares its gate list next to its
    decoder; a {!checker} pairs the two under the artifact's schema
    string, and {!check} dispatches on the artifact's ["schema"]
    member. A gate whose value is not finite fails. *)

type op = Lt | Le | Eq | Ge | Gt

type 'a t = { name : string; value : 'a -> float; op : op; bound : float }

(** [gate name op bound value] — the record, in table order. *)
val gate : string -> op -> float -> ('a -> float) -> 'a t

type verdict = { gate : string; value : float; op : op; bound : float; ok : bool }

type checker = { schema : string; run : Json.t -> (verdict list, string) result }

(** [checker ~schema ~decode gates] — decode, then evaluate every gate
    in order. *)
val checker :
  schema:string -> decode:(Json.t -> ('a, string) result) -> 'a t list -> checker

(** [check checkers json] — [(schema, verdicts)] from the checker
    registered for [json]'s schema. [Error] on a missing or unknown
    schema (the message lists the known ones) or on a decode error. *)
val check : checker list -> Json.t -> (string * verdict list, string) result

(** ["gate <schema> <name>: <value> <op> <bound> ok|FAIL"] *)
val line : schema:string -> verdict -> string

(** {2 Aggregates} for gate values over an artifact's rows. [max_of]
    and [min_of] of an empty list are infinite, so such a gate fails. *)

val length : 'a list -> float
val count : ('a -> bool) -> 'a list -> float
val sum_of : ('a -> float) -> 'a list -> float
val max_of : ('a -> float) -> 'a list -> float
val min_of : ('a -> float) -> 'a list -> float
