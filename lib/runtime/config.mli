(** Global parallelism setting for the runtime subsystem.

    Every pool defaults its width to [jobs ()]. The value is
    initialised from the [HSLB_JOBS] environment variable (so CI can run
    the whole suite under different widths without touching flags) and
    may be overridden by the [--jobs] command-line flags. [1] — the
    default — means fully sequential, deterministic execution on the
    calling domain. *)

(** ["HSLB_JOBS"]. Invalid or missing values mean 1. *)
val env_var : string

(** [parse s] — the one validation both the environment variable and the
    CLI [--jobs] flags go through: a positive integer (surrounding
    whitespace tolerated), or an error message naming the bad value.
    Shared so "HSLB_JOBS=8x" and "--jobs 8x" report identically. *)
val parse : string -> (int, string) result

(** Read [env_var]. Missing means 1; an invalid value means 1 {e after}
    reporting the {!parse} error through [warn] (default: a ["warning:"]
    line on stderr) — it is never silently coerced. *)
val from_env : ?warn:(string -> unit) -> unit -> int

(** Current width, [>= 1]. *)
val jobs : unit -> int

(** Override the width; values below 1 clamp to 1. *)
val set_jobs : int -> unit

(** A sensible width for this machine: the domain count the OCaml
    runtime recommends, minus one for the caller's domain. *)
val recommended : unit -> int

(** Cores the runtime can actually use ({!Domain.recommended_domain_count},
    at least 1). {!Pool} clamps its effective width here. *)
val cores : unit -> int
