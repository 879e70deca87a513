(** The single source of truth for "which solver?".

    Replaces the polymorphic-variant copies that used to live in
    [Hslb.Alloc_model], [Layouts.Layout_model] and the CLI. *)

type t =
  | Exact
      (** threshold search for the separable min-max allocation
          ([Hslb.Alloc_model] only; every MINLP entry point refuses it) *)
  | Oa  (** LP/NLP-based single-tree outer approximation *)
  | Bnb  (** NLP-based branch and bound *)
  | Oa_multi  (** multi-tree outer approximation *)

(** Every choice, in the order error messages list them. *)
val all : t list

(** The MINLP solvers: the choices [Minlp.Solver.run] accepts. *)
val minlp : t list

val to_string : t -> string

(** Accepts the [to_string] names plus the historical CLI alias
    ["multi"] for [Oa_multi]. *)
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
