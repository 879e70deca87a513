(** The protocol's JSON codec, re-exported from {!Obs.Json} (it moved
    there so the observability exporters below [serve] in the
    dependency graph can share it). [Serve.Json.t] remains equal to
    [Obs.Json.t]; see {!Obs.Json} for the format contract. *)

type t = Obs.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
val is_object : string -> bool
val to_string : t -> string
val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int_limit : int
val int_ : t -> int option
val bool_ : t -> bool option
val arr : t -> t list option
val type_name : t -> string
