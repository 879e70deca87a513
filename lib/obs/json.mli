(** Minimal JSON shared by the observability exporters and the serving
    layer's newline-delimited protocol (re-exported as [Serve.Json]).

    The toolchain deliberately has no JSON dependency, and the engine's
    {!Engine.Run_report} only {e emits} JSON — the serve protocol and
    the trace-artifact validators also have to {e parse}, so this
    module provides both directions
    for the small value set the protocol needs. It is not a general
    JSON library: numbers are [float]s (integral values print without a
    decimal point), object member order is preserved, duplicate keys
    keep the first occurrence. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse s] — parse one complete JSON value ([s] may carry
    surrounding whitespace; trailing garbage is an error). String
    escapes including [\uXXXX] (and surrogate pairs) are decoded to
    UTF-8. Errors carry a character offset. *)
val parse : string -> (t, string) result

(** [is_object s] — whether [parse s] is [Ok (Obj _)], decided by the
    same steps without building the value: no list, string or float is
    allocated. *)
val is_object : string -> bool

(** Compact single-line rendering (never contains a raw newline, so a
    value is always a valid NDJSON line). Control characters, quotes
    and backslashes in strings are escaped; non-finite numbers render
    as [null]; integral numbers print as integers. *)
val to_string : t -> string

(** {2 Accessors} — [None] on a type or shape mismatch. *)

(** Object member lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option

val str : t -> string option
val num : t -> float option

(** The largest magnitude {!int_} accepts: 10{^9}. *)
val int_limit : int

(** Integral {!Num} of magnitude at most {!int_limit}. *)
val int_ : t -> int option

val bool_ : t -> bool option
val arr : t -> t list option

(** The value's JSON type with an article (["a string"], ["null"], …) —
    for protocol error messages that name what was actually sent. *)
val type_name : t -> string

(** {2 Field decoding} — for artifacts read field by field. An [Error]
    names the field, ["field \"k\": expected <type>"], behind the path
    of the enclosing fields, e.g. ["rows[2]: field \"k\": ..."]. *)

val int_field : string -> t -> (int, string) result

(** Finite numbers only: a decoded artifact never carries an infinity. *)
val num_field : string -> t -> (float, string) result

val str_field : string -> t -> (string, string) result
val bool_field : string -> t -> (bool, string) result

(** [obj_field k parse v] — decode member [k], an object, with [parse]. *)
val obj_field : string -> (t -> ('a, string) result) -> t -> ('a, string) result

(** [list_field k parse v] — decode member [k], an array, element by
    element with [parse]; stops at the first [Error]. *)
val list_field : string -> (t -> ('a, string) result) -> t -> ('a list, string) result
