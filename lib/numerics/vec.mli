(** Dense vectors of floats.

    A vector is an ordinary [float array]; this module provides the
    arithmetic needed by the linear-algebra and optimization kernels.
    All binary operations require equal lengths and raise
    [Invalid_argument] otherwise. *)

type t = float array

(** [create n x] is a fresh vector of length [n] filled with [x]. *)
val create : int -> float -> t

(** [init n f] is [| f 0; ...; f (n-1) |]. *)
val init : int -> (int -> float) -> t

(** [copy v] is a fresh copy of [v]. *)
val copy : t -> t

val dim : t -> int

(** [add u v] is the elementwise sum. *)
val add : t -> t -> t

(** [sub u v] is the elementwise difference [u - v]. *)
val sub : t -> t -> t

(** [scale a v] is [a * v]. *)
val scale : float -> t -> t

(** [axpy a x y] is [a*x + y] (fresh vector). *)
val axpy : float -> t -> t -> t

(** [dot u v] is the inner product. *)
val dot : t -> t -> float

(** [norm2 v] is the Euclidean norm. *)
val norm2 : t -> float

(** [norm_inf v] is the maximum absolute entry, [0.] when empty. *)
val norm_inf : t -> float

(** [dist2 u v] is [norm2 (sub u v)]. *)
val dist2 : t -> t -> float

(** [map f v] applies [f] elementwise. *)
val map : (float -> float) -> t -> t

(** [map2 f u v] applies [f] to paired elements. *)
val map2 : (float -> float -> float) -> t -> t -> t

(** [sum v] is the sum of entries (Kahan-compensated). *)
val sum : t -> float

(** [mean v] is the arithmetic mean. Raises [Invalid_argument] on empty. *)
val mean : t -> float

(** [clamp ~lo ~hi v] projects each entry into [lo.(i), hi.(i)]. *)
val clamp : lo:t -> hi:t -> t -> t

(** [argmax v] is the index of the first maximal entry. *)
val argmax : t -> int

val argmin : t -> int

(** [equal ~eps u v] holds when entries agree within absolute [eps]. *)
val equal : eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
