(** Dense row-major matrices with the factorizations the solvers need.

    Sizes in this project are small (tens to a few hundred rows), so the
    implementations favour clarity and numerical robustness (partial
    pivoting everywhere) over blocking. *)

type t

(** [create rows cols x] — a [rows]×[cols] matrix filled with [x]. *)
val create : int -> int -> float -> t

(** [init rows cols f] — entry [(i,j)] is [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** [of_arrays a] builds a matrix from an array of equal-length rows.
    Raises [Invalid_argument] on ragged or empty input. *)
val of_arrays : float array array -> t

val identity : int -> t
val copy : t -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

(** [row m i] is a fresh copy of row [i]. *)
val row : t -> int -> Vec.t

(** [col m j] is a fresh copy of column [j]. *)
val col : t -> int -> Vec.t

val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

(** [mul a b] — matrix product; inner dimensions must agree. *)
val mul : t -> t -> t

(** [mul_vec m v] — matrix-vector product. *)
val mul_vec : t -> Vec.t -> Vec.t

(** [tmul_vec m v] — [mᵀ v] without forming the transpose. *)
val tmul_vec : t -> Vec.t -> Vec.t

(** LU factorization with partial pivoting of a square matrix.
    @raise Singular when a pivot underflows. *)
type lu

exception Singular

val lu_decompose : t -> lu

(** [lu_solve lu b] solves [A x = b] for the factored [A]. *)
val lu_solve : lu -> Vec.t -> Vec.t

(** [solve a b] — one-shot [lu_solve (lu_decompose a) b]. *)
val solve : t -> Vec.t -> Vec.t

(** [inverse a]. @raise Singular on singular input. *)
val inverse : t -> t

val equal : eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
