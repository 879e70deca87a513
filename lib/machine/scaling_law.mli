(** The paper's performance-function family
    [T(n) = a/n^c + b·n + d] (Table II of the HSLB formulation).

    Used twice, deliberately with the same shape: as the {e hidden
    ground truth} each simulated task follows (parameters derived from
    the machine and the task's work), and as the {e fitted model} the
    HSLB decision layer estimates from benchmark observations. *)

type t = {
  a : float;  (** scalable-work coefficient: [a/n^c] *)
  b : float;  (** overhead growing with nodes: [b·n] *)
  c : float;  (** scaling exponent (1 = perfect) *)
  d : float;  (** serial floor *)
}

(** [make ~a ~b ~c ~d] — rejects NaN and infinite coefficients, then
    negative ones (non-negativity is the convexity condition the MINLP
    solvers rely on), each with its own [Invalid_argument] message. *)
val make : a:float -> b:float -> c:float -> d:float -> t

(** [eval law n] — predicted time on [n] nodes ([n >= 1]). *)
val eval : t -> float -> float

(** [eval_int law n] — same with an integer node count. *)
val eval_int : t -> int -> float

(** [derivative law n] — dT/dn, negative while the scalable term
    dominates. *)
val derivative : t -> float -> float

(** [optimal_nodes law ~max_nodes] — the real-valued n in
    [1, max_nodes] minimizing [eval]: [max_nodes] when [b <= 0] (T only
    falls), else {!Numerics.Scalar_opt.brent_min}'s tolerance-bound
    minimizer (T is convex). *)
val optimal_nodes : t -> max_nodes:float -> float

(** [is_convex law] — all coefficients non-negative. *)
val is_convex : t -> bool

val pp : Format.formatter -> t -> unit
