(** Algebraic expression AST with exact symbolic derivatives.

    Plays AMPL's role in the paper's toolchain: models are written as
    expressions over decision variables, and the solvers obtain exact
    gradients for NLP subproblems and for outer-approximation cuts
    [g(xk) + ∇g(xk)·(x − xk) <= 0] without finite differencing.

    Variables are identified by index into the evaluation point. *)

type t =
  | Const of float
  | Var of int
  | Add of t list
  | Mul of t * t
  | Neg of t
  | Div of t * t
  | Pow of t * float  (** [Pow (e, p)] = e^p with constant exponent *)
  | Exp of t
  | Log of t

(* Constructors (with light simplification). *)

val const : float -> t
val var : int -> t
val add : t list -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val pow : t -> float -> t
val exp_ : t -> t
val log_ : t -> t

(** [scale c e] = [c * e]. *)
val scale : float -> t -> t

(** [linear coeffs] = [Σ c_j x_j] from sparse (index, coefficient) pairs. *)
val linear : (int * float) list -> t

(** [eval e x] — value at point [x].
    @raise Invalid_argument when a variable index exceeds [x]. *)
val eval : t -> float array -> float

(** [diff e j] — symbolic partial derivative ∂e/∂x_j (simplified). *)
val diff : t -> int -> t

(** [gradient e x] — exact gradient at [x], one [diff]+[eval] per
    variable occurring in [e]; absent variables get 0. The result has
    the length of [x]. *)
val gradient : t -> float array -> float array

(** Closure-compiled form of an expression.

    [compile] lowers the tree once into nested OCaml closures — all AST
    dispatch happens at compile time, and linear sums and scaling-law
    leaves ([c·x_j^p]) collapse into fused fast paths.  The resulting
    function performs exactly the floating-point operations of the
    interpreted {!eval}, in the same order ([Add] evaluates as a left
    fold from 0.), so results are bit-for-bit identical — solver
    trajectories do not change when a hot path switches to the compiled
    form.

    Compiled programs are immutable closures with no scratch state, so
    they are domain-safe: one program may be shared by solver runs on
    several domains. *)
module Compiled : sig
  type program

  val compile : t -> program

  (** Minimum evaluation-point length: max variable index + 1. *)
  val arity : program -> int

  (** Bit-for-bit equal to [Expr.eval] on the source expression.
      @raise Invalid_argument when the point is shorter than [arity]. *)
  val eval : program -> float array -> float

  (** The raw compiled closure, without the arity guard of [eval].
      Callers must guarantee every evaluation point has length at least
      [arity program]; shorter points read out of bounds.  Intended for
      inner loops (the AL/SPG kernels) where the dimension is fixed at
      construction time. *)
  val unsafe_fn : program -> float array -> float

  (** Compiled symbolic gradient: one program per occurring variable. *)
  type gradient

  val compile_gradient : t -> gradient

  (** [grad_into g x out] writes the dense gradient at [x] into [out]
      (zero-filling entries for absent variables), matching
      [Expr.gradient] bit-for-bit. *)
  val grad_into : gradient -> float array -> float array -> unit

  (** [grad_acc g x w acc] accumulates [acc += w · ∇e(x)] in place,
      touching only entries for variables occurring in the expression;
      rounding per entry matches [Vec.axpy w grad acc]. *)
  val grad_acc : gradient -> float array -> float -> float array -> unit
end

(** [vars e] — sorted list of distinct variable indices in [e]. *)
val vars : t -> int list

(** [max_var e] — largest variable index, or [-1] for constants. *)
val max_var : t -> int

(** [simplify e] — constant folding and algebraic identities
    (idempotent). *)
val simplify : t -> t

(** [is_linear e] — true when [e] is affine in its variables. *)
val is_linear : t -> bool

(** [linear_parts e] — [(coeffs, constant)] when [is_linear e];
    @raise Invalid_argument otherwise. *)
val linear_parts : t -> (int * float) list * float

(** [linearize e x] — first-order Taylor data at [x]:
    [(value, gradient)]. The OA cut for [e <= ub] is
    [value + grad·(x' − x) <= ub]. *)
val linearize : t -> float array -> float * float array

val pp : Format.formatter -> t -> unit
val to_string : t -> string
