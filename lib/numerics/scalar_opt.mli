(** One-dimensional minimization. *)

(** [brent_min ?tol ?max_iter f ~lo ~hi] — minimizer of a unimodal [f]
    on [lo, hi] via golden-section with parabolic interpolation.
    Returns the pair (minimizer, minimum value). *)
val brent_min :
  ?tol:float -> ?max_iter:int -> (float -> float) -> lo:float -> hi:float -> float * float

(** [golden_min ?tol f ~lo ~hi] — golden-section search on [lo, hi]
    until the bracket is narrower than [tol] (absolute, default
    [1e-10]). Returns the best point it evaluated and its value. *)
val golden_min : ?tol:float -> (float -> float) -> lo:float -> hi:float -> float * float
