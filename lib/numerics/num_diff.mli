(** Finite-difference gradients.

    A fallback for objectives without analytic derivatives: the MINLP
    expression AST provides exact derivatives, but the NLP solver
    accepts black-box objectives and constraints. *)

(** [gradient ?h f x] — central-difference gradient of [f] at [x].
    [h] is the base step, scaled per-coordinate by [max 1 |x_i|]. *)
val gradient : ?h:float -> (Vec.t -> float) -> Vec.t -> Vec.t
