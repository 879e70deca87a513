type t = { a : float; b : float; c : float; d : float }

let make ~a ~b ~c ~d =
  if not (Float.is_finite a && Float.is_finite b && Float.is_finite c && Float.is_finite d) then
    invalid_arg "Scaling_law.make: coefficients must be finite";
  if a < 0. || b < 0. || c < 0. || d < 0. then
    invalid_arg "Scaling_law.make: coefficients must be non-negative";
  { a; b; c; d }

let eval law n =
  if n < 1. then invalid_arg "Scaling_law.eval: n must be >= 1";
  (law.a /. (n ** law.c)) +. (law.b *. n) +. law.d

let eval_int law n = eval law (float_of_int n)

let derivative law n = (-.law.c *. law.a /. (n ** (law.c +. 1.))) +. law.b

let optimal_nodes law ~max_nodes =
  if max_nodes < 1. then invalid_arg "Scaling_law.optimal_nodes: max_nodes must be >= 1";
  if law.b <= 0. then max_nodes (* monotone decreasing: more nodes is never worse *)
  else begin
    let x, _ = Numerics.Scalar_opt.brent_min (fun n -> eval law n) ~lo:1. ~hi:max_nodes in
    x
  end

let is_convex law = law.a >= 0. && law.b >= 0. && law.c >= 0. && law.d >= 0.

let pp fmt law =
  Format.fprintf fmt "%.6g/n^%.4g + %.3en + %.6g" law.a law.c law.b law.d
