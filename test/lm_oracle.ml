(* The oracle for Hslb.Fitting: box-constrained nonlinear least squares
   by projected Levenberg–Marquardt with a central-difference Jacobian,
   restarted from random points inside the box, and the multi-start
   scaling-law fit built on it (12 random starts plus a fixed one, on
   the same relative residuals and box as Fitting). Fitting solved the
   fit this way before it solved it by variable projection; the
   property in test_hslb checks that the projection is never worse. *)
open Numerics

type result = { params : Vec.t; residual_norm : float; iterations : int; converged : bool }

(* central-difference Jacobian of a vector-valued [f] at [x]; row [i]
   is the gradient of component [i] *)
let jacobian ?(h = 1e-6) f x =
  let n = Array.length x in
  let xi = Array.copy x in
  let columns =
    Array.init n (fun i ->
        let d = h *. Float.max 1. (Float.abs x.(i)) in
        xi.(i) <- x.(i) +. d;
        let fp = f xi in
        xi.(i) <- x.(i) -. d;
        let fm = f xi in
        xi.(i) <- x.(i);
        Array.map2 (fun a b -> (a -. b) /. (2. *. d)) fp fm)
  in
  let m = Array.length columns.(0) in
  Mat.init m n (fun r c -> columns.(c).(r))

let half_sq_norm r = 0.5 *. Vec.dot r r

(* minimizes [0.5 * ||residual p||²] over the box [lo <= p <= hi] from
   [x0], clamped into the box first; steps are projected back into it *)
let fit ?(max_iter = 200) ?(xtol = 1e-10) ?(gtol = 1e-10) ~residual ~lo ~hi x0 =
  let n = Array.length x0 in
  if Array.length lo <> n || Array.length hi <> n then
    invalid_arg "Lm_oracle.fit: bound dimension mismatch";
  Array.iteri (fun i l -> if l > hi.(i) then invalid_arg "Lm_oracle.fit: lo > hi") lo;
  let x = ref (Vec.clamp ~lo ~hi (Vec.copy x0)) in
  let r = ref (residual !x) in
  let cost = ref (half_sq_norm !r) in
  let lambda = ref 1e-3 in
  let iters = ref 0 in
  let converged = ref false in
  while (not !converged) && !iters < max_iter do
    incr iters;
    let jac = jacobian residual !x in
    let g = Mat.tmul_vec jac !r in
    if Vec.norm_inf g < gtol then converged := true
    else begin
      (* J'J with Levenberg damping on the diagonal *)
      let jtj = Mat.mul (Mat.transpose jac) jac in
      let accepted = ref false in
      let tries = ref 0 in
      while (not !accepted) && !tries < 30 do
        incr tries;
        let a = Mat.copy jtj in
        for i = 0 to n - 1 do
          (* Marquardt scaling: damp proportionally to the diagonal *)
          Mat.set a i i (Mat.get a i i +. (!lambda *. Float.max 1e-12 (Mat.get jtj i i)))
        done;
        match Mat.solve a (Vec.scale (-1.) g) with
        | exception Mat.Singular -> lambda := !lambda *. 10.
        | step ->
          let x_new = Vec.clamp ~lo ~hi (Vec.add !x step) in
          let r_new = residual x_new in
          let cost_new = half_sq_norm r_new in
          if Float.is_nan cost_new || cost_new >= !cost then lambda := !lambda *. 10.
          else begin
            if Vec.dist2 x_new !x < xtol *. (1. +. Vec.norm2 !x) then converged := true;
            x := x_new;
            r := r_new;
            cost := cost_new;
            lambda := Float.max 1e-12 (!lambda /. 10.);
            accepted := true
          end
      done;
      if not !accepted then converged := true (* stalled: accept current point *)
    end
  done;
  { params = !x; residual_norm = Vec.norm2 !r; iterations = !iters; converged = !converged }

let log_uniform rng ~lo ~hi =
  (* sample multiplicatively when the box spans orders of magnitude *)
  let lo' = Float.max lo 1e-8 in
  let hi' = Float.max hi (lo' *. (1. +. 1e-9)) in
  if hi <= 0. then lo else exp (Rng.uniform rng ~lo:(log lo') ~hi:(log hi'))

(* [fit] from [x0] and from [starts] points drawn log-uniformly inside
   the box (capped at 1e6); the smallest residual norm wins *)
let fit_multi_start ?(max_iter = 200) ~rng ~starts ~residual ~lo ~hi x0 =
  let n = Array.length x0 in
  let best = ref (fit ~max_iter ~residual ~lo ~hi x0) in
  for _ = 1 to starts do
    let cap = 1e6 in
    let start = Array.init n (fun i -> log_uniform rng ~lo:lo.(i) ~hi:(Float.min hi.(i) cap)) in
    let candidate = fit ~max_iter ~residual ~lo ~hi start in
    if candidate.residual_norm < !best.residual_norm then best := candidate
  done;
  !best

(* the multi-start fit of [a/n^c + b·n + d] to (nodes, seconds) pairs,
   as Fitting ran it: relative residuals, c in [0, 2], a, b, d bounded
   by the observed magnitudes, 12 random starts plus [x0] *)
let fit_law ~rng obs =
  let y_max = Array.fold_left (fun acc (_, y) -> Float.max acc y) 0. obs in
  let n_max = Array.fold_left (fun acc (n, _) -> Float.max acc n) 1. obs in
  let lo = [| 0.; 0.; 0.; 0. |] in
  let hi = [| 1e3 *. y_max *. n_max; y_max; 2.; y_max *. 2. |] in
  let x0 = [| y_max; 1e-6; 1.; 0.01 *. y_max |] in
  let residual p =
    Array.map
      (fun (n, y) -> ((p.(0) /. (n ** p.(2))) +. (p.(1) *. n) +. p.(3) -. y) /. Float.max y 1e-12)
      obs
  in
  let r = fit_multi_start ~rng ~starts:12 ~residual ~lo ~hi x0 in
  Scaling_law.make ~a:r.params.(0) ~b:r.params.(1) ~c:r.params.(2) ~d:r.params.(3)
