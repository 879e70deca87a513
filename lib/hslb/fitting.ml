type fit = {
  law : Scaling_law.t;
  r2 : float;
  rmse : float;
  observations : (float * float) array;
}

(* a relative residual divides by the time, so a zero, negative or
   non-finite time (or node count) has no weight it could be given *)
let check_observation who (n, y) =
  if not (Float.is_finite n && n >= 1. && Float.is_finite y && y > 0.) then
    invalid_arg
      (Printf.sprintf
         "%s: invalid observation (%g, %g): nodes must be finite and >= 1, seconds finite and > 0"
         who n y)

(* the exponent e of a power of two near the largest time: fitting in
   units of 2^e leaves every relative residual as it is and scales
   exactly, so the laws are bit for bit those of a fit in seconds
   wherever that one does not overflow, and times near the ends of the
   float range (1e-200 s) do not overflow the Gram matrix *)
let unit_exponent obs =
  snd (Float.frexp (Array.fold_left (fun acc (_, y) -> Float.max acc y) 0. obs))

let in_units e obs = Array.map (fun (n, y) -> (n, Float.ldexp y (-e))) obs

(* one validator for the fit and both branches of [update]: every pair
   weighable, and the Gram matrix's largest entry, the sum of (n/y)^2
   in units of 2^e, finite; when it overflows, the times span more
   orders of magnitude than a float can weigh against each other *)
let validate who obs =
  Array.iter (check_observation who) obs;
  let sq (n, y) = (n /. y) *. (n /. y) in
  let scaled = in_units (unit_exponent obs) obs in
  if not (Float.is_finite (Array.fold_left (fun acc o -> acc +. sq o) 0. scaled)) then begin
    let ys = Array.map snd obs in
    invalid_arg
      (Printf.sprintf
         "%s: times from %g s to %g s span too many orders of magnitude to weigh their \
          relative residuals"
         who
         (Array.fold_left Float.min infinity ys)
         (Array.fold_left Float.max 0. ys))
  end

let distinct_nodes obs = List.length (List.sort_uniq compare (Array.to_list (Array.map fst obs)))

(* box on (a, b, d): c lies in [0, 2] — scaling exponents beyond 2 are
   not physical for this model and, with very few sample points,
   runaway c produces pathologically flat curves downstream; a, b, d
   are bounded by observable magnitudes *)
let box_of obs =
  let y_max = Array.fold_left (fun acc (_, y) -> Float.max acc y) 0. obs in
  let n_max = Array.fold_left (fun acc (n, _) -> Float.max acc n) 1. obs in
  [| 1e3 *. y_max *. n_max; y_max; y_max *. 2. |]

let c_max = 2.
let c_grid = 41
let c_tol = 1e-9

(* [solve_face g rhs free] — the free rows and columns of the 3×3
   system [g x = rhs], scaled to a unit diagonal; [None] when that block
   is singular (a free column with no weight, or free columns that are
   collinear, as a and d are at c = 0) *)
let solve_face g rhs free =
  let s = Array.map (fun j -> sqrt g.(j).(j)) free in
  if Array.exists (fun v -> not (v > 0.)) s then None
  else
    let k = Array.length free in
    let m = Numerics.Mat.init k k (fun r c -> g.(free.(r)).(free.(c)) /. (s.(r) *. s.(c))) in
    match Numerics.Mat.solve m (Array.mapi (fun r j -> rhs.(j) /. s.(r)) free) with
    | z -> Some (Array.mapi (fun r v -> v /. s.(r)) z)
    | exception Numerics.Mat.Singular -> None

(* Variable projection. For a fixed exponent c the law is linear in
   (a, b, d): residual i is [rows.(i) · (a, b, d) − 1] with
   [rows.(i) = (n_i^−c, n_i, 1) / y_i]. That box-constrained linear
   least squares is convex, and its minimum sits at the unique
   solution of the normal equations restricted to some face of the
   box (each coefficient at 0, at its bound, or free), so trying all
   27 faces finds it exactly. Returns (sum of squares, (a, b, d)). *)
let project ~ub obs c =
  let rows = Array.map (fun (n, y) -> [| 1. /. (n ** c) /. y; n /. y; 1. /. y |]) obs in
  let g = Array.make_matrix 3 3 0. and h = Array.make 3 0. in
  Array.iter
    (fun row ->
      for i = 0 to 2 do
        h.(i) <- h.(i) +. row.(i);
        for j = 0 to 2 do
          g.(i).(j) <- g.(i).(j) +. (row.(i) *. row.(j))
        done
      done)
    rows;
  let ssr x =
    Array.fold_left
      (fun acc row ->
        let r = (row.(0) *. x.(0)) +. (row.(1) *. x.(1)) +. (row.(2) *. x.(2)) -. 1. in
        acc +. (r *. r))
      0. rows
  in
  let best = ref (infinity, [| 0.; 0.; 0. |]) in
  for face = 0 to 26 do
    (* digit j of [face] in base 3: 0 = at zero, 1 = at its bound, 2 = free *)
    let state j = face / [| 1; 3; 9 |].(j) mod 3 in
    let x = Array.init 3 (fun j -> if state j = 1 then ub.(j) else 0.) in
    let free = Array.of_list (List.filter (fun j -> state j = 2) [ 0; 1; 2 ]) in
    let rhs =
      Array.init 3 (fun i ->
          h.(i) -. (g.(i).(0) *. x.(0)) -. (g.(i).(1) *. x.(1)) -. (g.(i).(2) *. x.(2)))
    in
    let solved =
      if free = [||] then Some [||]
      else
        match solve_face g rhs free with
        | Some v when Array.for_all2 (fun j xj -> xj >= 0. && xj <= ub.(j)) free v -> Some v
        | Some _ | None -> None
    in
    match solved with
    | None -> ()
    | Some v ->
      (* Float.max turns a free coefficient's −0 into +0 *)
      Array.iteri (fun r j -> x.(j) <- Float.max 0. v.(r)) free;
      let f = ssr x in
      if f < fst !best then best := (f, x)
  done;
  !best

let scored_fit law obs =
  let observed = Array.map snd obs in
  let predicted = Array.map (fun (n, _) -> Scaling_law.eval law n) obs in
  {
    law;
    r2 = Numerics.Stats.r_squared ~observed ~predicted;
    rmse = Numerics.Stats.rmse ~observed ~predicted;
    observations = Array.copy obs;
  }

(* the search over c: a [c_grid]-point grid on [0, c_max], then golden
   section on the best grid point's bracket (its two neighbours) to an
   absolute width of [c_tol]. The best c evaluated wins, so the answer is
   never worse than the best grid point. [obs] is validated. *)
let fit_law obs =
  let e = unit_exponent obs in
  let scaled = in_units e obs in
  let project = project ~ub:(box_of scaled) scaled in
  let ssr c = fst (project c) in
  let step = c_max /. float_of_int (c_grid - 1) in
  let grid = Array.init c_grid (fun k -> ssr (float_of_int k *. step)) in
  let k = ref 0 in
  Array.iteri (fun i f -> if f < grid.(!k) then k := i) grid;
  let c, f =
    Numerics.Scalar_opt.golden_min ~tol:c_tol ssr
      ~lo:(float_of_int (Stdlib.max 0 (!k - 1)) *. step)
      ~hi:(float_of_int (Stdlib.min (c_grid - 1) (!k + 1)) *. step)
  in
  let c = if f < grid.(!k) then c else float_of_int !k *. step in
  let x = Array.map (fun v -> Float.ldexp v e) (snd (project c)) in
  Scaling_law.make ~a:x.(0) ~b:x.(1) ~c ~d:x.(2)

let fit_observations ?rng:_ obs =
  validate "Fitting.fit_observations" obs;
  (* the exact message is part of the public contract (pinned by tests) *)
  if distinct_nodes obs < 2 then
    invalid_arg "Fitting.fit_observations: need observations at 2 or more distinct node counts";
  scored_fit (fit_law obs) obs

(* a time a scale factor can be read off, or land on: finite and > 0 *)
let positive_time law n =
  let t = Scaling_law.eval law n in
  Float.is_finite t && t > 0.

(* the law times the geometric mean of y_i / T(n_i), taken in logs: a
   law in seconds and samples of 1e-198 s give a factor of ~1e-199,
   where a product of the ratios could overflow or underflow first *)
let rescale law obs =
  let log_ratio (n, y) =
    if not (positive_time law n) then
      invalid_arg
        (Printf.sprintf
           "Fitting.update: the law predicts %g s at %g nodes, where a sample sits, so no factor \
            scales it onto the samples"
           (Scaling_law.eval law n) n);
    Float.log y -. Float.log (Scaling_law.eval law n)
  in
  let s =
    Float.exp
      (Array.fold_left (fun acc o -> acc +. log_ratio o) 0. obs /. float_of_int (Array.length obs))
  in
  let { Scaling_law.a; b; c; d } = law in
  match Scaling_law.make ~a:(a *. s) ~b:(b *. s) ~c ~d:(d *. s) with
  | scaled when Array.for_all (fun (n, _) -> positive_time scaled n) obs -> scaled
  | _ | (exception Invalid_argument _) ->
    invalid_arg
      (Printf.sprintf
         "Fitting.update: scaling the law by %g to meet the samples leaves the float range" s)

let update law obs =
  validate "Fitting.update" obs;
  if Array.length obs = 0 then law
  else if distinct_nodes obs >= 4 then fit_law obs
  else rescale law obs

let predict fit n = Scaling_law.eval_int fit.law n

let recommended_sizes ~n_min ~n_max ~points =
  if points < 2 then
    invalid_arg
      (Printf.sprintf "Fitting.recommended_sizes: points must be >= 2, got %d" points);
  if n_min < 1 then
    invalid_arg (Printf.sprintf "Fitting.recommended_sizes: n_min must be >= 1, got %d" n_min);
  if n_min > n_max then
    invalid_arg
      (Printf.sprintf "Fitting.recommended_sizes: n_min (%d) exceeds n_max (%d)" n_min n_max);
  if n_min = n_max then [ n_min ]
  else begin
    let ratio = float_of_int n_max /. float_of_int n_min in
    let raw =
      List.init points (fun i ->
          let t = float_of_int i /. float_of_int (points - 1) in
          int_of_float (Float.round (float_of_int n_min *. (ratio ** t))))
    in
    List.sort_uniq compare raw
  end
