type fit = {
  law : Scaling_law.t;
  r2 : float;
  rmse : float;
  observations : (float * float) array;
}

(* one validator for the batch fit and Online.observe: a relative
   residual divides by the time, so a zero, negative or non-finite time
   (or node count) has no weight it could be given *)
let check_observation who (n, y) =
  if not (Float.is_finite n && n >= 1. && Float.is_finite y && y > 0.) then
    invalid_arg
      (Printf.sprintf
         "%s: invalid observation (%g, %g): nodes must be finite and >= 1, seconds finite and > 0"
         who n y)

(* the exact message is part of the public contract (pinned by tests) *)
let validate_distinct obs =
  let distinct = List.sort_uniq compare (Array.to_list (Array.map fst obs)) in
  if List.length distinct < 2 then
    invalid_arg "Fitting.fit_observations: need observations at 2 or more distinct node counts"

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

(* the exponent e of a power of two near the largest time: fitting in
   units of 2^e leaves every relative residual as it is and scales
   exactly, so the laws are bit for bit those of a fit in seconds
   wherever that one does not overflow, and times near the ends of the
   float range (1e-200 s) do not overflow the Gram matrix *)
let unit_exponent obs =
  snd (Float.frexp (Array.fold_left (fun acc (_, y) -> Float.max acc y) 0. obs))

(* the search over c: a [c_grid]-point grid on [0, c_max], then golden
   section on the best grid point's bracket (its two neighbours) to an
   absolute width of [c_tol]. The best c evaluated wins, so the answer is
   never worse than the best grid point. *)
let fit_observations ?rng:_ obs =
  Array.iter (check_observation "Fitting.fit_observations") obs;
  validate_distinct obs;
  let e = unit_exponent obs in
  let scaled = Array.map (fun (n, y) -> (n, Float.ldexp y (-e))) obs in
  (* the Gram matrix's largest entry is the sum of (n/y)^2: when that
     overflows, the times span more orders of magnitude than a float
     can weigh against each other *)
  let sq (n, y) = (n /. y) *. (n /. y) in
  if not (Float.is_finite (Array.fold_left (fun acc o -> acc +. sq o) 0. scaled)) then begin
    let ys = Array.map snd obs in
    invalid_arg
      (Printf.sprintf
         "Fitting.fit_observations: times from %g s to %g s span too many orders of magnitude \
          to weigh their relative residuals"
         (Array.fold_left Float.min infinity ys)
         (Array.fold_left Float.max 0. ys))
  end;
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
  scored_fit (Scaling_law.make ~a:x.(0) ~b:x.(1) ~c ~d:x.(2)) obs

module Online = struct
  type t = {
    mutable obs_rev : (float * float) list;  (* newest first; all retained *)
    mutable rls : Numerics.Rls.t;  (* its estimate is the current law, in units of 2^e s *)
    mutable e : int;
    mutable n_rank_one : int;
    mutable n_refits : int;
  }

  let of_law law =
    {
      obs_rev = [];
      rls = Numerics.Rls.create (Scaling_law.to_array law);
      e = 0;
      n_rank_one = 0;
      n_refits = 0;
    }

  (* (a, b, c, d) between seconds and units of 2^e s; c has no unit *)
  let rescale e p = Array.mapi (fun i v -> if i = 2 then v else Float.ldexp v e) p
  let law t = Scaling_law.of_array (rescale t.e (Numerics.Rls.theta t.rls))
  let rank_one_updates t = t.n_rank_one
  let full_refits t = t.n_refits

  (* gradient of one relative residual w.r.t. (a, b, c, d) at p *)
  let residual_gradient p n y =
    let nc = n ** p.(2) in
    [| 1. /. nc /. y; n /. y; -.p.(0) *. Float.log n /. nc /. y; 1. /. y |]

  (* the non-negativity box the batch path enforces; Scaling_law.make
     rejects negative coefficients, so an unclamped rank-one step could
     leave the state unable to produce a law at all *)
  let clamp_theta theta =
    Array.mapi (fun i v -> if i = 2 then Float.min 2. (Float.max 0. v) else Float.max 0. v) theta

  (* the batch fit over every observation, then re-linearize the
     rank-one state there so later updates start from the true
     curvature, not a stale prior. The state moves to the batch fit's
     units (exact powers of two, so the updates are those of a state
     kept in seconds wherever that one would not overflow). *)
  let refit t =
    let obs = Array.of_list (List.rev t.obs_rev) in
    let e = unit_exponent obs in
    let p = rescale (-e) (Scaling_law.to_array (fit_observations obs).law) in
    let jtj = Array.make_matrix 4 4 0. in
    Array.iter
      (fun (n, y) ->
        let g = residual_gradient p n (Float.ldexp y (-e)) in
        for i = 0 to 3 do
          for j = 0 to 3 do
            jtj.(i).(j) <- jtj.(i).(j) +. (g.(i) *. g.(j))
          done
        done)
      obs;
    t.rls <- Numerics.Rls.of_normal_equations ~jtj p;
    t.e <- e;
    t.n_refits <- t.n_refits + 1

  (* relative RMSE of [law] over the 8 most recent observations: the
     linearization-error monitor deciding when rank-one updates have
     wandered too far from the least-squares surface *)
  let recent_error t law =
    let recent = List.filteri (fun i _ -> i < 8) t.obs_rev in
    let sq =
      List.fold_left
        (fun acc (n, y) ->
          let r = (Scaling_law.eval law n -. y) /. y in
          acc +. (r *. r))
        0. recent
    in
    sqrt (sq /. float_of_int (List.length recent))

  let observe t (n, y) =
    check_observation "Fitting.Online.observe" (n, y);
    t.obs_rev <- (n, y) :: t.obs_rev;
    let p = Numerics.Rls.theta t.rls in
    let error = (y -. Scaling_law.eval (law t) n) /. y in
    (* a time too far from the state's units for its step to be finite
       is skipped, and the error monitor below refits *)
    if
      Numerics.Rls.update t.rls ~gradient:(residual_gradient p n (Float.ldexp y (-t.e))) ~error
    then begin
      Numerics.Rls.set_theta t.rls (clamp_theta (Numerics.Rls.theta t.rls));
      t.n_rank_one <- t.n_rank_one + 1
    end;
    (* fallback: when the linearized updates no longer track the data,
       refit from every observation and re-linearize there *)
    if
      recent_error t (law t) > 0.25
      && List.length (List.sort_uniq compare (List.map fst t.obs_rev)) >= 2
    then refit t

  let observe_all t obs = Array.iter (observe t) obs
end

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
