type status = Optimal | Infeasible | Unbounded | Iteration_limit
type solution = { status : status; x : float array; obj : float }

let eps = 1e-9

(* How each original variable maps into standard-form columns. *)
type var_map =
  | Shifted of int * float  (* column, offset: x = offset + x' *)
  | Flipped of int * float  (* column, offset: x = offset - x' *)
  | Split of int * int      (* x = x⁺ - x⁻ *)

type std_row = { coeffs : float array; rhs : float; sense : Lp_problem.sense }

(* The tableau is a single flat row-major [float array] with stride
   [ncols + 1] (the extra column is the rhs), so each pivot's row
   elimination runs on contiguous memory; pivoting and the ratio test
   allocate nothing. *)
let run ?(max_iter = 200_000) ?budget ?tally (p : Lp_problem.t) =
  Engine.Telemetry.bump tally Engine.Telemetry.add_lp_solves 1;
  let n = p.num_vars in
  (* --- 1. map variables to non-negative standard columns --- *)
  let next_col = ref 0 in
  let fresh () =
    let c = !next_col in
    incr next_col;
    c
  in
  let vmap =
    Array.init n (fun j ->
        let lo = p.lower.(j) and hi = p.upper.(j) in
        if lo > neg_infinity then Shifted (fresh (), lo)
        else if hi < infinity then Flipped (fresh (), hi)
        else Split (fresh (), fresh ()))
  in
  let n_struct = !next_col in
  (* translate a sparse user row into a dense standard row + rhs shift *)
  let translate coeffs rhs sense =
    let dense = Array.make n_struct 0. in
    let rhs = ref rhs in
    List.iter
      (fun (j, a) ->
        match vmap.(j) with
        | Shifted (c, off) ->
          dense.(c) <- dense.(c) +. a;
          rhs := !rhs -. (a *. off)
        | Flipped (c, off) ->
          dense.(c) <- dense.(c) -. a;
          rhs := !rhs -. (a *. off)
        | Split (cp, cm) ->
          dense.(cp) <- dense.(cp) +. a;
          dense.(cm) <- dense.(cm) -. a)
      coeffs;
    { coeffs = dense; rhs = !rhs; sense }
  in
  (* user rows plus residual upper bounds as explicit rows *)
  let rows = ref [] in
  Array.iter
    (fun (row : Lp_problem.constr) ->
      rows := translate row.coeffs row.rhs row.sense :: !rows)
    p.constraints;
  for j = 0 to n - 1 do
    match vmap.(j) with
    | Shifted (_, _) when p.upper.(j) < infinity ->
      rows := translate [ (j, 1.) ] p.upper.(j) Lp_problem.Le :: !rows
    | Flipped (_, _) when p.lower.(j) > neg_infinity ->
      rows := translate [ (j, 1.) ] p.lower.(j) Lp_problem.Ge :: !rows
    | Split _ when p.upper.(j) < infinity ->
      rows := translate [ (j, 1.) ] p.upper.(j) Lp_problem.Le :: !rows
    | Shifted _ | Flipped _ | Split _ -> ()
  done;
  let flip_sense = function
    | Lp_problem.Le -> Lp_problem.Ge
    | Lp_problem.Ge -> Lp_problem.Le
    | Lp_problem.Eq -> Lp_problem.Eq
  in
  (* normalize so every rhs is non-negative (negation flips the sense) *)
  let rows =
    Array.of_list
      (List.rev_map
         (fun r ->
           if r.rhs < 0. then
             { coeffs = Array.map (fun a -> -.a) r.coeffs; rhs = -.r.rhs; sense = flip_sense r.sense }
           else r)
         !rows)
  in
  let m = Array.length rows in
  (* --- 2. column layout: structural | slack/surplus | artificial --- *)
  let n_slack =
    Array.fold_left
      (fun acc r -> match r.sense with Lp_problem.Le | Lp_problem.Ge -> acc + 1 | Lp_problem.Eq -> acc)
      0 rows
  in
  let n_art =
    Array.fold_left
      (fun acc r -> match r.sense with Lp_problem.Ge | Lp_problem.Eq -> acc + 1 | Lp_problem.Le -> acc)
      0 rows
  in
  let ncols = n_struct + n_slack + n_art in
  let stride = ncols + 1 in
  let tab = Array.make (m * stride) 0. in
  let basis = Array.make m (-1) in
  let art_cols = Array.make n_art (-1) in
  let slack_idx = ref 0 and art_idx = ref 0 in
  Array.iteri
    (fun i r ->
      let base = i * stride in
      Array.blit r.coeffs 0 tab base n_struct;
      tab.(base + ncols) <- r.rhs;
      (match r.sense with
      | Lp_problem.Le ->
        let c = n_struct + !slack_idx in
        incr slack_idx;
        tab.(base + c) <- 1.;
        basis.(i) <- c
      | Lp_problem.Ge ->
        let c = n_struct + !slack_idx in
        incr slack_idx;
        tab.(base + c) <- -1.;
        let a = n_struct + n_slack + !art_idx in
        art_cols.(!art_idx) <- a;
        incr art_idx;
        tab.(base + a) <- 1.;
        basis.(i) <- a
      | Lp_problem.Eq ->
        let a = n_struct + n_slack + !art_idx in
        art_cols.(!art_idx) <- a;
        incr art_idx;
        tab.(base + a) <- 1.;
        basis.(i) <- a))
    rows;
  let is_artificial c = c >= n_struct + n_slack in
  (* --- 3. simplex core on (cost row z, flat tableau) --- *)
  let z = Array.make (ncols + 1) 0. in
  let iterations = ref 0 in
  let pivot r c =
    let rbase = r * stride in
    let piv = Array.unsafe_get tab (rbase + c) in
    for j = 0 to ncols do
      Array.unsafe_set tab (rbase + j) (Array.unsafe_get tab (rbase + j) /. piv)
    done;
    for i = 0 to m - 1 do
      if i <> r then begin
        let ibase = i * stride in
        let f = Array.unsafe_get tab (ibase + c) in
        if f <> 0. then
          for j = 0 to ncols do
            Array.unsafe_set tab (ibase + j)
              (Array.unsafe_get tab (ibase + j) -. (f *. Array.unsafe_get tab (rbase + j)))
          done
      end
    done;
    let f = z.(c) in
    if f <> 0. then
      for j = 0 to ncols do
        Array.unsafe_set z j (Array.unsafe_get z j -. (f *. Array.unsafe_get tab (rbase + j)))
      done;
    basis.(r) <- c
  in
  (* returns `Optimal | `Unbounded | `Limit *)
  let bland_threshold = 1_000 + (5 * (m + ncols)) in
  (* Poll the shared budget only every 64 pivots: the deadline check
     costs a gettimeofday, which would otherwise dominate small LPs. *)
  let budget_stop () =
    match budget with
    | None -> false
    | Some b ->
      Engine.Budget.add_iters b 1;
      !iterations land 63 = 0 && Engine.Budget.check b <> None
  in
  let run_phase allow_col =
    let result = ref None in
    let phase_start = !iterations in
    while !result = None do
      if !iterations > max_iter || budget_stop () then result := Some `Limit
      else begin
        incr iterations;
        (* entering column: Dantzig; Bland past a threshold to kill
           degenerate cycling (Dantzig can stall for thousands of
           pivots on degenerate vertices) *)
        let bland = !iterations - phase_start > bland_threshold in
        let enter = ref (-1) in
        let best = ref (-.eps) in
        (try
           for c = 0 to ncols - 1 do
             if allow_col c && z.(c) < -.eps then
               if bland then begin
                 enter := c;
                 raise Exit
               end
               else if z.(c) < !best then begin
                 best := z.(c);
                 enter := c
               end
           done
         with Exit -> ());
        if !enter < 0 then result := Some `Optimal
        else begin
          let c = !enter in
          (* ratio test; Bland tie-break on smallest basis index *)
          let leave = ref (-1) in
          let best_ratio = ref infinity in
          for i = 0 to m - 1 do
            let ibase = i * stride in
            let aic = Array.unsafe_get tab (ibase + c) in
            if aic > eps then begin
              let ratio = Array.unsafe_get tab (ibase + ncols) /. aic in
              if
                ratio < !best_ratio -. eps
                || (Float.abs (ratio -. !best_ratio) <= eps
                   && !leave >= 0
                   && basis.(i) < basis.(!leave))
              then begin
                best_ratio := ratio;
                leave := i
              end
            end
          done;
          if !leave < 0 then result := Some `Unbounded else pivot !leave c
        end
      end
    done;
    match !result with Some r -> r | None -> assert false
  in
  let finish (s : solution) =
    Engine.Telemetry.bump tally Engine.Telemetry.add_simplex_pivots !iterations;
    s
  in
  let infeasible_result () = finish { status = Infeasible; x = Array.make n 0.; obj = nan } in
  (* the standard-form value of every structural column at the current
     basis: basic columns read the rhs, the rest sit at zero *)
  let structural_values () =
    let xs = Array.make n_struct 0. in
    for i = 0 to m - 1 do
      if basis.(i) < n_struct then xs.(basis.(i)) <- tab.((i * stride) + ncols)
    done;
    xs
  in
  (* whether [xs] breaks some row by more than 1e-7 of the row's own
     magnitude, 1 + |rhs| + sum |a_j xs_j| *)
  let breaks_a_row xs =
    Array.exists
      (fun r ->
        let lhs = ref 0. and mag = ref (1. +. Float.abs r.rhs) in
        Array.iteri
          (fun j a ->
            let t = a *. xs.(j) in
            lhs := !lhs +. t;
            mag := !mag +. Float.abs t)
          r.coeffs;
        let violation =
          match r.sense with
          | Lp_problem.Le -> !lhs -. r.rhs
          | Lp_problem.Ge -> r.rhs -. !lhs
          | Lp_problem.Eq -> Float.abs (!lhs -. r.rhs)
        in
        violation > 1e-7 *. !mag)
      rows
  in
  (* --- 4. phase 1 --- *)
  let need_phase1 = n_art > 0 in
  let phase1_ok =
    if not need_phase1 then `Optimal
    else begin
      Array.fill z 0 (ncols + 1) 0.;
      Array.iter (fun a -> z.(a) <- 1.) art_cols;
      (* price out basic artificials *)
      for i = 0 to m - 1 do
        if is_artificial basis.(i) then begin
          let ibase = i * stride in
          for j = 0 to ncols do
            z.(j) <- z.(j) -. tab.(ibase + j)
          done
        end
      done;
      run_phase (fun _ -> true)
    end
  in
  match phase1_ok with
  | `Limit -> finish { status = Iteration_limit; x = Array.make n 0.; obj = nan }
  | `Unbounded -> infeasible_result () (* phase 1 cannot be unbounded; defensive *)
  | `Optimal ->
    let phase1_obj = if need_phase1 then -.z.(ncols) else 0. in
    (* Phase 1 can stall a few 1e-7 short of zero on near-parallel rows
       (OA cuts on one class that agree to 7 digits), so its absolute
       sum of artificials alone does not prove infeasibility: the LP is
       infeasible only when the phase-1 point also breaks some row on
       that row's own scale. One global scale would not do: a big row
       would hide a small row's contradiction. *)
    if need_phase1 && phase1_obj > 1e-7 && breaks_a_row (structural_values ()) then
      infeasible_result ()
    else begin
      (* drive artificials out of the basis when possible *)
      if need_phase1 then
        for i = 0 to m - 1 do
          if is_artificial basis.(i) then begin
            let ibase = i * stride in
            let found = ref (-1) in
            (try
               for c = 0 to n_struct + n_slack - 1 do
                 if Float.abs tab.(ibase + c) > 1e-7 then begin
                   found := c;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !found >= 0 then pivot i !found
            (* else: redundant row, leave the zero-valued artificial basic *)
          end
        done;
      (* --- 5. phase 2 --- *)
      let sign = if p.minimize then 1. else -1. in
      Array.fill z 0 (ncols + 1) 0.;
      for j = 0 to n - 1 do
        let c = sign *. p.objective.(j) in
        match vmap.(j) with
        | Shifted (col, _) -> z.(col) <- z.(col) +. c
        | Flipped (col, _) -> z.(col) <- z.(col) -. c
        | Split (cp, cm) ->
          z.(cp) <- z.(cp) +. c;
          z.(cm) <- z.(cm) -. c
      done;
      (* price out current basis *)
      for i = 0 to m - 1 do
        let b = basis.(i) in
        let f = z.(b) in
        if f <> 0. then begin
          let ibase = i * stride in
          for j = 0 to ncols do
            z.(j) <- z.(j) -. (f *. tab.(ibase + j))
          done
        end
      done;
      let allow c = not (is_artificial c) in
      match run_phase allow with
      | `Limit -> finish { status = Iteration_limit; x = Array.make n 0.; obj = nan }
      | `Unbounded -> finish { status = Unbounded; x = Array.make n 0.; obj = nan }
      | `Optimal ->
        let xs = structural_values () in
        let x =
          Array.init n (fun j ->
              match vmap.(j) with
              | Shifted (c, off) -> off +. xs.(c)
              | Flipped (c, off) -> off -. xs.(c)
              | Split (cp, cm) -> xs.(cp) -. xs.(cm))
        in
        finish { status = Optimal; x; obj = Lp_problem.objective_value p x }
    end
