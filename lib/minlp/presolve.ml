type result = { problem : Problem.t; rounds : int; tightened : int; infeasible : bool }

let is_int_kind = function Problem.Integer | Problem.Binary -> true | Problem.Continuous -> false

let tighten ?(max_rounds = 10) (p : Problem.t) =
  let lin_rows, _ = Problem.split_constraints p in
  (* expand each row into one or two <= forms: coeffs·x <= rhs *)
  let le_rows =
    List.concat_map
      (fun (row : Lp.Lp_problem.constr) ->
        match row.sense with
        | Lp.Lp_problem.Le -> [ (row.coeffs, row.rhs) ]
        | Lp.Lp_problem.Ge -> [ (List.map (fun (j, a) -> (j, -.a)) row.coeffs, -.row.rhs) ]
        | Lp.Lp_problem.Eq ->
          [
            (row.coeffs, row.rhs);
            (List.map (fun (j, a) -> (j, -.a)) row.coeffs, -.row.rhs);
          ])
      lin_rows
  in
  let lo = Array.copy p.lo and hi = Array.copy p.hi in
  let tightened = ref 0 in
  let infeasible = ref false in
  let rounds = ref 0 in
  let changed = ref true in
  let eps = 1e-9 in
  while !changed && (not !infeasible) && !rounds < max_rounds do
    incr rounds;
    changed := false;
    List.iter
      (fun (coeffs, rhs) ->
        if not !infeasible then begin
          (* min activity of the whole row; +inf contributions poison it *)
          let min_term j a = if a > 0. then a *. lo.(j) else a *. hi.(j) in
          let min_activity =
            List.fold_left (fun acc (j, a) -> acc +. min_term j a) 0. coeffs
          in
          List.iter
            (fun (k, a) ->
              if Float.abs a > eps then begin
                let rest = min_activity -. min_term k a in
                if Float.is_finite rest then begin
                  if a > 0. then begin
                    (* x_k <= (rhs - rest) / a *)
                    let bound = (rhs -. rest) /. a in
                    let bound =
                      if is_int_kind p.kinds.(k) then Float.floor (bound +. 1e-7) else bound
                    in
                    if bound < hi.(k) -. eps then begin
                      hi.(k) <- bound;
                      incr tightened;
                      changed := true
                    end
                  end
                  else begin
                    (* x_k >= (rhs - rest) / a (a < 0) *)
                    let bound = (rhs -. rest) /. a in
                    let bound =
                      if is_int_kind p.kinds.(k) then Float.ceil (bound -. 1e-7) else bound
                    in
                    if bound > lo.(k) +. eps then begin
                      lo.(k) <- bound;
                      incr tightened;
                      changed := true
                    end
                  end;
                  if lo.(k) > hi.(k) +. 1e-7 then infeasible := true
                end
              end)
            coeffs
        end)
      le_rows
  done;
  if !infeasible then { problem = p; rounds = !rounds; tightened = !tightened; infeasible = true }
  else
    {
      problem = Problem.with_bounds p ~lo ~hi;
      rounds = !rounds;
      tightened = !tightened;
      infeasible = false;
    }

let framed ?tally ?warm_start (p0 : Problem.t) solve =
  let p, orig_dim = Problem.normalize p0 in
  let pre = Engine.Telemetry.time tally "presolve" (fun () -> tighten p) in
  if pre.infeasible then
    {
      Solution.status = Solution.Infeasible;
      x = [||];
      obj = nan;
      bound = nan;
      stats = Solution.empty_stats;
    }
  else begin
    let p = pre.problem in
    (* tightening only shrinks boxes around the feasible set, so a
       feasible warm start survives it *)
    let warm =
      Option.bind warm_start (fun x0 ->
          match Problem.lift_point ~orig:p0 p x0 with
          | Some w when Problem.feasible p w -> Some w
          | Some _ | None -> None)
    in
    let (s : Solution.t) = solve p warm in
    let s = if Array.length s.x > orig_dim then { s with x = Array.sub s.x 0 orig_dim } else s in
    if Solution.has_incumbent s then begin
      let obj = Problem.objective_value p0 s.x in
      let keyed = if p0.minimize then obj else -.obj in
      { s with obj; bound = Float.min s.bound keyed }
    end
    else s
  end
