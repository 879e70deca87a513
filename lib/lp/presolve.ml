(* Cheap LP presolve: fixed-variable substitution, empty/singleton row
   elimination (as bound tightening) to a fixpoint, then power-of-two
   row equilibration.  Its one caller is Minlp.Relax, whose LP seeding
   of each NLP relaxation runs on node boxes that fix many variables
   (branching pins integers); eliminating them before the simplex
   shrinks the tableau the flat kernel has to sweep.  Milp's node LPs go
   straight to Simplex.run.

   Scaling uses powers of two only, so row coefficients change exponent
   bits exclusively — every scaled coefficient, pivot and recovered
   solution value is exact in binary floating point. *)

let tol = 1e-9

type work_row = { coeffs : (int * float) list; sense : Lp_problem.sense; rhs : float }

type reduction = {
  original : Lp_problem.t;
  red : Lp_problem.t;
  kept : int array; (* reduced column -> original column *)
  pos : int array; (* original column -> reduced column, or -1 when fixed *)
  value : float array; (* fixed value per original column (when pos = -1) *)
  vars_fixed : int;
  rows_dropped : int;
}

let reduced r = r.red

let recover r xr =
  Array.init r.original.Lp_problem.num_vars (fun j ->
      let p = r.pos.(j) in
      if p >= 0 then xr.(p) else r.value.(j))

let vars_fixed r = r.vars_fixed
let rows_dropped r = r.rows_dropped

let row_trivially_feasible (row : work_row) =
  match row.sense with
  | Lp_problem.Le -> row.rhs >= -.tol
  | Lp_problem.Ge -> row.rhs <= tol
  | Lp_problem.Eq -> Float.abs row.rhs <= tol

let reduce (p : Lp_problem.t) =
  let n = p.Lp_problem.num_vars in
  let lo = Array.copy p.Lp_problem.lower and hi = Array.copy p.Lp_problem.upper in
  let fixed = Array.make n false in
  let value = Array.make n 0. in
  let infeasible = ref false in
  let rows_dropped = ref 0 in
  let fix j v =
    fixed.(j) <- true;
    value.(j) <- v
  in
  (* a bound pair collapses a variable when exactly equal; tightening
     below may also cross bounds, which is infeasibility *)
  let scan_bounds () =
    let fresh = ref false in
    for j = 0 to n - 1 do
      if not fixed.(j) then begin
        if lo.(j) > hi.(j) +. tol then infeasible := true
        else if lo.(j) > hi.(j) then hi.(j) <- lo.(j) (* sub-tol crossing: collapse *)
        else ();
        if (not !infeasible) && lo.(j) = hi.(j) then begin
          fix j lo.(j);
          fresh := true
        end
      end
    done;
    !fresh
  in
  let rows =
    ref
      (Array.to_list
         (Array.map
            (fun (c : Lp_problem.constr) ->
              { coeffs = c.Lp_problem.coeffs; sense = c.Lp_problem.sense; rhs = c.Lp_problem.rhs })
            p.Lp_problem.constraints))
  in
  (* substitute fixed variables into a row *)
  let substitute row =
    if List.exists (fun (j, _) -> fixed.(j)) row.coeffs then begin
      let rhs = ref row.rhs in
      let coeffs =
        List.filter
          (fun (j, a) ->
            if fixed.(j) then begin
              rhs := !rhs -. (a *. value.(j));
              false
            end
            else true)
          row.coeffs
      in
      { row with coeffs; rhs = !rhs }
    end
    else row
  in
  let tighten j a rhs sense =
    (* a·x {<=,>=,=} rhs over a single variable: fold into the box *)
    let v = rhs /. a in
    let upper () = if v < hi.(j) then hi.(j) <- v in
    let lower () = if v > lo.(j) then lo.(j) <- v in
    match (sense, a > 0.) with
    | Lp_problem.Le, true | Lp_problem.Ge, false -> upper ()
    | Lp_problem.Ge, true | Lp_problem.Le, false -> lower ()
    | Lp_problem.Eq, _ ->
      upper ();
      lower ()
  in
  ignore (scan_bounds ());
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && (not !infeasible) && !rounds < 8 do
    incr rounds;
    progress := false;
    rows :=
      List.filter
        (fun row0 ->
          if !infeasible then true
          else begin
            let row = substitute row0 in
            match row.coeffs with
            | [] ->
              if not (row_trivially_feasible row) then infeasible := true;
              incr rows_dropped;
              false
            | [ (j, a) ] when a <> 0. ->
              tighten j a row.rhs row.sense;
              progress := true;
              incr rows_dropped;
              false
            | _ -> true
          end)
        !rows;
    if scan_bounds () then progress := true
  done;
  if !infeasible then `Infeasible
  else begin
    (* final substitution pass so surviving rows reference only free
       variables *)
    let rows = List.map substitute !rows in
    List.iter
      (fun row -> if row.coeffs = [] && not (row_trivially_feasible row) then infeasible := true)
      rows;
    let rows = List.filter (fun row -> row.coeffs <> []) rows in
    if !infeasible then `Infeasible
    else begin
      let kept = ref [] in
      for j = n - 1 downto 0 do
        if not fixed.(j) then kept := j :: !kept
      done;
      let kept = Array.of_list !kept in
      let nk = Array.length kept in
      if nk = 0 then
        (* everything pinned by bounds: the point is the whole problem *)
        if List.for_all row_trivially_feasible rows then `Solved (Array.copy value)
        else `Infeasible
      else begin
        let pos = Array.make n (-1) in
        Array.iteri (fun r j -> pos.(j) <- r) kept;
        (* power-of-two row equilibration: bring max |a| into [0.5, 1)
           shifting exponents only — exact, so the solved vertex is the
           same point in exact arithmetic AND in floating point *)
        let scale_row row =
          let maxabs =
            List.fold_left (fun acc (_, a) -> Float.max acc (Float.abs a)) 0. row.coeffs
          in
          if maxabs = 0. || not (Float.is_finite maxabs) then row
          else begin
            let _, e = Float.frexp maxabs in
            if e = 0 then row
            else
              {
                row with
                coeffs = List.map (fun (j, a) -> (j, Float.ldexp a (-e))) row.coeffs;
                rhs = Float.ldexp row.rhs (-e);
              }
          end
        in
        let remap row =
          let row = scale_row row in
          {
            Lp_problem.coeffs = List.map (fun (j, a) -> (pos.(j), a)) row.coeffs;
            sense = row.sense;
            rhs = row.rhs;
          }
        in
        let red = Lp_problem.make ~minimize:p.Lp_problem.minimize ~num_vars:nk () in
        let obj = Array.make nk 0. in
        let rlo = Array.make nk 0. and rhi = Array.make nk 0. in
        Array.iteri
          (fun r j ->
            obj.(r) <- p.Lp_problem.objective.(j);
            rlo.(r) <- lo.(j);
            rhi.(r) <- hi.(j))
          kept;
        let red = Lp_problem.set_objective red obj in
        let red = Lp_problem.with_bounds red ~lo:rlo ~hi:rhi in
        let red = Lp_problem.add_constraints red (List.map remap rows) in
        `Reduced
          {
            original = p;
            red;
            kept;
            pos;
            value;
            vars_fixed = n - nk;
            rows_dropped = !rows_dropped;
          }
      end
    end
  end
