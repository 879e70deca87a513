type nlp_result = {
  x : float array;
  obj : float;
  violation : float;
  feasible : bool;
  converged : bool;
}

let midpoint lo hi =
  Array.init (Array.length lo) (fun j ->
      let l = lo.(j) and h = hi.(j) in
      if Float.is_finite l && Float.is_finite h then 0.5 *. (l +. h)
      else if Float.is_finite l then l +. 1.
      else if Float.is_finite h then h -. 1.
      else 0.)

(* Compiled relaxation context.

   Branch-and-bound solves one continuous relaxation per node over the
   SAME expressions — only the box changes.  Compiling the objective
   and constraint programs (and the linear LP skeleton) once per run,
   instead of once per node, removes the dominant per-node setup cost;
   the compiled programs evaluate bit-for-bit identically to the
   interpreted [Expr.eval], so node trajectories are unchanged. *)
type ctx = {
  p : Problem.t;
  lin_rows : Lp.Lp_problem.constr list;
  lp_base : Lp.Lp_problem.t;  (* linear rows only; bounds swapped per node *)
  nlp_constraints : Nlp.Nlp_problem.constr list;
  obj_prog : Expr.Compiled.program;  (* problem-sense objective *)
  f : float array -> float;  (* minimization-sense objective *)
  f_grad : float array -> float array;
  f_grad_into : float array -> float array -> unit;
}

let to_nlp_constr ~num_vars (c : Problem.constr) =
  let g, label =
    match c.sense with
    | Lp.Lp_problem.Le -> (Expr.(c.expr - const c.rhs), c.cname)
    | Lp.Lp_problem.Ge -> (Expr.(const c.rhs - c.expr), c.cname)
    | Lp.Lp_problem.Eq -> (Expr.(c.expr - const c.rhs), c.cname)
  in
  let prog = Expr.Compiled.compile g in
  let cgrad = Expr.Compiled.compile_gradient g in
  (* every evaluation point in the NLP layer has length [num_vars], so
     the arity guard can be paid once here instead of per call *)
  let gf =
    if Expr.Compiled.arity prog <= num_vars then Expr.Compiled.unsafe_fn prog
    else fun x -> Expr.Compiled.eval prog x
  in
  let grad x =
    let out = Array.make (Array.length x) 0. in
    Expr.Compiled.grad_into cgrad x out;
    out
  in
  let grad_acc x w acc = Expr.Compiled.grad_acc cgrad x w acc in
  match c.sense with
  | Lp.Lp_problem.Eq -> Nlp.Nlp_problem.eq ~grad ~grad_acc ~label gf
  | Lp.Lp_problem.Le | Lp.Lp_problem.Ge -> Nlp.Nlp_problem.ineq ~grad ~grad_acc ~label gf

let context (p : Problem.t) =
  let sign = if p.minimize then 1. else -1. in
  let obj_prog = Expr.Compiled.compile p.objective in
  let obj_grad = Expr.Compiled.compile_gradient p.objective in
  let f =
    (* [sign *. v] with sign = 1. is exact for every float, so the
       minimization path calls the compiled closure directly *)
    if p.minimize && Expr.Compiled.arity obj_prog <= p.num_vars then
      Expr.Compiled.unsafe_fn obj_prog
    else fun x -> sign *. Expr.Compiled.eval obj_prog x
  in
  let f_grad_into x out =
    Expr.Compiled.grad_into obj_grad x out;
    if sign <> 1. then
      for i = 0 to Array.length out - 1 do
        out.(i) <- -.out.(i)
      done
  in
  let f_grad x =
    let out = Array.make p.num_vars 0. in
    f_grad_into x out;
    out
  in
  let lin_rows, _ = Problem.split_constraints p in
  let lp_base =
    Lp.Lp_problem.add_constraints (Lp.Lp_problem.make ~num_vars:p.num_vars ()) lin_rows
  in
  {
    p;
    lin_rows;
    lp_base;
    nlp_constraints = List.map (to_nlp_constr ~num_vars:p.num_vars) p.constraints;
    obj_prog;
    f;
    f_grad;
    f_grad_into;
  }

(* Feasibility of the linear part is decidable exactly with the LP
   solver; use it both to detect infeasible nodes soundly and to seed
   the augmented-Lagrangian solver with a linearly-feasible start
   (midpoints of boxes with many coupled equalities stall it).  The LP
   goes through {!Lp.Presolve} — fixed-variable substitution, trivial
   row elimination and power-of-two scaling — before the simplex. *)
let linear_start_ctx ?budget ?tally ctx ~lo ~hi ~start =
  let violated =
    List.exists
      (fun row -> not (Lp.Lp_problem.constraint_satisfied ~tol:1e-7 row start))
      ctx.lin_rows
  in
  if not violated then `Start start
  else begin
    let lp = Lp.Lp_problem.with_bounds ctx.lp_base ~lo ~hi in
    match Lp.Presolve.reduce lp with
    | `Infeasible -> `Infeasible
    | `Solved x -> `Start x
    | `Reduced red -> (
      match Lp.Simplex.run ?budget ?tally (Lp.Presolve.reduced red) with
      | { Lp.Simplex.status = Lp.Simplex.Optimal; x; _ } ->
        `Start (Lp.Presolve.recover red x)
      | { Lp.Simplex.status = Lp.Simplex.Infeasible; _ } -> `Infeasible
      | { Lp.Simplex.status = Lp.Simplex.Unbounded | Lp.Simplex.Iteration_limit; _ } ->
        `Start start)
  end

let solve_nlp_ctx ?(tol_feas = 1e-6) ?budget ?tally ctx ~lo ~hi ~start =
  match linear_start_ctx ?budget ?tally ctx ~lo ~hi ~start with
  | `Infeasible ->
    {
      x = Array.copy start;
      obj = nan;
      violation = infinity;
      feasible = false;
      converged = true;
    }
  | `Start lp_start ->
    let nlp =
      Nlp.Nlp_problem.make ~dim:ctx.p.num_vars ~f:ctx.f ~f_grad:ctx.f_grad
        ~f_grad_into:ctx.f_grad_into ~lo ~hi ~constraints:ctx.nlp_constraints ()
    in
    let attempt s =
      Engine.Telemetry.bump tally Engine.Telemetry.add_nlp_solves 1;
      Nlp.Auglag.run ~tol_feas ?budget ?tally nlp s
    in
    let result_of (r : Nlp.Auglag.result) =
      {
        x = r.Nlp.Auglag.x;
        obj = Expr.Compiled.eval ctx.obj_prog r.Nlp.Auglag.x;
        violation = r.Nlp.Auglag.violation;
        feasible = r.Nlp.Auglag.violation <= tol_feas *. 100.;
        converged = r.Nlp.Auglag.converged;
      }
    in
    let first = result_of (attempt lp_start) in
    if first.feasible then first
    else begin
      (* a local stall is not proof of infeasibility: retry from the
         caller's start and the box midpoint, keep the best *)
      let candidates =
        [ Numerics.Vec.clamp ~lo ~hi start; Numerics.Vec.clamp ~lo ~hi (midpoint lo hi) ]
      in
      List.fold_left
        (fun best s ->
          if best.feasible || Engine.Budget.stopped budget <> None then best
          else begin
            let r = result_of (attempt s) in
            if r.violation < best.violation || (r.feasible && not best.feasible) then r else best
          end)
        first candidates
    end

let solve_fixed ?budget ?tally ctx ~lo ~hi x =
  let lo = Array.copy lo and hi = Array.copy hi in
  Array.iteri
    (fun j kind ->
      match kind with
      | Problem.Integer | Problem.Binary ->
        let v = Float.round x.(j) in
        lo.(j) <- v;
        hi.(j) <- v
      | Problem.Continuous -> ())
    ctx.p.kinds;
  solve_nlp_ctx ?budget ?tally ctx ~lo ~hi ~start:x

let oa_cut (c : Problem.constr) x =
  (match c.sense with
  | Lp.Lp_problem.Le -> ()
  | Lp.Lp_problem.Ge | Lp.Lp_problem.Eq ->
    invalid_arg "Relax.oa_cut: only <= nonlinear constraints are supported");
  let value, grad = Expr.linearize c.expr x in
  (* g(x0) + grad·(x - x0) <= rhs  ⇔  grad·x <= rhs - g(x0) + grad·x0 *)
  let coeffs = ref [] in
  let shift = ref 0. in
  Array.iteri
    (fun j gj ->
      if gj <> 0. then begin
        coeffs := (j, gj) :: !coeffs;
        shift := !shift +. (gj *. x.(j))
      end)
    grad;
  { Lp.Lp_problem.coeffs = List.rev !coeffs; sense = Lp.Lp_problem.Le; rhs = c.rhs -. value +. !shift }

let finite_cuts cs x =
  List.filter_map
    (fun c ->
      let row = oa_cut c x in
      if
        Float.is_finite row.Lp.Lp_problem.rhs
        && List.for_all (fun (_, a) -> Float.is_finite a) row.Lp.Lp_problem.coeffs
      then Some row
      else None)
    cs

let violated_nl ?(tol = 1e-6) (p : Problem.t) x =
  let _, nl = Problem.split_constraints p in
  List.filter
    (fun (c : Problem.constr) ->
      let v = Expr.eval c.expr x in
      v > c.rhs +. (tol *. (1. +. Float.abs c.rhs)))
    nl
