open Numerics

type result = {
  x : Vec.t;
  f : float;
  violation : float;
  outer_iterations : int;
  converged : bool;
}

let run ?(max_outer = 50) ?(tol_feas = 1e-7) ?(tol_opt = 1e-7) ?budget ?tally
    (p : Nlp_problem.t) x0 =
  let constraints = Array.of_list p.constraints in
  let m = Array.length constraints in
  (* hot-loop views of the constraint records: the AL value/gradient
     run millions of times per relaxation, so the per-row record and
     option traffic is hoisted into parallel arrays once *)
  let g_of = Array.map (fun c -> c.Nlp_problem.g) constraints in
  let is_eq =
    Array.map (fun c -> c.Nlp_problem.kind = Nlp_problem.Eq) constraints
  in
  let lambda = Array.make m 0. in
  let mu = ref 10. in
  let mu_cap = 1e10 in
  (* consecutive outers where the violation failed to halve while mu is
     already at its cap: the penalty has no leverage left, so the
     subproblem is (locally) infeasible and more outers only inflate
     the AL value.  Three strikes ends the run with the best iterate. *)
  let capped_stalls = ref 0 in
  let hopeless = ref false in
  let x = ref (Vec.clamp ~lo:p.lo ~hi:p.hi (Vec.copy x0)) in
  let last_violation = ref infinity in
  let outer = ref 0 in
  let converged = ref false in
  (* augmented Lagrangian value: PHR form *)
  let al_value v =
    let mu_v = !mu in
    let acc = ref (p.f v) in
    for i = 0 to m - 1 do
      let gx = (Array.unsafe_get g_of i) v in
      let li = Array.unsafe_get lambda i in
      if Array.unsafe_get is_eq i then
        acc := !acc +. (li *. gx) +. (0.5 *. mu_v *. gx *. gx)
      else begin
        let t = Float.max 0. (li +. (mu_v *. gx)) in
        acc := !acc +. (((t *. t) -. (li *. li)) /. (2. *. mu_v))
      end
    done;
    !acc
  in
  (* in-place AL gradient: base objective gradient written into [out],
     then one accumulation pass per active constraint.  Constraints
     carrying a [g_grad_acc] fast path (compiled expressions from the
     relaxation layer) contribute without allocating; the fallback
     reproduces [Vec.axpy w ggrad acc] rounding exactly. *)
  let al_grad_into v out =
    Nlp_problem.gradient_into p v out;
    let mu_v = !mu in
    for i = 0 to m - 1 do
      let gx = (Array.unsafe_get g_of i) v in
      let li = Array.unsafe_get lambda i in
      let w =
        if Array.unsafe_get is_eq i then li +. (mu_v *. gx)
        else Float.max 0. (li +. (mu_v *. gx))
      in
      if w <> 0. then
        match constraints.(i).Nlp_problem.g_grad_acc with
        | Some acc -> acc v w out
        | None ->
          let ggrad =
            match constraints.(i).Nlp_problem.g_grad with
            | Some g -> g v
            | None -> Num_diff.gradient constraints.(i).Nlp_problem.g v
          in
          for k = 0 to Array.length out - 1 do
            out.(k) <- (w *. ggrad.(k)) +. out.(k)
          done
    done
  in
  while
    (not !converged) && (not !hopeless) && !outer < max_outer
    && Engine.Budget.stopped budget = None
  do
    incr outer;
    let inner =
      Bounded.minimize ~max_iter:3000 ~tol:(tol_opt /. 10.) ~stall_iters:150
        ?budget ?tally ~grad_into:al_grad_into ~f:al_value ~lo:p.lo ~hi:p.hi !x
    in
    x := inner.Bounded.x;
    (* multiplier update *)
    let viol = ref 0. in
    for i = 0 to m - 1 do
      let c = constraints.(i) in
      let gx = c.Nlp_problem.g !x in
      (match c.Nlp_problem.kind with
      | Nlp_problem.Eq ->
        lambda.(i) <- lambda.(i) +. (!mu *. gx);
        viol := Float.max !viol (Float.abs gx)
      | Nlp_problem.Ineq ->
        lambda.(i) <- Float.max 0. (lambda.(i) +. (!mu *. gx));
        viol := Float.max !viol (Float.max 0. gx))
    done;
    if !viol <= tol_feas then begin
      if inner.Bounded.converged then converged := true
    end
    else if !viol > 0.5 *. !last_violation then begin
      if !mu >= mu_cap then begin
        incr capped_stalls;
        if !capped_stalls >= 3 then hopeless := true
      end
      else mu := Float.min mu_cap (!mu *. 10.)
    end
    else capped_stalls := 0;
    last_violation := !viol
  done;
  {
    x = !x;
    f = p.f !x;
    violation = Nlp_problem.violation p !x;
    outer_iterations = !outer;
    converged = !converged && Nlp_problem.violation p !x <= tol_feas *. 10.;
  }
