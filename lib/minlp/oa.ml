type options = {
  max_nodes : int;
  tol_int : float;
  tol_nl : float;
  rel_gap : float;
  branch_sos_first : bool;
  max_oa_rounds : int;
  branching : Milp.branching;
}

let default_options =
  {
    max_nodes = 100_000;
    tol_int = 1e-6;
    tol_nl = 1e-6;
    rel_gap = 1e-6;
    branch_sos_first = true;
    max_oa_rounds = 60;
    branching = Milp.Pseudocost;
  }

(* key integer assignments for the cycling guard *)
let assignment_key (p : Problem.t) x =
  let b = Buffer.create 64 in
  Array.iteri
    (fun j k ->
      match k with
      | Problem.Integer | Problem.Binary ->
        Buffer.add_string b (string_of_int (int_of_float (Float.round x.(j))));
        Buffer.add_char b ','
      | Problem.Continuous -> ())
    p.kinds;
  Buffer.contents b

let run ?(options = default_options) ?budget ?tally ?warm_start (p0 : Problem.t) =
  let p, orig_dim = Problem.normalize p0 in
  (* feasibility-based bound tightening shrinks the tree and the
     relaxation boxes; its infeasibility verdict is sound (pure
     interval arithmetic over the linear rows) *)
  let pre = Engine.Telemetry.time tally "presolve" (fun () -> Presolve.tighten p) in
  if pre.Presolve.infeasible then
    {
      Solution.status = Solution.Infeasible;
      x = [||];
      obj = nan;
      bound = nan;
      stats = Solution.empty_stats;
    }
  else begin
  let p = pre.Presolve.problem in
  (* warm start lifted through the epigraph normalization; it is passed
     to the master MILP, which validates it against its own rows (the
     master relaxes the nonlinear constraints, so any point feasible for
     [p] is feasible for it, and its objective value is a true upper
     bound for pruning) *)
  let warm =
    match warm_start with
    | None -> None
    | Some x0 -> (
      match Problem.lift_point ~orig:p0 p x0 with
      | Some w when Problem.feasible ~tol:options.tol_int p w -> Some w
      | Some _ | None -> None)
  in
  let _, nl = Problem.split_constraints p in
  (* drop the epigraph variables and re-evaluate the objective at the
     returned point: an early-aborted inner NLP can leave the epigraph
     variable above the true objective value, and the certificate claims
     must match the witness exactly *)
  let truncate (s : Solution.t) =
    let s =
      if Array.length s.x > orig_dim then { s with x = Array.sub s.x 0 orig_dim } else s
    in
    if Solution.has_incumbent s then begin
      let obj = Problem.objective_value p0 s.Solution.x in
      let keyed = if p0.Problem.minimize then obj else -.obj in
      { s with Solution.obj; bound = Float.min s.Solution.bound keyed }
    end
    else s
  in
  let milp_options =
    {
      Milp.max_nodes = options.max_nodes;
      tol_int = options.tol_int;
      rel_gap = options.rel_gap;
      branch_sos_first = options.branch_sos_first;
      depth_first = false;
      branching = options.branching;
    }
  in
  if nl = [] then
    truncate (Milp.run ~options:milp_options ?budget ?tally ?warm_start:warm p)
  else begin
    let nlp_solves = ref 0 in
    (* one compiled relaxation context for the root solve and every
       fixed-integer completion the master requests *)
    let rctx = Relax.context p in
    (* root relaxation seeds the initial linearization *)
    incr nlp_solves;
    let root =
      Engine.Telemetry.time tally "root-nlp" (fun () ->
          Relax.solve_nlp_ctx ?budget ?tally rctx ~lo:p.lo ~hi:p.hi
            ~start:(Relax.midpoint p.lo p.hi))
    in
    (* a failed root NLP is not proof of infeasibility (the augmented
       Lagrangian is a local method): linearize at the best point it
       reached — OA cuts are globally valid for convex constraints at
       any point — and let the master tree decide feasibility *)
    begin
      let cut_point = root.Relax.x in
      let initial_cuts =
        List.filter_map
          (fun c ->
            let row = Relax.oa_cut c cut_point in
            let finite =
              Float.is_finite row.Lp.Lp_problem.rhs
              && List.for_all (fun (_, a) -> Float.is_finite a) row.Lp.Lp_problem.coeffs
            in
            if finite then Some row else None)
          nl
      in
      let rounds : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let fix_integers x =
        let lo = Array.copy p.lo and hi = Array.copy p.hi in
        Array.iteri
          (fun j k ->
            match k with
            | Problem.Integer | Problem.Binary ->
              let v = Float.round x.(j) in
              lo.(j) <- v;
              hi.(j) <- v
            | Problem.Continuous -> ())
          p.kinds;
        (lo, hi)
      in
      let on_integral x _obj =
        let violated = Relax.violated_nl ~tol:options.tol_nl p x in
        if violated = [] then `Accept
        else begin
          let akey = assignment_key p x in
          let seen = Option.value ~default:0 (Hashtbl.find_opt rounds akey) in
          Hashtbl.replace rounds akey (seen + 1);
          if seen >= options.max_oa_rounds then
            (* cycling guard: keep cutting at the LP point, which moves
               every round as earlier cuts tighten the relaxation *)
            `Reject (List.map (fun c -> Relax.oa_cut c x) violated)
          else begin
            (* fixed-integer NLP: best continuous completion of x *)
            incr nlp_solves;
            let lo, hi = fix_integers x in
            let r = Relax.solve_nlp_ctx ?budget ?tally rctx ~lo ~hi ~start:x in
            if r.Relax.feasible then
              let cuts = List.map (fun c -> Relax.oa_cut c r.Relax.x) nl in
              `Reject_with_incumbent (cuts, r.Relax.x, r.Relax.obj)
            else
              (* integer assignment has no feasible completion:
                 feasibility cuts at the LP point *)
              `Reject (List.map (fun c -> Relax.oa_cut c x) violated)
          end
        end
      in
      let master = Problem.linear_restriction p in
      let s =
        Engine.Telemetry.time tally "master" (fun () ->
            Milp.run ~options:milp_options ~extra_rows:initial_cuts ~on_integral ?budget
              ?tally ?warm_start:warm master)
      in
      let stats = { s.Solution.stats with nlp_solves = !nlp_solves } in
      truncate { s with Solution.stats }
    end
  end
  end
