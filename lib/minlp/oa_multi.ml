type options = {
  max_iterations : int;
  milp_max_nodes : int;
  tol_int : float;
  tol_nl : float;
  rel_gap : float;
  branch_sos_first : bool;
}

let default_options =
  {
    max_iterations = 100;
    milp_max_nodes = 50_000;
    tol_int = 1e-6;
    tol_nl = 1e-6;
    rel_gap = 1e-6;
    branch_sos_first = true;
  }

type info = { solution : Solution.t; iterations : int }

let add_stats (a : Solution.stats) (b : Solution.stats) =
  {
    Solution.nodes = a.Solution.nodes + b.Solution.nodes;
    lp_solves = a.Solution.lp_solves + b.Solution.lp_solves;
    nlp_solves = a.Solution.nlp_solves + b.Solution.nlp_solves;
    cuts = a.Solution.cuts + b.Solution.cuts;
  }

let run ?(options = default_options) ?budget ?tally (p0 : Problem.t) =
  let p, orig_dim = Problem.normalize p0 in
  let pre = Engine.Telemetry.time tally "presolve" (fun () -> Presolve.tighten p) in
  let infeasible_solution stats =
    { Solution.status = Solution.Infeasible; x = [||]; obj = nan; bound = nan; stats }
  in
  if pre.Presolve.infeasible then
    { solution = infeasible_solution Solution.empty_stats; iterations = 0 }
  else begin
    let p = pre.Presolve.problem in
    let _, nl = Problem.split_constraints p in
    (* drop the epigraph variables and re-evaluate the objective at the
       returned point: an early-aborted inner NLP can leave the epigraph
       variable above the true objective value, and the certificate
       claims must match the witness exactly *)
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
        Milp.max_nodes = options.milp_max_nodes;
        tol_int = options.tol_int;
        rel_gap = options.rel_gap;
        branch_sos_first = options.branch_sos_first;
        depth_first = false;
        branching = Milp.Pseudocost;
      }
    in
    if nl = [] then
      { solution = truncate (Milp.run ~options:milp_options ?budget ?tally p); iterations = 1 }
    else begin
      let stats = ref Solution.empty_stats in
      let master = Problem.linear_restriction p in
      let key v = if p.minimize then v else -.v in
      (* seed cuts from the continuous relaxation *)
      stats := { !stats with Solution.nlp_solves = !stats.Solution.nlp_solves + 1 };
      let root =
        Engine.Telemetry.time tally "root-nlp" (fun () ->
            Relax.solve_nlp ?budget ?tally p ~lo:p.lo ~hi:p.hi ~start:(Relax.midpoint p.lo p.hi))
      in
      let cuts = ref (List.map (fun c -> Relax.oa_cut c root.Relax.x) nl) in
      let keep_finite rows =
        List.filter
          (fun (row : Lp.Lp_problem.constr) ->
            Float.is_finite row.Lp.Lp_problem.rhs
            && List.for_all (fun (_, a) -> Float.is_finite a) row.Lp.Lp_problem.coeffs)
          rows
      in
      cuts := keep_finite !cuts;
      let incumbent = ref None in
      let incumbent_key = ref infinity in
      let lower_bound = ref neg_infinity in
      let iterations = ref 0 in
      let finished = ref false in
      let stop_reason :
          [ `Internal of Solution.reason | `Budget of Solution.reason ] option ref =
        ref None
      in
      while (not !finished) && !iterations < options.max_iterations do
        match Engine.Budget.stopped budget with
        | Some r ->
          stop_reason := Some (`Budget (Solution.reason_of_budget r));
          finished := true
        | None ->
        incr iterations;
        let ms =
          Engine.Telemetry.time tally "master" (fun () ->
              Milp.run ~options:milp_options ~extra_rows:!cuts ?budget ?tally master)
        in
        stats :=
          add_stats !stats
            { ms.Solution.stats with Solution.cuts = List.length !cuts };
        (match ms.Solution.status with
        | Solution.Infeasible ->
          (* master infeasible: the cuts prove there is no better point *)
          finished := true
        | Solution.Unbounded -> finished := true
        | Solution.Feasible r ->
          stop_reason := Some (`Internal r);
          finished := true
        | Solution.Budget_exhausted r ->
          stop_reason := Some (`Budget r);
          finished := true
        | Solution.Optimal ->
          lower_bound := Float.max !lower_bound (key ms.Solution.obj);
          if
            !incumbent_key < infinity
            && !incumbent_key -. !lower_bound
               <= options.rel_gap *. Float.max 1. (Float.abs !incumbent_key)
          then finished := true
          else begin
            (* fix integers, solve for the best continuous completion *)
            let lo = Array.copy p.lo and hi = Array.copy p.hi in
            Array.iteri
              (fun j kind ->
                match kind with
                | Problem.Integer | Problem.Binary ->
                  let v = Float.round ms.Solution.x.(j) in
                  lo.(j) <- v;
                  hi.(j) <- v
                | Problem.Continuous -> ())
              p.kinds;
            stats := { !stats with Solution.nlp_solves = !stats.Solution.nlp_solves + 1 };
            let r = Relax.solve_nlp ?budget ?tally p ~lo ~hi ~start:ms.Solution.x in
            if r.Relax.feasible then begin
              if key r.Relax.obj < !incumbent_key then begin
                incumbent_key := key r.Relax.obj;
                incumbent := Some (Problem.round_integral p r.Relax.x, r.Relax.obj)
              end;
              cuts := keep_finite (List.map (fun c -> Relax.oa_cut c r.Relax.x) nl) @ !cuts
            end
            else
              (* no feasible completion: cut the master point away *)
              cuts :=
                keep_finite
                  (List.map (fun c -> Relax.oa_cut c ms.Solution.x) (Relax.violated_nl ~tol:options.tol_nl p ms.Solution.x))
                @ !cuts;
            (* integer no-good is implied by the new cuts for convex
               problems; gap check happens on the next master solve *)
            if
              !incumbent_key < infinity
              && !incumbent_key -. !lower_bound
                 <= options.rel_gap *. Float.max 1. (Float.abs !incumbent_key)
            then finished := true
          end)
      done;
      (* a budget stop can land inside an inner NLP without surfacing in
         the master's status; re-inspect (non-charging) before
         classifying, and give the stop order precedence: a solver that
         observed "stop" reports budget exhaustion, even when its last
         subproblem happened to close the gap *)
      (match !stop_reason with
      | Some (`Budget _) -> ()
      | None | Some (`Internal _) -> (
        match Engine.Budget.inspected budget with
        | Some r -> stop_reason := Some (`Budget (Solution.reason_of_budget r))
        | None -> ()));
      let solution =
        match !incumbent with
        | Some (x, obj) ->
          let status =
            match !stop_reason with
            | Some (`Budget r) -> Solution.Budget_exhausted r
            | (Some (`Internal _) | None) as sr ->
              if
                !incumbent_key -. !lower_bound
                <= options.rel_gap *. Float.max 1. (Float.abs !incumbent_key)
              then Solution.Optimal
              else (
                match sr with
                | Some (`Internal r) -> Solution.Feasible r
                | Some (`Budget _) | None -> Solution.Feasible Solution.Round_limit)
          in
          truncate { Solution.status; x; obj; bound = !lower_bound; stats = !stats }
        | None -> (
          match !stop_reason with
          | Some (`Budget r | `Internal r) ->
            {
              Solution.status = Solution.Budget_exhausted r;
              x = [||];
              obj = nan;
              bound = !lower_bound;
              stats = !stats;
            }
          | None -> infeasible_solution !stats)
      in
      { solution; iterations = !iterations }
    end
  end
