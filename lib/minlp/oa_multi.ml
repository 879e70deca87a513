let default_options = { Milp.default_options with max_nodes = 50_000; rel_gap = 1e-6 }

(* master/NLP alternations before the search gives up with [Round_limit] *)
let max_iterations = 100

type info = { solution : Solution.t; iterations : int }

let add_stats (a : Solution.stats) (b : Solution.stats) =
  {
    Solution.nodes = a.Solution.nodes + b.Solution.nodes;
    lp_solves = a.Solution.lp_solves + b.Solution.lp_solves;
    nlp_solves = a.Solution.nlp_solves + b.Solution.nlp_solves;
    cuts = a.Solution.cuts + b.Solution.cuts;
  }

let run ?(options = default_options) ?budget ?tally p0 =
  let iterations = ref 0 in
  let solution =
    Presolve.framed ?tally p0 (fun p _ ->
      let _, nl = Problem.split_constraints p in
      if nl = [] then begin
        iterations := 1;
        Milp.run ~options ?budget ?tally p
      end
      else begin
        let stats = ref Solution.empty_stats in
        let master = Problem.linear_restriction p in
        let key v = if p.minimize then v else -.v in
        (* one compiled relaxation context for the root solve and every
           fixed-integer completion *)
        let rctx = Relax.context p in
        (* seed cuts from the continuous relaxation *)
        stats := { !stats with Solution.nlp_solves = !stats.Solution.nlp_solves + 1 };
        let root =
          Engine.Telemetry.time tally "root-nlp" (fun () ->
              Relax.solve_nlp_ctx ?budget ?tally rctx ~lo:p.lo ~hi:p.hi
                ~start:(Relax.midpoint p.lo p.hi))
        in
        let cuts = ref (Relax.finite_cuts nl root.Relax.x) in
        (* as Oa counts them: each cut generated after the root's seed
           cuts, once, in the stats and in the tally's [oa_cuts] *)
        let add_cuts fresh =
          cuts := fresh @ !cuts;
          let n = List.length fresh in
          stats := { !stats with Solution.cuts = !stats.Solution.cuts + n };
          Engine.Telemetry.bump tally Engine.Telemetry.add_oa_cuts n
        in
        let incumbent = ref None in
        let incumbent_key = ref infinity in
        let lower_bound = ref neg_infinity in
        let within_gap () =
          !incumbent_key -. !lower_bound
          <= options.rel_gap *. Float.max 1. (Float.abs !incumbent_key)
        in
        let finished = ref false in
        let stop_reason :
            [ `Internal of Solution.reason | `Budget of Solution.reason ] option ref =
          ref None
        in
        while (not !finished) && !iterations < max_iterations do
          match Engine.Budget.stopped budget with
          | Some r ->
            stop_reason := Some (`Budget (Solution.reason_of_budget r));
            finished := true
          | None ->
          incr iterations;
          let ms =
            Engine.Telemetry.time tally "master" (fun () ->
                Milp.run ~options ~extra_rows:!cuts ?budget ?tally master)
          in
          stats := add_stats !stats ms.Solution.stats;
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
            if !incumbent_key < infinity && within_gap () then finished := true
            else begin
              (* fix integers, solve for the best continuous completion *)
              stats := { !stats with Solution.nlp_solves = !stats.Solution.nlp_solves + 1 };
              let r = Relax.solve_fixed ?budget ?tally rctx ~lo:p.lo ~hi:p.hi ms.Solution.x in
              if r.Relax.feasible then begin
                if key r.Relax.obj < !incumbent_key then begin
                  incumbent_key := key r.Relax.obj;
                  incumbent := Some (Problem.round_integral p r.Relax.x, r.Relax.obj)
                end;
                add_cuts (Relax.finite_cuts nl r.Relax.x)
              end
              else
                (* no feasible completion: cut the master point away *)
                add_cuts (Relax.finite_cuts (Relax.violated_nl p ms.Solution.x) ms.Solution.x);
              (* integer no-good is implied by the new cuts for convex
                 problems; gap check happens on the next master solve *)
              if !incumbent_key < infinity && within_gap () then finished := true
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
        match !incumbent with
        | Some (x, obj) ->
          let status =
            match !stop_reason with
            | Some (`Budget r) -> Solution.Budget_exhausted r
            | (Some (`Internal _) | None) as sr ->
              if within_gap () then Solution.Optimal
              else (
                match sr with
                | Some (`Internal r) -> Solution.Feasible r
                | Some (`Budget _) | None -> Solution.Feasible Solution.Round_limit)
          in
          { Solution.status; x; obj; bound = !lower_bound; stats = !stats }
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
          | None ->
            {
              Solution.status = Solution.Infeasible;
              x = [||];
              obj = nan;
              bound = nan;
              stats = !stats;
            })
      end)
  in
  { solution; iterations = !iterations }
