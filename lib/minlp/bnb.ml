type options = { max_nodes : int; tol_int : float; rel_gap : float; branch_sos_first : bool }

let default_options = { max_nodes = 20_000; tol_int = 1e-6; rel_gap = 1e-6; branch_sos_first = true }

type node = { nlo : float array; nhi : float array; depth : int; bound : float; start : float array }

let run ?(options = default_options) ?budget ?tally ?warm_start (p0 : Problem.t) =
  let p, orig_dim = Problem.normalize p0 in
  let pre = Presolve.tighten p in
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
  let key v = if p.minimize then v else -.v in
  let nlp_solves = ref 0 in
  let nodes_processed = ref 0 in
  let incumbent = ref None in
  let incumbent_key = ref infinity in
  (* Warm start: lift a feasible point of [p0] through the epigraph
     normalization and prime the incumbent. Presolve only tightens
     bounds around the feasible set, so a feasible point survives it.
     Infeasible or mis-sized points are silently ignored. The lifted
     point also seeds the root relaxation: the node relaxations are
     solved by a local method, so pruning against the primed incumbent
     is only safe when the root solve starts from a point at least as
     good as that incumbent. *)
  let warm_lifted = ref None in
  (match warm_start with
  | Some x0 -> (
    match Problem.lift_point ~orig:p0 p x0 with
    | Some x0' when Problem.feasible ~tol:options.tol_int p x0' ->
      let x0' = Problem.round_integral p x0' in
      let obj0 = Problem.objective_value p x0' in
      incumbent := Some (x0', obj0);
      incumbent_key := key obj0;
      warm_lifted := Some x0';
      Engine.Telemetry.set_warm_start_used tally
    | Some _ | None -> ())
  | None -> ());
  (* one compiled relaxation context for the whole tree: the node loop
     only swaps boxes, never re-lowers expressions *)
  let rctx = Relax.context p in
  let leq a b = a.bound <= b.bound in
  let open_nodes = Ds.Heap.create ~leq in
  let root_start =
    match !warm_lifted with Some w -> w | None -> Relax.midpoint p.lo p.hi
  in
  Ds.Heap.push open_nodes
    { nlo = Array.copy p.lo; nhi = Array.copy p.hi; depth = 0; bound = neg_infinity; start = root_start };
  let stopped : [ `Internal of Solution.reason | `Budget of Solution.reason ] option ref =
    ref None
  in
  let prune_tol () = options.rel_gap *. Float.max 1. (Float.abs !incumbent_key) in
  let push_child node j ~lo ~hi start =
    let nlo = Array.copy node.nlo and nhi = Array.copy node.nhi in
    nlo.(j) <- Float.max nlo.(j) lo;
    nhi.(j) <- Float.min nhi.(j) hi;
    if nlo.(j) <= nhi.(j) then
      Ds.Heap.push open_nodes { nlo; nhi; depth = node.depth + 1; bound = node.bound; start }
  in
  let push_sos_child node subset start =
    let nlo = Array.copy node.nlo and nhi = Array.copy node.nhi in
    let ok = ref true in
    List.iter
      (fun (j, _) ->
        if nlo.(j) > 0. || nhi.(j) < 0. then ok := false
        else begin
          nlo.(j) <- 0.;
          nhi.(j) <- 0.
        end)
      subset;
    if !ok then Ds.Heap.push open_nodes { nlo; nhi; depth = node.depth + 1; bound = node.bound; start }
  in
  let continue_loop = ref true in
  while !continue_loop && not (Ds.Heap.is_empty open_nodes) do
    match Engine.Budget.stopped budget with
    | Some r ->
      stopped := Some (`Budget (Solution.reason_of_budget r));
      continue_loop := false
    | None ->
    if !nodes_processed >= options.max_nodes then begin
      stopped := Some (`Internal Solution.Node_limit);
      continue_loop := false
    end
    else begin
      let node = Ds.Heap.pop open_nodes in
      if node.bound >= !incumbent_key -. prune_tol () then
        Engine.Telemetry.bump tally Engine.Telemetry.add_nodes_pruned 1
      else begin
        incr nodes_processed;
        incr nlp_solves;
        (match budget with Some b -> Engine.Budget.add_nodes b 1 | None -> ());
        Engine.Telemetry.bump tally Engine.Telemetry.add_nodes_expanded 1;
        let start = Numerics.Vec.clamp ~lo:node.nlo ~hi:node.nhi node.start in
        let r = Relax.solve_nlp_ctx ?budget ?tally rctx ~lo:node.nlo ~hi:node.nhi ~start in
        if not r.Relax.feasible then
          Engine.Telemetry.bump tally Engine.Telemetry.add_nodes_pruned 1
        else begin
          let k = key r.Relax.obj in
          if k >= !incumbent_key -. prune_tol () then ()
          else begin
            let x = r.Relax.x in
            let sos_viol =
              if options.branch_sos_first then Problem.violated_sos1 ~tol:options.tol_int p x
              else None
            in
            match sos_viol with
            | Some members ->
              let s1, s2 = Milp.sos_split members x in
              let node = { node with bound = k } in
              push_sos_child node s1 x;
              push_sos_child node s2 x
            | None -> (
              match Problem.most_fractional ~tol:options.tol_int p x with
              | Some j ->
                let node = { node with bound = k } in
                push_child node j ~lo:neg_infinity ~hi:(Float.floor x.(j)) x;
                push_child node j ~lo:(Float.ceil x.(j)) ~hi:infinity x
              | None -> (
                match Problem.violated_sos1 ~tol:options.tol_int p x with
                | Some members ->
                  let s1, s2 = Milp.sos_split members x in
                  let node = { node with bound = k } in
                  push_sos_child node s1 x;
                  push_sos_child node s2 x
                | None ->
                  (* polish: re-solve with the integer assignment fixed
                     so the continuous completion is as good as the
                     subproblem allows (rounding the relaxation point
                     alone can be measurably suboptimal) *)
                  let xr = Problem.round_integral p x in
                  let plo = Array.copy node.nlo and phi = Array.copy node.nhi in
                  Array.iteri
                    (fun j kind ->
                      match kind with
                      | Problem.Integer | Problem.Binary ->
                        plo.(j) <- xr.(j);
                        phi.(j) <- xr.(j)
                      | Problem.Continuous -> ())
                    p.kinds;
                  incr nlp_solves;
                  let polished = Relax.solve_nlp_ctx ?budget ?tally rctx ~lo:plo ~hi:phi ~start:xr in
                  let cand_x, cand_obj =
                    if polished.Relax.feasible && key polished.Relax.obj < k then
                      (Problem.round_integral p polished.Relax.x, polished.Relax.obj)
                    else (xr, r.Relax.obj)
                  in
                  if key cand_obj < !incumbent_key then begin
                    incumbent_key := key cand_obj;
                    incumbent := Some (cand_x, cand_obj);
                    Engine.Telemetry.bump tally Engine.Telemetry.add_incumbent_updates 1
                  end))
          end
        end
      end
    end
  done;
  let best_open_bound = Ds.Heap.fold (fun acc n -> Float.min acc n.bound) infinity open_nodes in
  let bound = Float.min !incumbent_key best_open_bound in
  let stats =
    { Solution.nodes = !nodes_processed; lp_solves = 0; nlp_solves = !nlp_solves; cuts = 0 }
  in
  (* a budget stop can land inside a node's NLP relaxation: the aborted
     subproblem reads as infeasible, the node is dropped childless, and
     the heap can drain to empty without the top-of-loop check ever
     firing. Re-inspect the budget before classifying the result —
     without charging a poll, since this is bookkeeping, not solving. *)
  (match !stopped with
  | Some (`Budget _) -> ()
  | None | Some (`Internal _) -> (
    match Engine.Budget.inspected budget with
    | Some r -> stopped := Some (`Budget (Solution.reason_of_budget r))
    | None -> ()));
  match !incumbent with
  | Some (x, _) ->
    let status =
      match !stopped with
      | Some (`Budget r) -> Solution.Budget_exhausted r
      | Some (`Internal r) -> Solution.Feasible r
      | None -> Solution.Optimal
    in
    let x = Array.sub x 0 orig_dim in
    (* report the objective of the point actually returned: an
       early-aborted subproblem can leave the epigraph variable above
       the true objective value, and the certificate claims must match
       the witness exactly. The bound folds in the (possibly inflated)
       incumbent key, so clamp it to the recomputed objective — a
       feasible point's value is always a valid upper bound. *)
    let obj = Problem.objective_value p0 x in
    let bound = Float.min bound (key obj) in
    { Solution.status; x; obj; bound; stats }
  | None ->
    let status =
      match !stopped with
      | Some (`Internal r | `Budget r) -> Solution.Budget_exhausted r
      | None -> Solution.Infeasible
    in
    { Solution.status; x = [||]; obj = nan; bound; stats }
  end
