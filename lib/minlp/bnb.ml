let default_options =
  {
    Milp.max_nodes = 20_000;
    rel_gap = 1e-6;
    branch_sos_first = true;
    branching = Milp.Most_fractional;
  }

let run ?(options = default_options) ?budget ?tally ?warm_start p0 =
  Presolve.framed ?tally ?warm_start p0 (fun p warm ->
      let key v = if p.Problem.minimize then v else -.v in
      let nlp_solves = ref 0 in
      (* one compiled relaxation context for the whole tree: the node
         loop only swaps boxes, never re-lowers expressions *)
      let rctx = Relax.context p in
      let relax start ~lo ~hi =
        incr nlp_solves;
        let start = Numerics.Vec.clamp ~lo ~hi start in
        let r = Relax.solve_nlp_ctx ?budget ?tally rctx ~lo ~hi ~start in
        let status = if r.Relax.feasible then Lp.Simplex.Optimal else Lp.Simplex.Infeasible in
        { Lp.Simplex.status; x = r.Relax.x; obj = r.Relax.obj }
      in
      let polish ~lo ~hi x obj =
        incr nlp_solves;
        let polished = Relax.solve_fixed ?budget ?tally rctx ~lo ~hi x in
        if polished.Relax.feasible && key polished.Relax.obj < key obj then
          `Accept (polished.Relax.x, polished.Relax.obj)
        else `Accept (x, obj)
      in
      (* the node relaxations are solved by a local method, so the root
         starts from the primed incumbent's point rather than the box
         midpoint: a local solve from far away can end above the
         incumbent and prune the whole tree *)
      let root =
        match warm with
        | Some w -> Problem.round_integral p w
        | None -> Relax.midpoint p.Problem.lo p.Problem.hi
      in
      let s =
        Milp.search ~options ~relax ~root ~carry:Fun.id ~on_integral:polish ~add_cuts:ignore
          ?budget ?tally ?warm_start:warm p
      in
      { s with Solution.stats = { s.Solution.stats with nlp_solves = !nlp_solves } })
