let model_rel_gap = 1e-4

let exact_refused =
  "solver exact solves separable min-max allocations only; this model needs a MINLP \
   solver (oa, bnb or oa-multi)"

let run ?(rel_gap = 1e-6) ?budget ?tally ?warm_start choice (p : Problem.t) =
  let sol =
    match choice with
    | Engine.Solver_choice.Exact -> invalid_arg exact_refused
    | Engine.Solver_choice.Oa ->
      Oa.run ~options:{ Oa.default_options with rel_gap } ?budget ?tally ?warm_start p
    | Engine.Solver_choice.Bnb ->
      Bnb.run ~options:{ Bnb.default_options with rel_gap } ?budget ?tally ?warm_start p
    | Engine.Solver_choice.Oa_multi ->
      (Oa_multi.run ~options:{ Oa_multi.default_options with rel_gap } ?budget ?tally p)
        .Oa_multi.solution
  in
  let cert =
    Solution.certify
      ~producer:(Engine.Solver_choice.to_string choice)
      ?budget ~minimize:p.Problem.minimize ~tol:rel_gap
      ?pruned:(Option.map (fun t -> t.Engine.Telemetry.nodes_pruned) tally)
      sol
  in
  (sol, cert)
