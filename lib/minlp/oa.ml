let default_options = { Milp.default_options with rel_gap = 1e-6 }

(* cut rounds per integer assignment before the cycling guard *)
let max_oa_rounds = 60

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

let run ?(options = default_options) ?budget ?tally ?warm_start p0 =
  (* the warm start goes to the master MILP, which validates it against
     its own rows (the master relaxes the nonlinear constraints, so any
     point feasible for [p] is feasible for it, and its objective value
     is a true upper bound for pruning) *)
  Presolve.framed ?tally ?warm_start p0 (fun p warm ->
      let _, nl = Problem.split_constraints p in
      if nl = [] then Milp.run ~options ?budget ?tally ?warm_start:warm p
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
           any point — and let the master tree decide feasibility. The
           warm start is linearized too: the root NLP stops at its
           iteration caps far from the optimum on the fitted allocation
           models, and cuts there alone left water-32's monomer master
           600-3,800 nodes to close, a count that swung by 2x with the
           last digits of the laws; with cuts at a good integral point it
           closes in 75-120 *)
        let initial_cuts =
          Relax.finite_cuts nl root.Relax.x
          @ match warm with Some w -> Relax.finite_cuts nl w | None -> []
        in
        let rounds : (string, int) Hashtbl.t = Hashtbl.create 64 in
        let on_integral ~lo:_ ~hi:_ x obj =
          let violated = Relax.violated_nl p x in
          if violated = [] then `Accept (x, obj)
          else begin
            let akey = assignment_key p x in
            let seen = Option.value ~default:0 (Hashtbl.find_opt rounds akey) in
            Hashtbl.replace rounds akey (seen + 1);
            if seen >= max_oa_rounds then
              (* cycling guard: keep cutting at the LP point, which moves
                 every round as earlier cuts tighten the relaxation *)
              `Reject (List.map (fun c -> Relax.oa_cut c x) violated, None)
            else begin
              (* fixed-integer NLP: best continuous completion of x *)
              incr nlp_solves;
              let r = Relax.solve_fixed ?budget ?tally rctx ~lo:p.lo ~hi:p.hi x in
              if r.Relax.feasible then
                let cuts = List.map (fun c -> Relax.oa_cut c r.Relax.x) nl in
                `Reject (cuts, Some (r.Relax.x, r.Relax.obj))
              else
                (* integer assignment has no feasible completion:
                   feasibility cuts at the LP point *)
                `Reject (List.map (fun c -> Relax.oa_cut c x) violated, None)
            end
          end
        in
        let master = Problem.linear_restriction p in
        let s =
          Engine.Telemetry.time tally "master" (fun () ->
              Milp.run ~options ~extra_rows:initial_cuts ~on_integral ?budget ?tally
                ?warm_start:warm master)
        in
        { s with Solution.stats = { s.Solution.stats with nlp_solves = !nlp_solves } }
      end)
