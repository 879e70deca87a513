type layout = Hybrid | Sequential_group | Fully_sequential

type config = {
  n_total : int;
  ocn_allowed : int list option;
  atm_allowed : int list option;
  tsync : float option;
  solver : Engine.Solver_choice.t;
}

let default_config ~n_total =
  {
    n_total;
    ocn_allowed = None;
    atm_allowed = None;
    tsync = None;
    solver = Engine.Solver_choice.Oa;
  }

type inputs = {
  ice : Component.t;
  lnd : Component.t;
  atm : Component.t;
  ocn : Component.t;
}

type alloc = {
  nodes : (string * int) list;
  times : (string * float) list;
  total : float;
  status : Minlp.Solution.status;
  stats : Minlp.Solution.stats;
  certificate : Engine.Certificate.t option;
}

let layout_name = function
  | Hybrid -> "hybrid (1)"
  | Sequential_group -> "sequential-group (2)"
  | Fully_sequential -> "fully-sequential (3)"

let layout_total layout ~ice ~lnd ~atm ~ocn =
  match layout with
  | Hybrid -> Float.max (Float.max ice lnd +. atm) ocn
  | Sequential_group -> Float.max (ice +. lnd +. atm) ocn
  | Fully_sequential -> ice +. lnd +. atm +. ocn

let law_expr (law : Scaling_law.t) n_var =
  let open Minlp.Expr in
  let n = var n_var in
  add
    [
      scale law.Scaling_law.a (pow n (-.law.Scaling_law.c));
      scale law.Scaling_law.b n;
      const law.Scaling_law.d;
    ]

let build layout config inputs =
  let n = float_of_int config.n_total in
  if config.n_total < 4 then invalid_arg "Layout_model.build: need at least 4 nodes";
  let b = Minlp.Problem.Builder.create () in
  let t = Minlp.Problem.Builder.add_var b ~name:"T" ~lo:0. ~hi:1e12 Minlp.Problem.Continuous in
  let node_var name =
    Minlp.Problem.Builder.add_var b ~name ~lo:1. ~hi:n Minlp.Problem.Integer
  in
  let n_i = node_var "n_ice" in
  let n_l = node_var "n_lnd" in
  let n_a = node_var "n_atm" in
  let n_o = node_var "n_ocn" in
  Minlp.Problem.Builder.set_objective b (Minlp.Expr.var t);
  let ice_e = law_expr inputs.ice.Component.law n_i in
  let lnd_e = law_expr inputs.lnd.Component.law n_l in
  let atm_e = law_expr inputs.atm.Component.law n_a in
  let ocn_e = law_expr inputs.ocn.Component.law n_o in
  let le ?name e rhs = Minlp.Problem.Builder.add_constr b ?name e Lp.Lp_problem.Le rhs in
  (match layout with
  | Hybrid ->
    let t_il =
      Minlp.Problem.Builder.add_var b ~name:"T_icelnd" ~lo:0. ~hi:1e12 Minlp.Problem.Continuous
    in
    le ~name:"icelnd>=ice" Minlp.Expr.(ice_e - var t_il) 0.;
    le ~name:"icelnd>=lnd" Minlp.Expr.(lnd_e - var t_il) 0.;
    le ~name:"T>=icelnd+atm" Minlp.Expr.(var t_il + atm_e - var t) 0.;
    le ~name:"T>=ocn" Minlp.Expr.(ocn_e - var t) 0.;
    le ~name:"atm+ocn<=N" (Minlp.Expr.linear [ (n_a, 1.); (n_o, 1.) ]) n;
    le ~name:"ice+lnd<=atm" (Minlp.Expr.linear [ (n_i, 1.); (n_l, 1.); (n_a, -1.) ]) 0.
  | Sequential_group ->
    le ~name:"T>=ice+lnd+atm" Minlp.Expr.(ice_e + lnd_e + atm_e - var t) 0.;
    le ~name:"T>=ocn" Minlp.Expr.(ocn_e - var t) 0.;
    le ~name:"lnd<=N-ocn" (Minlp.Expr.linear [ (n_l, 1.); (n_o, 1.) ]) n;
    le ~name:"ice<=N-ocn" (Minlp.Expr.linear [ (n_i, 1.); (n_o, 1.) ]) n;
    le ~name:"atm<=N-ocn" (Minlp.Expr.linear [ (n_a, 1.); (n_o, 1.) ]) n
  | Fully_sequential ->
    le ~name:"T>=sum" Minlp.Expr.(ice_e + lnd_e + atm_e + ocn_e - var t) 0.);
  (* synchronization tolerance |T_lnd - T_ice| <= Tsync (nonconvex) *)
  (match config.tsync with
  | None -> ()
  | Some tol ->
    le ~name:"tsync+" Minlp.Expr.(lnd_e - ice_e) tol;
    le ~name:"tsync-" Minlp.Expr.(ice_e - lnd_e) tol);
  (* sweet spots *)
  (match config.ocn_allowed with
  | None -> ()
  | Some values ->
    let vals = List.filter (fun v -> v >= 1 && v <= config.n_total) values in
    if vals = [] then invalid_arg "Layout_model.build: no feasible ocean sweet spot";
    ignore (Hslb.Alloc_model.restrict_to_values b ~var:n_o vals));
  (match config.atm_allowed with
  | None -> ()
  | Some values ->
    let vals = List.filter (fun v -> v >= 1 && v <= config.n_total) values in
    if vals = [] then invalid_arg "Layout_model.build: no feasible atmosphere sweet spot";
    ignore (Hslb.Alloc_model.restrict_to_values b ~var:n_a vals));
  (Minlp.Problem.Builder.build b, (n_i, n_l, n_a, n_o))

let decode layout inputs (vi, vl, va, vo) (sol : Minlp.Solution.t) cert =
  let node v = int_of_float (Float.round sol.Minlp.Solution.x.(v)) in
  let n_ice = node vi and n_lnd = node vl and n_atm = node va and n_ocn = node vo in
  let t_of c nn = Component.time c nn in
  let ice = t_of inputs.ice n_ice
  and lnd = t_of inputs.lnd n_lnd
  and atm = t_of inputs.atm n_atm
  and ocn = t_of inputs.ocn n_ocn in
  {
    nodes =
      [
        (inputs.ice.Component.cname, n_ice);
        (inputs.lnd.Component.cname, n_lnd);
        (inputs.atm.Component.cname, n_atm);
        (inputs.ocn.Component.cname, n_ocn);
      ];
    times =
      [
        (inputs.ice.Component.cname, ice);
        (inputs.lnd.Component.cname, lnd);
        (inputs.atm.Component.cname, atm);
        (inputs.ocn.Component.cname, ocn);
      ];
    total = layout_total layout ~ice ~lnd ~atm ~ocn;
    status = sol.Minlp.Solution.status;
    stats = sol.Minlp.Solution.stats;
    certificate = Some cert;
  }

let solve ?budget ?cancel ?trace layout config inputs =
  let budget = Engine.Budget.join ?budget ?cancel () in
  let problem, vars = build layout config inputs in
  (* the nonconvex tsync constraint invalidates OA cuts; only the
     NLP-based tree (local relaxations) is sound there, so tsync models
     always run Bnb, whatever [config.solver] says *)
  let solver =
    match config.tsync with Some _ -> Engine.Solver_choice.Bnb | None -> config.solver
  in
  let sol, cert =
    Minlp.Solver.run ~rel_gap:Minlp.Solver.model_rel_gap ?budget ?tally:trace solver problem
  in
  if Minlp.Solution.has_incumbent sol then Ok (decode layout inputs vars sol cert)
  else Error sol.Minlp.Solution.status

let fail_on_error layout config = function
  | Ok alloc -> alloc
  | Error status ->
    failwith
      (Printf.sprintf "Layout_model.solve: %s for %s on %d nodes"
         (Minlp.Solution.status_to_string status)
         (layout_name layout) config.n_total)

let predict_scaling layout config inputs ~node_counts =
  List.map
    (fun n_total ->
      let config = { config with n_total } in
      let alloc = fail_on_error layout config (solve layout config inputs) in
      (n_total, alloc.total))
    node_counts
