type spec = {
  fc : Classes.fitted;
  n_min : int;
  n_max : int;
  allowed : int list option;
}

let spec_of ?(n_min = 1) ?(n_max = max_int) ?allowed fc =
  if n_min < 1 || n_max < n_min then invalid_arg "Alloc_model.spec_of: bad node range";
  (match allowed with
  | Some [] -> invalid_arg "Alloc_model.spec_of: empty allowed list"
  | Some l -> List.iter (fun n -> if n < 1 then invalid_arg "Alloc_model.spec_of: allowed < 1") l
  | None -> ());
  { fc; n_min; n_max; allowed }

type allocation = {
  nodes_per_task : int array;
  predicted_makespan : float;
  predicted_times : float array;
  status : Minlp.Solution.status;
  stats : Minlp.Solution.stats;
  certificate : Engine.Certificate.t option;
}

let law_expr (law : Scaling_law.t) n_var =
  let open Minlp.Expr in
  let n = var n_var in
  add
    [
      scale law.Scaling_law.a (pow n (-.law.Scaling_law.c));
      scale law.Scaling_law.b n;
      const law.Scaling_law.d;
    ]

let effective_range ~n_total spec =
  (Stdlib.min spec.n_min n_total |> Stdlib.max 1, Stdlib.min spec.n_max n_total)

(* restrict an integer variable to a discrete value list: binaries +
   SOS1, with linking rows n = Σ z_k·v_k, Σ z_k = 1 *)
let restrict_to_values b ~var:n_var values =
  (* duplicates would put two SOS1 members at the same weight and make
     the set-branching split degenerate; unsorted input only hurts
     debuggability — normalize both *)
  let values = List.sort_uniq compare values in
  let zs = List.map (fun _ -> Minlp.Problem.Builder.add_var b Minlp.Problem.Binary) values in
  Minlp.Problem.Builder.add_constr b
    (Minlp.Expr.linear (List.map (fun z -> (z, 1.)) zs))
    Lp.Lp_problem.Eq 1.;
  Minlp.Problem.Builder.add_constr b
    (Minlp.Expr.add
       (Minlp.Expr.var n_var
       :: List.map2 (fun z v -> Minlp.Expr.scale (-.float_of_int v) (Minlp.Expr.var z)) zs values))
    Lp.Lp_problem.Eq 0.;
  Minlp.Problem.Builder.add_sos1 b (List.map2 (fun z v -> (z, float_of_int v)) zs values);
  List.combine zs values

let build_minlp ~objective ~n_total specs =
  if specs = [] then invalid_arg "Alloc_model.build_minlp: no classes";
  if n_total < 1 then invalid_arg "Alloc_model.build_minlp: n_total must be >= 1";
  let b = Minlp.Problem.Builder.create () in
  match objective with
  | Objective.Max_min -> invalid_arg "Alloc_model.build_minlp: Max_min uses the bisection solver"
  | Objective.Min_max | Objective.Min_sum ->
    let has_t = objective = Objective.Min_max in
    let t_var =
      if has_t then
        Some (Minlp.Problem.Builder.add_var b ~name:"T" ~lo:0. ~hi:1e12 Minlp.Problem.Continuous)
      else None
    in
    let n_vars =
      List.mapi
        (fun i spec ->
          let lo, hi = effective_range ~n_total spec in
          Minlp.Problem.Builder.add_var b
            ~name:(Printf.sprintf "n_%s" spec.fc.Classes.cls.Classes.name)
            ~lo:(float_of_int lo) ~hi:(float_of_int hi) Minlp.Problem.Integer
          |> fun v ->
          ignore i;
          v)
        specs
    in
    (* per-class time constraints / objective terms; for [Min_sum] the
       per-class epigraph variables are kept for the warm-start lift *)
    let t_sum_vars =
      match t_var with
    | Some t ->
      Minlp.Problem.Builder.set_objective b (Minlp.Expr.var t);
      List.iteri
        (fun i spec ->
          let n_var = List.nth n_vars i in
          Minlp.Problem.Builder.add_constr b
            ~name:(Printf.sprintf "time_%s" spec.fc.Classes.cls.Classes.name)
            Minlp.Expr.(law_expr spec.fc.Classes.fit.Fitting.law n_var - var t)
            Lp.Lp_problem.Le 0.)
        specs;
      []
    | None ->
      (* separable epigraph: one t_c per class keeps every nonlinear
         constraint two-dimensional, which makes the outer-approximation
         cuts sharp (a single 2F-dimensional epigraph makes OA crawl) *)
      let t_vars =
        List.mapi
          (fun i spec ->
            let n_var = List.nth n_vars i in
            let t_c =
              Minlp.Problem.Builder.add_var b
                ~name:(Printf.sprintf "t_%s" spec.fc.Classes.cls.Classes.name)
                ~lo:0. ~hi:1e12 Minlp.Problem.Continuous
            in
            Minlp.Problem.Builder.add_constr b
              ~name:(Printf.sprintf "sumtime_%s" spec.fc.Classes.cls.Classes.name)
              Minlp.Expr.(
                scale
                  (float_of_int spec.fc.Classes.cls.Classes.count)
                  (law_expr spec.fc.Classes.fit.Fitting.law n_var)
                - var t_c)
              Lp.Lp_problem.Le 0.;
            t_c)
          specs
      in
      Minlp.Problem.Builder.set_objective b
        (Minlp.Expr.linear (List.map (fun t -> (t, 1.)) t_vars));
      t_vars
    in
    (* node budget *)
    Minlp.Problem.Builder.add_constr b ~name:"budget"
      (Minlp.Expr.linear
         (List.mapi
            (fun i spec ->
              (List.nth n_vars i, float_of_int spec.fc.Classes.cls.Classes.count))
            specs))
      Lp.Lp_problem.Le (float_of_int n_total);
    (* sweet spots *)
    let z_maps =
      List.concat
        (List.mapi
           (fun i spec ->
             match spec.allowed with
             | None -> []
             | Some values ->
               let lo, hi = effective_range ~n_total spec in
               let feasible_values = List.filter (fun v -> v >= lo && v <= hi) values in
               if feasible_values = [] then
                 invalid_arg "Alloc_model.build_minlp: no allowed value inside node range";
               [ (i, restrict_to_values b ~var:(List.nth n_vars i) feasible_values) ])
           specs)
    in
    let problem = Minlp.Problem.Builder.build b in
    let n_vars_arr = Array.of_list n_vars in
    let specs_arr = Array.of_list specs in
    (* lift a nodes-per-class vector into the full variable space:
       epigraph value(s) from the fitted laws, sweet-spot binaries set
       to the matching value *)
    let lift nodes =
      if Array.length nodes <> Array.length n_vars_arr then
        invalid_arg "Alloc_model.build_minlp: lift: wrong vector length";
      let x = Array.make problem.Minlp.Problem.num_vars 0. in
      Array.iteri (fun i nv -> x.(nv) <- float_of_int nodes.(i)) n_vars_arr;
      let time i =
        Scaling_law.eval_int specs_arr.(i).fc.Classes.fit.Fitting.law nodes.(i)
      in
      (match t_var with
      | Some t ->
        let m = ref 0. in
        Array.iteri (fun i _ -> m := Float.max !m (time i)) n_vars_arr;
        x.(t) <- !m
      | None ->
        List.iteri
          (fun i t_c ->
            x.(t_c) <-
              float_of_int specs_arr.(i).fc.Classes.cls.Classes.count *. time i)
          t_sum_vars);
      List.iter
        (fun (i, zs) -> List.iter (fun (z, v) -> if v = nodes.(i) then x.(z) <- 1.) zs)
        z_maps;
      x
    in
    (problem, n_vars_arr, lift)

let predicted_of specs nodes =
  let times =
    Array.of_list
      (List.mapi
         (fun i spec -> Scaling_law.eval_int spec.fc.Classes.fit.Fitting.law nodes.(i))
         specs)
  in
  (Array.fold_left Float.max 0. times, times)

(* --- Max_min: customized bisection over the achievable minimum time --- *)

let max_min_solve ~n_total specs =
  let specs_arr = Array.of_list specs in
  let k = Array.length specs_arr in
  (* restrict to the decreasing region of each fitted curve *)
  let decreasing_cap spec =
    let _, hi = effective_range ~n_total spec in
    let law = spec.fc.Classes.fit.Fitting.law in
    let opt = Scaling_law.optimal_nodes law ~max_nodes:(float_of_int hi) in
    Stdlib.max 1 (int_of_float (Float.floor opt))
  in
  let value_list spec =
    let lo, _ = effective_range ~n_total spec in
    let cap = decreasing_cap spec in
    match spec.allowed with
    | Some values -> List.sort compare (List.filter (fun v -> v >= lo && v <= cap) values)
    | None -> List.init (Stdlib.max 0 (cap - lo + 1)) (fun i -> lo + i)
  in
  let values = Array.map value_list specs_arr in
  Array.iteri
    (fun i vs ->
      if vs = [] then
        invalid_arg
          (Printf.sprintf "Alloc_model.max_min: class %s has no feasible size"
             specs_arr.(i).fc.Classes.cls.Classes.name))
    values;
  let time spec n = Scaling_law.eval_int spec.fc.Classes.fit.Fitting.law n in
  (* cap_i(t): largest feasible size with time >= t *)
  let cap_at i t =
    let spec = specs_arr.(i) in
    List.fold_left (fun acc v -> if time spec v >= t then Stdlib.max acc v else acc) (-1) values.(i)
  in
  let budget_ok t =
    let total = ref 0 in
    let ok = ref true in
    for i = 0 to k - 1 do
      let cap = cap_at i t in
      if cap < 0 then ok := false
      else total := !total + (specs_arr.(i).fc.Classes.cls.Classes.count * cap)
    done;
    !ok && !total >= n_total
  in
  (* the minimum time cannot exceed any class's time at its smallest size *)
  let t_hi =
    Array.fold_left
      (fun acc (spec, vs) -> Float.min acc (time spec (List.hd vs)))
      infinity
      (Array.map2 (fun s v -> (s, v)) specs_arr values)
  in
  let t_star =
    if budget_ok t_hi then t_hi
    else begin
      let lo = ref 0. and hi = ref t_hi in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if budget_ok mid then lo := mid else hi := mid
      done;
      !lo
    end
  in
  (* realize an allocation: start from the smallest sizes, grow toward the
     caps, spending remaining budget on the slowest class first *)
  let caps = Array.init k (fun i -> Stdlib.max (cap_at i t_star) (List.hd values.(i))) in
  let nodes = Array.map List.hd values in
  let counts = Array.map (fun s -> s.fc.Classes.cls.Classes.count) specs_arr in
  let used = ref 0 in
  Array.iteri (fun i n -> used := !used + (counts.(i) * n)) nodes;
  let next_value i cur =
    let rec go = function
      | [] -> None
      | v :: rest -> if v > cur then Some v else go rest
    in
    go values.(i)
  in
  let progress = ref true in
  while !progress do
    progress := false;
    (* slowest class first *)
    let order = Array.init k Fun.id in
    Array.sort
      (fun i j -> compare (time specs_arr.(j) nodes.(j)) (time specs_arr.(i) nodes.(i)))
      order;
    Array.iter
      (fun i ->
        if not !progress then
          match next_value i nodes.(i) with
          | Some v when v <= caps.(i) && !used + (counts.(i) * (v - nodes.(i))) <= n_total ->
            used := !used + (counts.(i) * (v - nodes.(i)));
            nodes.(i) <- v;
            progress := true
          | Some _ | None -> ())
      order
  done;
  let predicted_makespan, predicted_times = predicted_of specs nodes in
  {
    nodes_per_task = nodes;
    predicted_makespan;
    predicted_times;
    status = Minlp.Solution.Optimal;
    stats = Minlp.Solution.empty_stats;
    certificate =
      Some
        (Engine.Certificate.make ~producer:"hslb.bisection"
           ~claimed_status:Minlp.Solution.Optimal
           ~witness:(Array.map float_of_int nodes)
           ~claimed_obj:predicted_makespan ~minimize:false
           ~evidence:
             (Engine.Certificate.Exact_method
                "bisection over monotone per-class time curves")
           ());
  }

(* Min_sum is a separable convex resource-allocation problem, solvable
   exactly by greedy marginal allocation (Ibaraki & Katoh — the paper's
   reference [11] for customized polynomial-time solvers): start at the
   minimum sizes and repeatedly give a node to the class with the best
   total-time decrease. Greedy is optimal because each class cost is
   convex in its (integer) node count. *)
let min_sum_greedy ~n_total specs =
  let specs_arr = Array.of_list specs in
  let k = Array.length specs_arr in
  let counts = Array.map (fun s -> s.fc.Classes.cls.Classes.count) specs_arr in
  let time i n = Scaling_law.eval_int specs_arr.(i).fc.Classes.fit.Fitting.law n in
  let lo_hi = Array.map (effective_range ~n_total) specs_arr in
  let allowed_next i cur =
    match specs_arr.(i).allowed with
    | None -> if cur + 1 <= snd lo_hi.(i) then Some (cur + 1) else None
    | Some values ->
      List.fold_left
        (fun acc v ->
          if v > cur && v <= snd lo_hi.(i) then
            match acc with Some best when best <= v -> acc | Some _ | None -> Some v
          else acc)
        None values
  in
  let start i =
    match specs_arr.(i).allowed with
    | None -> fst lo_hi.(i)
    | Some values ->
      List.fold_left
        (fun acc v ->
          if v >= fst lo_hi.(i) && v <= snd lo_hi.(i) then
            match acc with Some best when best <= v -> acc | Some _ | None -> Some v
          else acc)
        None values
      |> Option.value ~default:(fst lo_hi.(i))
  in
  let nodes = Array.init k start in
  let used = ref 0 in
  Array.iteri (fun i n -> used := !used + (counts.(i) * n)) nodes;
  if !used > n_total then Error Minlp.Solution.Infeasible
  else begin
  let progress = ref true in
  while !progress do
    progress := false;
    (* best marginal improvement per node spent *)
    let best = ref (-1) and best_gain = ref 0. and best_next = ref 0 in
    for i = 0 to k - 1 do
      match allowed_next i nodes.(i) with
      | Some next when !used + (counts.(i) * (next - nodes.(i))) <= n_total ->
        let gain =
          float_of_int counts.(i)
          *. (time i nodes.(i) -. time i next)
          /. float_of_int (counts.(i) * (next - nodes.(i)))
        in
        if gain > !best_gain then begin
          best := i;
          best_gain := gain;
          best_next := next
        end
      | Some _ | None -> ()
    done;
    if !best >= 0 && !best_gain > 0. then begin
      used := !used + (counts.(!best) * (!best_next - nodes.(!best)));
      nodes.(!best) <- !best_next;
      progress := true
    end
  done;
  let predicted_makespan, predicted_times = predicted_of specs nodes in
  let total_time = ref 0. in
  Array.iteri
    (fun i n -> total_time := !total_time +. (float_of_int counts.(i) *. time i n))
    nodes;
  Ok
    {
      nodes_per_task = nodes;
      predicted_makespan;
      predicted_times;
      status = Minlp.Solution.Optimal;
      stats = Minlp.Solution.empty_stats;
      certificate =
        Some
          (Engine.Certificate.make ~producer:"hslb.greedy"
             ~claimed_status:Minlp.Solution.Optimal
             ~witness:(Array.map float_of_int nodes)
             ~claimed_obj:!total_time ~claimed_bound:!total_time
             ~evidence:
               (Engine.Certificate.Exact_method
                  "greedy marginal allocation on a separable convex objective \
                   (Ibaraki-Katoh)")
             ());
    }
  end

(* canonical, injective solve fingerprint: the solver, then the
   instance with length-prefixed names, round-tripping float formats and
   sorted-deduplicated allowed lists (the model dedups them too). Equal
   fingerprints imply equal instances solved by the same solver. *)
let fingerprint ~solver ~objective ~n_total specs =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "alloc-v2|%s|%s|%d|%d"
       (Engine.Solver_choice.to_string solver)
       (Objective.to_string objective) n_total (List.length specs));
  List.iter
    (fun spec ->
      let law = spec.fc.Classes.fit.Fitting.law in
      let name = spec.fc.Classes.cls.Classes.name in
      Buffer.add_string b
        (Printf.sprintf "|%d:%s,%d,%d,%d,%.17g,%.17g,%.17g,%.17g," (String.length name)
           name spec.fc.Classes.cls.Classes.count spec.n_min spec.n_max law.Scaling_law.a
           law.Scaling_law.b law.Scaling_law.c law.Scaling_law.d);
      match spec.allowed with
      | None -> Buffer.add_char b '*'
      | Some values ->
        List.iter
          (fun v -> Buffer.add_string b (Printf.sprintf "a%d" v))
          (List.sort_uniq compare values))
    specs;
  Buffer.contents b

let decode_solution ~producer ?budget ~problem specs n_vars (sol : Minlp.Solution.t) =
  match sol.Minlp.Solution.status with
  | (Minlp.Solution.Optimal | Minlp.Solution.Feasible _ | Minlp.Solution.Budget_exhausted _)
    when Array.length sol.Minlp.Solution.x > 0 ->
    let nodes =
      Array.map (fun v -> int_of_float (Float.round sol.Minlp.Solution.x.(v))) n_vars
    in
    let predicted_makespan, predicted_times = predicted_of specs nodes in
    let cert =
      Minlp.Solution.certify ~producer ?budget
        ~minimize:problem.Minlp.Problem.minimize ~tol:1e-4 sol
    in
    Ok
      {
        nodes_per_task = nodes;
        predicted_makespan;
        predicted_times;
        status = sol.Minlp.Solution.status;
        stats = sol.Minlp.Solution.stats;
        certificate = Some cert;
      }
  | st -> Error st

(* a 1e-4 relative gap is far below benchmark noise; demanding more
   makes the tree crawl on near-flat fitted curves *)
let run_minlp_solver solver ?budget ?tally ?warm problem =
  match solver with
  | Engine.Solver_choice.Oa ->
    Minlp.Oa.run
      ~options:{ Minlp.Oa.default_options with rel_gap = 1e-4 }
      ?budget ?tally ?warm_start:warm problem
  | Engine.Solver_choice.Bnb ->
    Minlp.Bnb.run
      ~options:{ Minlp.Bnb.default_options with rel_gap = 1e-4 }
      ?budget ?tally ?warm_start:warm problem
  | Engine.Solver_choice.Oa_multi ->
    (Minlp.Oa_multi.run
       ~options:{ Minlp.Oa_multi.default_options with rel_gap = 1e-4 }
       ?budget ?tally problem)
      .Minlp.Oa_multi.solution

let solve ?(solver = Engine.Solver_choice.Oa) ?(objective = Objective.Min_max) ?budget
    ?cancel ?warm_start ?trace ?cache ~n_total specs =
  if specs = [] then invalid_arg "Alloc_model.solve: no classes";
  let budget = Engine.Solver_intf.join_budget ?budget ?cancel () in
  let key = lazy (fingerprint ~solver ~objective ~n_total specs) in
  let cached =
    match cache with Some c -> Runtime.Cache.find c (Lazy.force key) | None -> None
  in
  match cached with
  | Some alloc -> Ok alloc
  | None ->
    let result =
      match objective with
      | Objective.Max_min -> Ok (max_min_solve ~n_total specs)
      | Objective.Min_sum -> min_sum_greedy ~n_total specs
      | Objective.Min_max ->
        let problem, n_vars, lift = build_minlp ~objective ~n_total specs in
        (* Warm start: the caller's nodes-per-class vector, or the greedy
           min-sum allocation (it respects the budget row, the boxes and the
           sweet-spot lists, so it lifts to a feasible point). Priming the
           incumbent both prunes the tree and guarantees a usable answer
           when the budget runs out. *)
        let warm =
          match warm_start with
          | Some nodes -> Some (lift nodes)
          | None -> (
            match min_sum_greedy ~n_total specs with
            | Ok a -> Some (lift a.nodes_per_task)
            | Error _ | (exception Invalid_argument _) -> None)
        in
        decode_solution
          ~producer:(Engine.Solver_choice.to_string solver)
          ?budget ~problem specs n_vars
          (run_minlp_solver solver ?budget ?tally:trace ?warm problem)
    in
    (* memoize only proven optima: budget-exhausted incumbents depend on
       wall-clock luck and must not be replayed as answers *)
    (match (result, cache) with
    | Ok alloc, Some c when alloc.status = Minlp.Solution.Optimal ->
      Runtime.Cache.put c (Lazy.force key) alloc
    | (Ok _ | Error _), _ -> ());
    result

let assignment_milp ?(max_nodes = 20_000) ~group_sizes ~duration ~num_tasks () =
  let ngroups = Array.length group_sizes in
  if ngroups = 0 then invalid_arg "Alloc_model.assignment_milp: no groups";
  let lpt () =
    let order = Array.init num_tasks Fun.id in
    Array.sort (fun t1 t2 -> compare (duration ~task:t2 ~group:0) (duration ~task:t1 ~group:0)) order;
    let load = Array.make ngroups 0. in
    let assign = Array.make num_tasks (-1) in
    Array.iter
      (fun task ->
        let best = ref 0 and best_f = ref infinity in
        for g = 0 to ngroups - 1 do
          let f = load.(g) +. duration ~task ~group:g in
          if f < !best_f then begin
            best_f := f;
            best := g
          end
        done;
        load.(!best) <- !best_f;
        assign.(task) <- !best)
      order;
    (assign, Array.fold_left Float.max 0. load)
  in
  if num_tasks = 0 then ([||], 0.)
  else begin
    let b = Minlp.Problem.Builder.create () in
    let t_var = Minlp.Problem.Builder.add_var b ~name:"T" ~lo:0. ~hi:1e12 Minlp.Problem.Continuous in
    let x = Array.make_matrix num_tasks ngroups 0 in
    for t = 0 to num_tasks - 1 do
      for g = 0 to ngroups - 1 do
        x.(t).(g) <-
          Minlp.Problem.Builder.add_var b ~name:(Printf.sprintf "x_%d_%d" t g)
            Minlp.Problem.Binary
      done
    done;
    Minlp.Problem.Builder.set_objective b (Minlp.Expr.var t_var);
    for t = 0 to num_tasks - 1 do
      Minlp.Problem.Builder.add_constr b
        (Minlp.Expr.linear (List.init ngroups (fun g -> (x.(t).(g), 1.))))
        Lp.Lp_problem.Eq 1.
    done;
    for g = 0 to ngroups - 1 do
      Minlp.Problem.Builder.add_constr b
        (Minlp.Expr.add
           (Minlp.Expr.neg (Minlp.Expr.var t_var)
           :: List.init num_tasks (fun t ->
                  Minlp.Expr.scale (duration ~task:t ~group:g) (Minlp.Expr.var x.(t).(g)))))
        Lp.Lp_problem.Le 0.
    done;
    let options = { Minlp.Milp.default_options with max_nodes } in
    let sol = Minlp.Milp.run ~options (Minlp.Problem.Builder.build b) in
    match sol.Minlp.Solution.status with
    | Minlp.Solution.Optimal ->
      let assign = Array.make num_tasks (-1) in
      for t = 0 to num_tasks - 1 do
        let best = ref 0 in
        for g = 1 to ngroups - 1 do
          if sol.Minlp.Solution.x.(x.(t).(g)) > sol.Minlp.Solution.x.(x.(t).(!best)) then best := g
        done;
        assign.(t) <- !best
      done;
      (assign, sol.Minlp.Solution.obj)
    | Minlp.Solution.Feasible _ | Minlp.Solution.Budget_exhausted _ | Minlp.Solution.Infeasible
    | Minlp.Solution.Unbounded ->
      lpt ()
  end
