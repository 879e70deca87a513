type config = {
  benchmark_points : int;
  benchmark_reps : int;
  objective : Objective.t;
  solver : Engine.Solver_choice.t;
  sweet_spots : int list option;
}

let default_config =
  {
    benchmark_points = 5;
    benchmark_reps = 2;
    objective = Objective.Min_max;
    (* OA, not Alloc_model.default_solver, for two reasons in
       perfbench's fmo workload, so the switch waits for a change to
       the benchmark (ROADMAP item 1): it audits every plan with
       Audit.check_minlp against the rebuilt MINLP, which refuses the
       exact solver's threshold witness (nodes per task, one variable
       short of the model), so every op would fail; and it keeps every
       op's plan until its run ends, so a faster plan, more ops a run,
       reads as a peak-RSS regression *)
    solver = Engine.Solver_choice.Oa;
    sweet_spots = None;
  }

type hslb_plan = {
  monomer_fits : Classes.fitted list;
  dimer_fits : Classes.fitted list;
  allocation : Alloc_model.allocation;
  partition : Gddi.Group.partition;  (* monomer-phase partition *)
  dimer_partition : Gddi.Group.partition;  (* GDDI regroups at the step boundary *)
  monomer_assignment : int array;
  dimer_assignment : int array;
  predicted_monomer_time : float;
  predicted_dimer_time : float;
  predicted_total : float;
}

(* centralized dynamic dispatch serializes at the data server; the cost
   per task grows with the number of competing groups *)
let dispatch_latency ~groups = 2e-5 *. float_of_int groups

(* --- task classes: group tasks by (kind, work signature) --- *)

let class_key (t : Fmo.Task.t) =
  (* round work to 3 significant digits so fragments with identical
     composition and neighbourhood share a class *)
  let w = t.Fmo.Task.work_gflops in
  let mag = 10. ** Float.round (log10 (Float.max w 1e-12)) in
  let rounded = Float.round (w /. mag *. 1000.) *. mag /. 1000. in
  (Fmo.Task.kind_to_string t.Fmo.Task.kind, t.Fmo.Task.nbf, rounded)

let group_tasks tasks =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  Array.iter
    (fun (t : Fmo.Task.t) ->
      let key = class_key t in
      match Hashtbl.find_opt tbl key with
      | Some members -> members := t :: !members
      | None ->
        Hashtbl.add tbl key (ref [ t ]);
        order := key :: !order)
    tasks;
  List.rev_map (fun key -> List.rev !(Hashtbl.find tbl key)) !order |> List.rev

let classes_of ~rng machine tasks =
  List.map
    (fun members ->
      let rep = List.hd members in
      let kind, nbf, _ = class_key rep in
      let class_rng = Numerics.Rng.split rng in
      Classes.make
        ~name:(Printf.sprintf "%s-%dbf-%.0fGF" kind nbf rep.Fmo.Task.work_gflops)
        ~count:(List.length members)
        (fun ~nodes -> Fmo.Fmo_run.benchmark ~rng:class_rng machine rep ~nodes))
    (group_tasks tasks)

let monomer_class_indices (plan : Fmo.Task.plan) =
  let idx = Hashtbl.create 64 in
  List.iteri
    (fun ci members ->
      List.iter (fun (t : Fmo.Task.t) -> Hashtbl.replace idx t.Fmo.Task.id ci) members)
    (group_tasks plan.Fmo.Task.monomers);
  Array.map (fun (t : Fmo.Task.t) -> Hashtbl.find idx t.Fmo.Task.id) plan.Fmo.Task.monomers

let benchmark_sizes config ~n_total ~num_fragments =
  (* sample from 1 node up to the largest group a fragment could get *)
  let n_max = Stdlib.max 2 (Stdlib.min n_total (4 * n_total / Stdlib.max 1 num_fragments)) in
  Fitting.recommended_sizes ~n_min:1 ~n_max ~points:config.benchmark_points

let plan_hslb ~rng machine (plan : Fmo.Task.plan) ~n_total config =
  let num_fragments = Array.length plan.Fmo.Task.fragments in
  if n_total < num_fragments then
    invalid_arg "Fmo_app.plan_hslb: need at least one node per fragment";
  let sizes = benchmark_sizes config ~n_total ~num_fragments in
  (* steps 1+2: gather and fit, monomer and dimer classes *)
  let monomer_classes = classes_of ~rng machine plan.Fmo.Task.monomers in
  let dimer_classes = classes_of ~rng machine (Fmo.Task.correction_tasks plan) in
  let monomer_fits =
    Classes.gather_and_fit ~sizes ~reps:config.benchmark_reps monomer_classes
  in
  let dimer_fits =
    Classes.gather_and_fit ~sizes ~reps:config.benchmark_reps dimer_classes
  in
  (* step 3: allocation MINLP over monomer classes *)
  let specs =
    List.map
      (fun fc ->
        match config.sweet_spots with
        | Some allowed -> Alloc_model.spec_of ~allowed fc
        | None -> Alloc_model.spec_of fc)
      monomer_fits
  in
  let allocation =
    match
      Alloc_model.solve ~solver:config.solver ~objective:config.objective ~n_total specs
    with
    | Ok a -> a
    | Error st ->
      failwith
        (Printf.sprintf "Fmo_app.plan_hslb: monomer allocation %s"
           (Minlp.Solution.status_to_string st))
  in
  (* derive the partition: one group per fragment, sized by its class *)
  let fits_arr = Array.of_list monomer_fits in
  let class_of_task = Hashtbl.create 64 in
  List.iteri
    (fun ci members ->
      List.iter (fun (t : Fmo.Task.t) -> Hashtbl.replace class_of_task t.Fmo.Task.id ci) members)
    (group_tasks plan.Fmo.Task.monomers);
  let frag_class f = Hashtbl.find class_of_task plan.Fmo.Task.monomers.(f).Fmo.Task.id in
  let sizes_arr =
    Array.init num_fragments (fun f -> allocation.Alloc_model.nodes_per_task.(frag_class f))
  in
  (* spend any leftover budget on the slowest groups (paper: manual
     "sweet spot" tuning automated) — unless sizes are restricted *)
  (if config.sweet_spots = None then begin
     let used = Array.fold_left ( + ) 0 sizes_arr in
     let leftover = ref (n_total - used) in
     while !leftover > 0 do
       let slowest = ref 0 and slowest_t = ref neg_infinity in
       for f = 0 to num_fragments - 1 do
         let t = Classes.predicted_time fits_arr.(frag_class f) sizes_arr.(f) in
         if t > !slowest_t then begin
           slowest_t := t;
           slowest := f
         end
       done;
       sizes_arr.(!slowest) <- sizes_arr.(!slowest) + 1;
       decr leftover
     done
   end);
  let partition = Gddi.Group.of_sizes (Array.to_list sizes_arr) in
  let monomer_assignment = Array.init num_fragments Fun.id in
  (* dimer phase: GDDI regroups, so pick the best uniform regrouping by
     enumerating group counts against the fitted dimer curves (LPT
     assignment), and — when the budget allows one group per dimer —
     also try the per-task sizing MINLP; keep whichever predicts the
     smaller makespan *)
  let dimers = Fmo.Task.correction_tasks plan in
  let ndimers = Array.length dimers in
  let dimer_fits_arr = Array.of_list dimer_fits in
  let dimer_class_of = Hashtbl.create 256 in
  let dimer_groups = group_tasks dimers in
  List.iteri
    (fun ci members ->
      List.iter (fun (t : Fmo.Task.t) -> Hashtbl.replace dimer_class_of t.Fmo.Task.id ci) members)
    dimer_groups;
  let dimer_class task = Hashtbl.find dimer_class_of dimers.(task).Fmo.Task.id in
  let dimer_predicted ~task ~group =
    Classes.predicted_time dimer_fits_arr.(dimer_class task) group.Gddi.Group.nodes
  in
  let candidates =
    let cap = Stdlib.min n_total ndimers in
    let rec doubling g acc = if g > cap then acc else doubling (2 * g) (g :: acc) in
    List.sort_uniq compare (cap :: num_fragments :: doubling 1 [])
    |> List.filter (fun g -> g >= 1 && g <= cap)
  in
  let evaluate_uniform g =
    let part = Gddi.Group.even_partition ~total_nodes:n_total ~groups:g in
    let assignment = Gddi.Schedulers.lpt part ~predicted:dimer_predicted ~num_tasks:ndimers in
    let pred = Gddi.Schedulers.predicted_makespan part ~predicted:dimer_predicted assignment in
    (pred, part, assignment)
  in
  let best_uniform =
    List.fold_left
      (fun acc g ->
        let cand = evaluate_uniform g in
        match acc with
        | Some (p, _, _) when p <= (fun (q, _, _) -> q) cand -> acc
        | Some _ | None -> Some cand)
      None candidates
  in
  let sized_candidate =
    if n_total >= ndimers then begin
      match
        Alloc_model.solve ~solver:config.solver ~objective:config.objective ~n_total
          (List.map (fun fc -> Alloc_model.spec_of fc) dimer_fits)
      with
      | Ok alloc ->
        (* one group per dimer task, sized by its class *)
        let sizes = Array.init ndimers (fun t -> alloc.Alloc_model.nodes_per_task.(dimer_class t)) in
        let part = Gddi.Group.of_sizes (Array.to_list sizes) in
        let assignment = Array.init ndimers Fun.id in
        Some (alloc.Alloc_model.predicted_makespan, part, assignment)
      | Error _ -> None
    end
    else None
  in
  let dimer_pred, dimer_partition, dimer_assignment =
    match (best_uniform, sized_candidate) with
    | Some (p1, part1, a1), Some (p2, part2, a2) ->
      if p2 < p1 then (p2, part2, a2) else (p1, part1, a1)
    | Some c, None | None, Some c -> c
    | None, None -> invalid_arg "Fmo_app.plan_hslb: no dimer grouping candidate"
  in
  (* predicted times *)
  let sweep0 =
    let worst = ref 0. in
    for f = 0 to num_fragments - 1 do
      worst := Float.max !worst (Classes.predicted_time fits_arr.(frag_class f) sizes_arr.(f))
    done;
    !worst
  in
  let sweeps_factor =
    1.
    +. (float_of_int (plan.Fmo.Task.scc_iterations - 1) *. plan.Fmo.Task.scc_later_sweep_factor)
  in
  let predicted_monomer_time = sweep0 *. sweeps_factor in
  let predicted_dimer_time = dimer_pred in
  {
    monomer_fits;
    dimer_fits;
    allocation;
    partition;
    dimer_partition;
    monomer_assignment;
    dimer_assignment;
    predicted_monomer_time;
    predicted_dimer_time;
    predicted_total = predicted_monomer_time +. predicted_dimer_time;
  }

let run_hslb ~rng machine plan ~n_total config =
  let hp = plan_hslb ~rng machine plan ~n_total config in
  let run =
    Fmo.Fmo_run.run_plan ~rng machine plan
      ~monomer:
        { Fmo.Fmo_run.partition = hp.partition;
          schedule = Gddi.Sim.Static hp.monomer_assignment }
      ~dimer:
        { Fmo.Fmo_run.partition = hp.dimer_partition;
          schedule = Gddi.Sim.Static hp.dimer_assignment }
  in
  (hp, run)

let even_partition_for plan ~n_total ~groups =
  let num_fragments = Array.length plan.Fmo.Task.fragments in
  let groups = Stdlib.min (Option.value ~default:num_fragments groups) n_total in
  Gddi.Group.even_partition ~total_nodes:n_total ~groups

let run_dynamic ~rng machine plan ~n_total ?groups () =
  let partition = even_partition_for plan ~n_total ~groups in
  let dl = dispatch_latency ~groups:(Array.length partition) in
  Fmo.Fmo_run.run ~dispatch_latency:dl ~rng machine plan partition Fmo.Fmo_run.Dynamic

let run_semi_static ~rng machine plan ~n_total config =
  (* ablation: HSLB's partitions, but dynamic assignment inside each
     phase — isolates the value of group *sizing* from the value of a
     static task map *)
  let hp = plan_hslb ~rng machine plan ~n_total config in
  let dl = dispatch_latency ~groups:(Array.length hp.partition) in
  ( hp,
    Fmo.Fmo_run.run_plan ~dispatch_latency:dl ~rng machine plan
      ~monomer:{ Fmo.Fmo_run.partition = hp.partition; schedule = Gddi.Sim.Dynamic }
      ~dimer:{ Fmo.Fmo_run.partition = hp.dimer_partition; schedule = Gddi.Sim.Dynamic } )

let run_stealing ~rng machine plan ~n_total ?groups () =
  (* work stealing seeded by a round-robin map on even groups *)
  let num_fragments = Array.length plan.Fmo.Task.fragments in
  let groups = Stdlib.min (Option.value ~default:num_fragments groups) n_total in
  let partition = Gddi.Group.even_partition ~total_nodes:n_total ~groups in
  let dl = dispatch_latency ~groups in
  let monomer = Gddi.Schedulers.round_robin ~num_tasks:num_fragments ~num_groups:groups in
  let ndimers = Array.length (Fmo.Task.correction_tasks plan) in
  let dimer = Gddi.Schedulers.round_robin ~num_tasks:ndimers ~num_groups:groups in
  Fmo.Fmo_run.run_plan ~dispatch_latency:dl ~rng machine plan
    ~monomer:{ Fmo.Fmo_run.partition; schedule = Gddi.Sim.Stealing monomer }
    ~dimer:{ Fmo.Fmo_run.partition; schedule = Gddi.Sim.Stealing dimer }

let run_static_even ~rng machine plan ~n_total ?groups () =
  let partition = even_partition_for plan ~n_total ~groups in
  let ngroups = Array.length partition in
  let num_fragments = Array.length plan.Fmo.Task.fragments in
  let monomer = Gddi.Schedulers.round_robin ~num_tasks:num_fragments ~num_groups:ngroups in
  let dimers = Fmo.Task.correction_tasks plan in
  (* a-priori size heuristic: work ∝ nbf^2.7 regardless of kind *)
  let predicted ~task ~group =
    ignore group;
    match dimers.(task).Fmo.Task.kind with
    | Fmo.Task.Es_dimer -> 1e-6 *. float_of_int dimers.(task).Fmo.Task.nbf
    | Fmo.Task.Monomer | Fmo.Task.Scf_dimer | Fmo.Task.Scf_trimer ->
      float_of_int dimers.(task).Fmo.Task.nbf ** 2.7
  in
  let dimer =
    Gddi.Schedulers.lpt partition ~predicted ~num_tasks:(Array.length dimers)
  in
  Fmo.Fmo_run.run ~rng machine plan partition (Fmo.Fmo_run.Static { monomer; dimer })
