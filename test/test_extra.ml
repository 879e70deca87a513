(* Second-round coverage: edge cases and cross-validation between
   independent implementations (greedy vs MINLP, pretty-printers,
   solver limit statuses). *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ---------- Expr printing and corner cases ---------- *)

let test_expr_pp () =
  let open Minlp.Expr in
  let e = (const 2. * var 0) + pow (var 1) 2. in
  let s = to_string e in
  Alcotest.(check bool) "mentions x0" true (String.length s > 0 && String.contains s 'x');
  Alcotest.(check bool) "div by zero rejected" true
    (try
       ignore (div (var 0) (const 0.));
       false
     with Invalid_argument _ -> true)

let test_expr_compile_gradient_matches () =
  let open Minlp.Expr in
  let e = (const 3. / pow (var 0) 1.2) + (var 1 * var 0) + exp_ (scale 0.1 (var 1)) in
  let g = Compiled.compile_gradient e in
  let x = [| 2.; 0.7 |] in
  let expected = gradient e x in
  let actual = Array.make 2 nan in
  Compiled.grad_into g x actual;
  Array.iteri (fun i v -> check_float (Printf.sprintf "partial %d" i) v actual.(i)) expected

let test_expr_linear_with_div () =
  let open Minlp.Expr in
  let e = div (var 0) (const 4.) + const 1. in
  Alcotest.(check bool) "affine" true (is_linear e);
  let coeffs, k = linear_parts e in
  Alcotest.(check bool) "coeff 1/4" true (coeffs = [ (0, 0.25) ]);
  check_float "const" 1. k

(* ---------- Simplex edge cases ---------- *)

let test_simplex_iteration_limit () =
  let p = Lp.Lp_problem.make ~num_vars:3 () in
  let p = Lp.Lp_problem.set_objective p [| 1.; 1.; 1. |] in
  let p =
    Lp.Lp_problem.add_constraints p
      [ { Lp.Lp_problem.coeffs = [ (0, 1.); (1, 1.); (2, 1.) ]; sense = Lp.Lp_problem.Ge; rhs = 3. } ]
  in
  let s = Lp.Simplex.run ~max_iter:0 p in
  Alcotest.(check bool) "limit reported" true (s.Lp.Simplex.status = Lp.Simplex.Iteration_limit)

let test_simplex_equality_only_feasible_point () =
  (* x = 2 exactly *)
  let p = Lp.Lp_problem.make ~num_vars:1 () in
  let p = Lp.Lp_problem.set_objective p [| 5. |] in
  let p =
    Lp.Lp_problem.add_constraint p
      { Lp.Lp_problem.coeffs = [ (0, 1.) ]; sense = Lp.Lp_problem.Eq; rhs = 2. }
  in
  let s = Lp.Simplex.run p in
  check_float "pinned" 2. s.Lp.Simplex.x.(0)

(* ---------- MILP limit status ---------- *)

let test_milp_node_limit () =
  let b = Minlp.Problem.Builder.create ~minimize:false () in
  let vars = List.init 10 (fun _ -> Minlp.Problem.Builder.add_var b Minlp.Problem.Binary) in
  Minlp.Problem.Builder.set_objective b
    (Minlp.Expr.linear (List.mapi (fun i v -> (v, float_of_int (i + 1))) vars));
  Minlp.Problem.Builder.add_constr b
    (Minlp.Expr.linear (List.map (fun v -> (v, 1.)) vars))
    Lp.Lp_problem.Le 5.5;
  let p = Minlp.Problem.Builder.build b in
  let s = Minlp.Milp.run ~options:{ Minlp.Milp.default_options with max_nodes = 1 } p in
  Alcotest.(check bool) "limit or optimal-at-root" true
    (match s.Minlp.Solution.status with
    | Minlp.Solution.Feasible _ | Minlp.Solution.Budget_exhausted _ | Minlp.Solution.Optimal ->
      true
    | _ -> false)

(* ---------- min-sum greedy vs MINLP cross-validation ---------- *)

let fitted_of_law ~name ~count law =
  let cls =
    Hslb.Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes)
  in
  List.hd
    (Hslb.Classes.gather_and_fit ~sizes:[ 1; 2; 4; 8; 16; 32 ] ~reps:1 [ cls ])

let solve_ok ?objective ~n_total specs =
  match Hslb.Alloc_model.solve ?objective ~n_total specs with
  | Ok a -> a
  | Error st -> Alcotest.failf "allocation failed: %s" (Minlp.Solution.status_to_string st)

let min_sum_value specs nodes =
  List.fold_left
    (fun (acc, i) (s : Hslb.Alloc_model.spec) ->
      ( acc
        +. (float_of_int s.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.count
           *. Scaling_law.eval_int s.Hslb.Alloc_model.fc.Hslb.Classes.fit.Hslb.Fitting.law
                nodes.(i)),
        i + 1 ))
    (0., 0) specs
  |> fst

let test_min_sum_greedy_matches_minlp () =
  let specs =
    [
      Hslb.Alloc_model.spec_of
        (fitted_of_law ~name:"a" ~count:2 (Scaling_law.make ~a:120. ~b:0. ~c:0.9 ~d:1.));
      Hslb.Alloc_model.spec_of
        (fitted_of_law ~name:"b" ~count:1 (Scaling_law.make ~a:60. ~b:0. ~c:0.95 ~d:0.5));
    ]
  in
  let n_total = 16 in
  let greedy = solve_ok ~objective:Hslb.Objective.Min_sum ~n_total specs in
  let problem, n_vars, _ =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_sum ~n_total specs
  in
  let sol = Minlp.Oa.run problem in
  Alcotest.(check bool) "minlp optimal" true (sol.Minlp.Solution.status = Minlp.Solution.Optimal);
  let minlp_nodes =
    Array.map (fun v -> int_of_float (Float.round sol.Minlp.Solution.x.(v))) n_vars
  in
  check_float ~eps:1e-4 "same min-sum value"
    (min_sum_value specs minlp_nodes)
    (min_sum_value specs greedy.Hslb.Alloc_model.nodes_per_task)

(* ---------- molecule / fragment extras ---------- *)

let test_residue_sizes_ordered () =
  let open Fmo.Molecule in
  let size r = List.length (residue_atoms r) in
  Alcotest.(check bool) "gly smallest" true (size Gly < size Ala);
  Alcotest.(check bool) "trp largest" true
    (List.for_all (fun r -> size r <= size Trp) [ Gly; Ala; Ser; Leu; Phe ])

let test_polypeptide_sequence () =
  let open Fmo.Molecule in
  let m = polypeptide [ Gly; Trp; Ala ] in
  Alcotest.(check int) "3 residues" 3 m.num_monomers;
  let counts = List.map (fun i -> List.length (monomer_atoms m i)) [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "per-residue atoms"
    [ List.length (residue_atoms Gly); List.length (residue_atoms Trp);
      List.length (residue_atoms Ala) ]
    counts

let test_fragment_validation () =
  let m = Fmo.Molecule.polyalanine 4 in
  Alcotest.check_raises "per_fragment 0"
    (Invalid_argument "Fragment.fragment: per_fragment must be positive") (fun () ->
      ignore (Fmo.Fragment.fragment ~per_fragment:0 m Fmo.Basis.Sto3g))

(* ---------- layouts extras ---------- *)

let test_atm_allowed_multiples () =
  let vals = Layouts.Cesm_data.atm_allowed Layouts.Cesm_data.Deg1 ~n_total:256 in
  Alcotest.(check bool) "non-empty" true (vals <> []);
  List.iter
    (fun v -> Alcotest.(check bool) "within budget" true (v >= 1 && v <= 256))
    vals

let test_layout_atm_sweet_spots () =
  let rng = Numerics.Rng.create 5 in
  let classes = Layouts.Cesm_data.benchmark_classes ~rng Layouts.Cesm_data.Deg1 in
  let fits =
    Hslb.Classes.gather_and_fit ~sizes:[ 8; 32; 128; 512 ] ~reps:1 classes
  in
  let comp name =
    Layouts.Component.of_fit ~name
      (List.find
         (fun (fc : Hslb.Classes.fitted) -> fc.Hslb.Classes.cls.Hslb.Classes.name = name)
         fits)
        .Hslb.Classes.fit
  in
  let inputs =
    { Layouts.Layout_model.ice = comp "ice"; lnd = comp "lnd"; atm = comp "atm"; ocn = comp "ocn" }
  in
  let allowed = [ 16; 48; 96 ] in
  let config =
    {
      (Layouts.Layout_model.default_config ~n_total:128) with
      Layouts.Layout_model.atm_allowed = Some allowed;
    }
  in
  let a =
    match Layouts.Layout_model.solve Layouts.Layout_model.Hybrid config inputs with
    | Ok a -> a
    | Error st ->
      Alcotest.failf "layout solve failed: %s" (Minlp.Solution.status_to_string st)
  in
  Alcotest.(check bool) "atm at sweet spot" true
    (List.mem (List.assoc "atm" a.Layouts.Layout_model.nodes) allowed)

(* ---------- scheduler cross-check ---------- *)

let test_static_even_equals_dynamic_when_uniform () =
  (* with zero noise and identical tasks, dynamic and round-robin static
     produce identical makespans *)
  let machine = Machine.make ~name:"quiet" ~num_nodes:32 ~noise_sigma:0. () in
  let m = Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 2) 8 in
  (* huge cutoff: all pairs SCF dimers, all fragments same neighbour count *)
  let plan = Fmo.Task.fmo2_plan ~scf_cutoff:1e9 (Fmo.Fragment.fragment m Fmo.Basis.B6_31gd) in
  let dyn =
    Fmo.Fmo_run.run ~rng:(Numerics.Rng.create 1) machine plan
      (Gddi.Group.even_partition ~total_nodes:32 ~groups:8)
      Fmo.Fmo_run.Dynamic
  in
  let monomer = Gddi.Schedulers.round_robin ~num_tasks:8 ~num_groups:8 in
  let ndimers = Array.length (Fmo.Task.dimer_tasks plan) in
  let dimer = Gddi.Schedulers.round_robin ~num_tasks:ndimers ~num_groups:8 in
  let stat =
    Fmo.Fmo_run.run ~rng:(Numerics.Rng.create 1) machine plan
      (Gddi.Group.even_partition ~total_nodes:32 ~groups:8)
      (Fmo.Fmo_run.Static { monomer; dimer })
  in
  check_float ~eps:1e-9 "identical" dyn.Fmo.Fmo_run.total_time stat.Fmo.Fmo_run.total_time

(* ---------- FMO3 trimers ---------- *)

let test_fmo3_plan_structure () =
  let m = Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 2) 27 in
  let frags = Fmo.Fragment.fragment m Fmo.Basis.B6_31gd in
  let p2 = Fmo.Task.fmo2_plan frags in
  let p3 = Fmo.Task.fmo3_plan frags in
  Alcotest.(check int) "fmo2 has no trimers" 0 (Array.length p2.Fmo.Task.trimers);
  Alcotest.(check bool) "fmo3 has trimers" true (Array.length p3.Fmo.Task.trimers > 0);
  Array.iter
    (fun (t : Fmo.Task.t) ->
      Alcotest.(check bool) "three fragments" true
        (t.Fmo.Task.frag2 <> None && t.Fmo.Task.frag3 <> None);
      Alcotest.(check int) "union basis" (3 * 19) t.Fmo.Task.nbf)
    p3.Fmo.Task.trimers;
  Alcotest.(check bool) "fmo3 costs more" true
    (Fmo.Task.total_work p3 > Fmo.Task.total_work p2);
  Alcotest.(check int) "corrections = dimers + trimers"
    (Array.length (Fmo.Task.dimer_tasks p3) + Array.length p3.Fmo.Task.trimers)
    (Array.length (Fmo.Task.correction_tasks p3))

let test_fmo3_cutoff_validation () =
  let m = Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 2) 8 in
  let frags = Fmo.Fragment.fragment m Fmo.Basis.B6_31gd in
  Alcotest.check_raises "trimer cutoff too large"
    (Invalid_argument "Task.fmo3_plan: trimer cutoff must not exceed the dimer cutoff")
    (fun () -> ignore (Fmo.Task.fmo3_plan ~scf_cutoff:5. ~trimer_cutoff:6. frags))

let test_fmo3_runs_end_to_end () =
  let machine = Machine.make ~name:"t3" ~num_nodes:64 () in
  let m = Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 2) 8 in
  let plan = Fmo.Task.fmo3_plan (Fmo.Fragment.fragment m Fmo.Basis.B6_31gd) in
  let _, run =
    Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 6) machine plan ~n_total:64
      Hslb.Fmo_app.default_config
  in
  Alcotest.(check bool) "positive time" true (run.Fmo.Fmo_run.total_time > 0.)

(* ---------- energy invariance (metamorphic) ---------- *)

let test_energy_scheduler_invariance () =
  (* the computed FMO energy must be identical no matter how the work
     was scheduled: load balancing may change wall clock, not science *)
  let machine = Machine.make ~name:"e" ~num_nodes:48 () in
  let m = Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 9) 12 in
  let plan = Fmo.Task.fmo3_plan (Fmo.Fragment.fragment m Fmo.Basis.B6_31gd) in
  let reference = Fmo.Energy.total_energy plan in
  Alcotest.(check bool) "negative total" true (reference < 0.);
  let energies =
    [
      Fmo.Energy.energy_of_run plan
        (Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create 1) machine plan ~n_total:48 ());
      Fmo.Energy.energy_of_run plan
        (Hslb.Fmo_app.run_stealing ~rng:(Numerics.Rng.create 2) machine plan ~n_total:48 ());
      Fmo.Energy.energy_of_run plan
        (snd
           (Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 3) machine plan ~n_total:48
              Hslb.Fmo_app.default_config));
    ]
  in
  List.iter (fun e -> check_float ~eps:1e-9 "scheduler-invariant energy" reference e) energies

let test_energy_magnitudes () =
  let m = Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 9) 8 in
  let plan = Fmo.Task.fmo2_plan (Fmo.Fragment.fragment m Fmo.Basis.B6_31gd) in
  (* monomer terms dominate; corrections are small *)
  let monomer_sum =
    Array.fold_left (fun acc t -> acc +. Fmo.Energy.task_energy plan t) 0. plan.Fmo.Task.monomers
  in
  let total = Fmo.Energy.total_energy plan in
  Alcotest.(check bool) "corrections are a small fraction" true
    (Float.abs (total -. monomer_sum) < 0.05 *. Float.abs monomer_sum)

(* ---------- work stealing ---------- *)

let test_stealing_balances_bad_seed () =
  (* all tasks seeded on group 0: stealing must spread them out *)
  let p = Gddi.Group.of_sizes [ 1; 1; 1; 1 ] in
  let duration ~task:_ ~group:_ = 1. in
  let seed = Array.make 8 0 in
  let steal = Gddi.Sim.run_phase p ~num_tasks:8 ~duration (Gddi.Sim.Stealing seed) in
  let static = Gddi.Sim.run_phase p ~num_tasks:8 ~duration (Gddi.Sim.Static seed) in
  check_float "static is serialized" 8. static.Gddi.Sim.makespan;
  check_float "stealing spreads" 2. steal.Gddi.Sim.makespan

let test_stealing_executes_every_task_once () =
  let p = Gddi.Group.of_sizes [ 2; 2; 2 ] in
  let duration ~task ~group:_ = 0.5 +. (0.1 *. float_of_int task) in
  let seed = Array.init 11 (fun i -> i mod 2) in
  let r = Gddi.Sim.run_phase p ~num_tasks:11 ~duration (Gddi.Sim.Stealing seed) in
  Alcotest.(check int) "11 events" 11 (List.length r.Gddi.Sim.events);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (e : Gddi.Sim.event) ->
      if Hashtbl.mem seen e.Gddi.Sim.task then Alcotest.fail "task executed twice";
      Hashtbl.add seen e.Gddi.Sim.task ())
    r.Gddi.Sim.events;
  Alcotest.(check bool) "assignment complete" true
    (Array.for_all (fun g -> g >= 0) r.Gddi.Sim.assignment)

(* ---------- trace export ---------- *)

let test_trace_csv () =
  let p = Gddi.Group.of_sizes [ 1; 1 ] in
  let duration ~task ~group:_ = float_of_int (task + 1) in
  let r = Gddi.Sim.run_phase p ~num_tasks:3 ~duration (Gddi.Sim.Static [| 0; 1; 0 |]) in
  let csv = Gddi.Trace.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 3 events" 4 (List.length lines);
  Alcotest.(check string) "header" "task,group,start,finish,duration" (List.hd lines);
  let summary = Gddi.Trace.summary_csv p r in
  Alcotest.(check int) "summary rows" 3 (List.length (String.split_on_char '\n' (String.trim summary)))

let test_chart_renders () =
  let series =
    [
      { Experiments.Chart.label = "a"; marker = '*'; points = [ (1., 10.); (10., 5.); (100., 1.) ] };
      { Experiments.Chart.label = "b"; marker = '+'; points = [ (1., 8.); (100., 2.) ] };
    ]
  in
  let s =
    Format.asprintf "%a"
      (fun fmt () -> Experiments.Chart.plot fmt ~title:"t" ~width:40 ~height:8 series)
      ()
  in
  Alcotest.(check bool) "contains markers" true
    (String.contains s '*' && String.contains s '+');
  Alcotest.(check bool) "rejects empty" true
    (try
       Experiments.Chart.plot Format.str_formatter ~title:"x" [];
       false
     with Invalid_argument _ -> true)

let test_gantt_renders () =
  let p = Gddi.Group.of_sizes [ 1; 2 ] in
  let duration ~task:_ ~group:_ = 1. in
  let r = Gddi.Sim.run_phase p ~num_tasks:4 ~duration Gddi.Sim.Dynamic in
  let s = Format.asprintf "%a" (fun fmt -> Gddi.Trace.pp_gantt fmt ~width:40 p) r in
  Alcotest.(check bool) "has rows" true (String.length s > 80)

let prop_min_sum_greedy_never_beaten_by_random =
  QCheck.Test.make ~name:"min-sum greedy dominates random feasible allocations" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let k = 2 + Numerics.Rng.int rng 2 in
      let specs =
        List.init k (fun i ->
            let law =
              Scaling_law.make
                ~a:(Numerics.Rng.uniform rng ~lo:20. ~hi:300.)
                ~b:0.
                ~c:(Numerics.Rng.uniform rng ~lo:0.8 ~hi:1.)
                ~d:(Numerics.Rng.uniform rng ~lo:0. ~hi:2.)
            in
            Hslb.Alloc_model.spec_of (fitted_of_law ~name:(Printf.sprintf "r%d" i) ~count:1 law))
      in
      let n_total = k * (3 + Numerics.Rng.int rng 10) in
      let greedy = solve_ok ~objective:Hslb.Objective.Min_sum ~n_total specs in
      let gval = min_sum_value specs greedy.Hslb.Alloc_model.nodes_per_task in
      (* random feasible allocation *)
      let ok = ref true in
      for _ = 1 to 20 do
        let remaining = ref (n_total - k) in
        let nodes =
          Array.init k (fun i ->
              if i = k - 1 then 1 + !remaining
              else begin
                let extra = Numerics.Rng.int rng (1 + !remaining) in
                remaining := !remaining - extra;
                1 + extra
              end)
        in
        if min_sum_value specs nodes < gval -. 1e-6 then ok := false
      done;
      !ok)

(* ---------- experiment registry lookup ---------- *)

let test_registry_find_exact_and_prefix () =
  (match Experiments.Registry.find_result "E4_scaling" with
  | Ok e -> Alcotest.(check string) "exact id" "E4_scaling" e.Experiments.Registry.id
  | Error msg -> Alcotest.failf "exact lookup failed: %s" msg);
  match Experiments.Registry.find_result "E4" with
  | Ok e -> Alcotest.(check string) "unique prefix" "E4_scaling" e.Experiments.Registry.id
  | Error msg -> Alcotest.failf "prefix lookup failed: %s" msg

let test_registry_unknown_lists_valid_ids () =
  (* the exact message is what bench --only prints, so pin it *)
  let expected =
    "unknown experiment \"E99\"; valid ids: E1_fit_quality, E2_objectives, "
    ^ "E3_pred_vs_actual, E4_scaling, E5_protein, E6_solver, E7_samples, "
    ^ "E8_cesm_table3, E9_cesm_layouts, E10_scheduler_ablation, E11_placement, "
    ^ "E12_resolve, E13_arena, E14_place"
  in
  match Experiments.Registry.find_result "E99" with
  | Ok _ -> Alcotest.fail "E99 should be unknown"
  | Error msg -> Alcotest.(check string) "error message" expected msg

let test_registry_ambiguous_prefix () =
  let expected =
    "ambiguous experiment \"E1\": matches E1_fit_quality, E10_scheduler_ablation, \
     E11_placement, E12_resolve, E13_arena, E14_place"
  in
  match Experiments.Registry.find_result "E1" with
  | Ok e -> Alcotest.failf "E1 should be ambiguous, resolved to %s" e.Experiments.Registry.id
  | Error msg -> Alcotest.(check string) "error message" expected msg

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_min_sum_greedy_never_beaten_by_random ] in
  Alcotest.run "extra"
    [
      ( "registry",
        [
          Alcotest.test_case "exact and prefix" `Quick test_registry_find_exact_and_prefix;
          Alcotest.test_case "unknown lists valid ids" `Quick
            test_registry_unknown_lists_valid_ids;
          Alcotest.test_case "ambiguous prefix" `Quick test_registry_ambiguous_prefix;
        ] );
      ( "expr",
        [
          Alcotest.test_case "pp and guards" `Quick test_expr_pp;
          Alcotest.test_case "compiled gradient" `Quick test_expr_compile_gradient_matches;
          Alcotest.test_case "linear with div" `Quick test_expr_linear_with_div;
        ] );
      ( "lp",
        [
          Alcotest.test_case "iteration limit" `Quick test_simplex_iteration_limit;
          Alcotest.test_case "pinned equality" `Quick test_simplex_equality_only_feasible_point;
        ] );
      ("milp", [ Alcotest.test_case "node limit" `Quick test_milp_node_limit ]);
      ( "alloc cross-validation",
        [
          Alcotest.test_case "greedy = MINLP (min-sum)" `Quick test_min_sum_greedy_matches_minlp;
        ] );
      ( "fmo extras",
        [
          Alcotest.test_case "residue sizes" `Quick test_residue_sizes_ordered;
          Alcotest.test_case "polypeptide sequence" `Quick test_polypeptide_sequence;
          Alcotest.test_case "fragment validation" `Quick test_fragment_validation;
        ] );
      ( "layouts extras",
        [
          Alcotest.test_case "atm allowed" `Quick test_atm_allowed_multiples;
          Alcotest.test_case "atm sweet spots" `Quick test_layout_atm_sweet_spots;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "uniform dyn = static" `Quick
            test_static_even_equals_dynamic_when_uniform;
          Alcotest.test_case "stealing balances" `Quick test_stealing_balances_bad_seed;
          Alcotest.test_case "stealing exactly once" `Quick
            test_stealing_executes_every_task_once;
        ] );
      ( "fmo3",
        [
          Alcotest.test_case "plan structure" `Quick test_fmo3_plan_structure;
          Alcotest.test_case "cutoff validation" `Quick test_fmo3_cutoff_validation;
          Alcotest.test_case "end to end" `Quick test_fmo3_runs_end_to_end;
        ] );
      ( "energy",
        [
          Alcotest.test_case "scheduler invariance" `Quick test_energy_scheduler_invariance;
          Alcotest.test_case "magnitudes" `Quick test_energy_magnitudes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "csv export" `Quick test_trace_csv;
          Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
          Alcotest.test_case "ascii chart renders" `Quick test_chart_renders;
        ] );
      ("properties", qsuite);
    ]
