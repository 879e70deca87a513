(* Cross-library integration tests: the full HSLB pipeline end-to-end,
   scheduler dominance, seed determinism, and a smoke pass over every
   experiment in quick mode. *)

let null_formatter =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let water_setup ~molecules ~num_nodes =
  let machine = Machine.make ~name:"itest" ~num_nodes ~noise_sigma:0.02 () in
  let molecule = Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 4) molecules in
  let plan = Fmo.Task.fmo2_plan (Fmo.Fragment.fragment molecule Fmo.Basis.B6_31gd) in
  (machine, plan)

let test_full_pipeline_end_to_end () =
  let machine, plan = water_setup ~molecules:12 ~num_nodes:96 in
  let hp, run =
    Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 8) machine plan ~n_total:96
      Hslb.Fmo_app.default_config
  in
  (* the executed schedule is exactly the planned one *)
  Alcotest.(check int) "monomer tasks assigned"
    (Array.length plan.Fmo.Task.monomers)
    (Array.length hp.Hslb.Fmo_app.monomer_assignment);
  (* prediction quality: within 20% end to end *)
  let rel =
    Float.abs (hp.Hslb.Fmo_app.predicted_total -. run.Fmo.Fmo_run.total_time)
    /. run.Fmo.Fmo_run.total_time
  in
  if rel > 0.2 then Alcotest.failf "prediction off by %.1f%%" (100. *. rel);
  (* node budgets respected in both phases *)
  Alcotest.(check bool) "monomer partition within budget" true
    (Gddi.Group.total_nodes hp.Hslb.Fmo_app.partition <= 96);
  Alcotest.(check bool) "dimer partition within budget" true
    (Gddi.Group.total_nodes hp.Hslb.Fmo_app.dimer_partition <= 96)

let test_hslb_dominates_at_scale () =
  let machine, plan = water_setup ~molecules:16 ~num_nodes:1024 in
  let dyn = Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create 3) machine plan ~n_total:1024 () in
  let _, hslb =
    Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 3) machine plan ~n_total:1024
      Hslb.Fmo_app.default_config
  in
  Alcotest.(check bool) "HSLB strictly better at scale" true
    (hslb.Fmo.Fmo_run.total_time < dyn.Fmo.Fmo_run.total_time)

let test_determinism_across_runs () =
  let machine, plan = water_setup ~molecules:8 ~num_nodes:64 in
  let run1 =
    Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create 11) machine plan ~n_total:64 ()
  in
  let run2 =
    Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create 11) machine plan ~n_total:64 ()
  in
  Alcotest.(check (float 1e-12)) "identical totals" run1.Fmo.Fmo_run.total_time
    run2.Fmo.Fmo_run.total_time;
  let run3 =
    Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create 12) machine plan ~n_total:64 ()
  in
  Alcotest.(check bool) "different seed differs" true
    (run3.Fmo.Fmo_run.total_time <> run1.Fmo.Fmo_run.total_time)

let test_layout_pipeline_end_to_end () =
  (* benchmark -> fit -> layout solve -> simulate, all synthetic CESM *)
  let rng = Numerics.Rng.create 21 in
  let classes = Layouts.Cesm_data.benchmark_classes ~rng Layouts.Cesm_data.Deg1 in
  let fits =
    Hslb.Classes.gather_and_fit
      ~sizes:(Hslb.Fitting.recommended_sizes ~n_min:8 ~n_max:1024 ~points:5)
      ~reps:1 classes
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
  let config = Layouts.Layout_model.default_config ~n_total:256 in
  let alloc =
    match Layouts.Layout_model.solve Layouts.Layout_model.Hybrid config inputs with
    | Ok a -> a
    | Error st ->
      Alcotest.failf "layout solve failed: %s" (Minlp.Solution.status_to_string st)
  in
  (* simulate the allocation and compare with the prediction *)
  let sim_rng = Numerics.Rng.create 22 in
  let actual w =
    Layouts.Cesm_data.simulate_component ~rng:sim_rng Layouts.Cesm_data.Deg1 w
      ~nodes:(List.assoc w alloc.Layouts.Layout_model.nodes)
  in
  let actual_total =
    Layouts.Layout_model.layout_total Layouts.Layout_model.Hybrid ~ice:(actual "ice")
      ~lnd:(actual "lnd") ~atm:(actual "atm") ~ocn:(actual "ocn")
  in
  let rel = Float.abs (actual_total -. alloc.Layouts.Layout_model.total) /. actual_total in
  if rel > 0.2 then Alcotest.failf "layout prediction off by %.1f%%" (100. *. rel)

let test_all_experiments_quick_smoke () =
  (* every registered experiment must complete in quick mode *)
  List.iter
    (fun e -> e.Experiments.Registry.run ~quick:true null_formatter)
    Experiments.Registry.all

let test_registry_lookup () =
  Alcotest.(check string) "by prefix" "E4_scaling" (Experiments.Registry.find "E4").Experiments.Registry.id;
  Alcotest.(check string) "by full id" "E8_cesm_table3"
    (Experiments.Registry.find "E8_cesm_table3").Experiments.Registry.id;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Experiments.Registry.find "E99"))

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "full pipeline" `Quick test_full_pipeline_end_to_end;
          Alcotest.test_case "dominates at scale" `Quick test_hslb_dominates_at_scale;
          Alcotest.test_case "deterministic" `Quick test_determinism_across_runs;
          Alcotest.test_case "layout pipeline" `Quick test_layout_pipeline_end_to_end;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
          Alcotest.test_case "all experiments quick" `Slow test_all_experiments_quick_smoke;
        ] );
    ]
