(* Tests for the HSLB core: fitting, task classes, allocation models,
   objectives, and the FMO application pipeline. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ---------- Fitting ---------- *)

let observations_of law ns =
  Array.of_list (List.map (fun n -> (float_of_int n, Scaling_law.eval_int law n)) ns)

let test_fit_recovers_noiseless () =
  let truth = Scaling_law.make ~a:120. ~b:0.001 ~c:0.9 ~d:2. in
  let obs = observations_of truth [ 1; 2; 4; 8; 16; 32; 64 ] in
  let rng = Numerics.Rng.create 17 in
  let fit = Hslb.Fitting.fit_observations ~rng obs in
  Alcotest.(check bool) "r2 near 1" true (fit.Hslb.Fitting.r2 > 0.9999);
  List.iter
    (fun n ->
      check_float ~eps:0.02
        (Printf.sprintf "prediction at %d" n)
        (Scaling_law.eval_int truth n)
        (Hslb.Fitting.predict fit n))
    [ 3; 12; 48; 100 ]

let test_fit_rejects_insufficient_data () =
  (* the CLI surfaces this message verbatim, so the exact wording is a
     contract (and a regression test for the "at at least" typo) *)
  Alcotest.check_raises "one node count"
    (Invalid_argument
       "Fitting.fit_observations: need observations at 2 or more distinct node counts")
    (fun () ->
      let rng = Numerics.Rng.create 1 in
      ignore (Hslb.Fitting.fit_observations ~rng [| (4., 10.); (4., 10.1) |]))

let test_fit_nonneg_params () =
  (* even with noise pulling toward negative coefficients the fit stays
     in the box (the paper constrains a,b,c,d >= 0) *)
  let rng = Numerics.Rng.create 5 in
  let obs = [| (1., 10.); (2., 5.5); (4., 2.4); (8., 1.6); (16., 0.6) |] in
  let fit = Hslb.Fitting.fit_observations ~rng obs in
  let p = Scaling_law.to_array fit.Hslb.Fitting.law in
  Array.iter (fun v -> Alcotest.(check bool) "nonneg" true (v >= 0.)) p

let test_recommended_sizes () =
  let sizes = Hslb.Fitting.recommended_sizes ~n_min:1 ~n_max:1024 ~points:5 in
  Alcotest.(check bool) "starts at min" true (List.hd sizes = 1);
  Alcotest.(check bool) "ends at max" true (List.nth sizes (List.length sizes - 1) = 1024);
  Alcotest.(check bool) "sorted" true (List.sort compare sizes = sizes);
  Alcotest.(check (list int)) "single point range" [ 7 ]
    (Hslb.Fitting.recommended_sizes ~n_min:7 ~n_max:7 ~points:4)

let test_recommended_sizes_messages () =
  (* per-case diagnostics, surfaced verbatim by the CLI: each invalid
     argument names itself and the offending value *)
  Alcotest.check_raises "points < 2"
    (Invalid_argument "Fitting.recommended_sizes: points must be >= 2, got 1")
    (fun () -> ignore (Hslb.Fitting.recommended_sizes ~n_min:1 ~n_max:8 ~points:1));
  Alcotest.check_raises "n_min < 1"
    (Invalid_argument "Fitting.recommended_sizes: n_min must be >= 1, got 0")
    (fun () -> ignore (Hslb.Fitting.recommended_sizes ~n_min:0 ~n_max:8 ~points:3));
  Alcotest.check_raises "n_min > n_max"
    (Invalid_argument "Fitting.recommended_sizes: n_min (9) exceeds n_max (4)")
    (fun () -> ignore (Hslb.Fitting.recommended_sizes ~n_min:9 ~n_max:4 ~points:3))

let test_online_buffered_equals_batch () =
  (* the buffered online path (create, observe everything, one refit)
     is the same code path as fit_observations: with equal rng seeds
     the laws must agree bit-for-bit, not just approximately *)
  let truth = Scaling_law.make ~a:200. ~b:0.004 ~c:0.95 ~d:1.5 in
  let obs = observations_of truth [ 1; 2; 4; 8; 16; 32 ] in
  let batch = Hslb.Fitting.fit_observations ~rng:(Numerics.Rng.create 11) obs in
  let st = Hslb.Fitting.Online.create ~rng:(Numerics.Rng.create 11) [||] in
  Hslb.Fitting.Online.observe_all st obs;
  Alcotest.(check int) "no rank-one before seeding" 0
    (Hslb.Fitting.Online.rank_one_updates st);
  let online = Hslb.Fitting.Online.refit st in
  Alcotest.(check (array (float 0.))) "identical laws"
    (Scaling_law.to_array batch.Hslb.Fitting.law)
    (Scaling_law.to_array online.Hslb.Fitting.law)

let test_online_tracks_drift () =
  (* seed the state with a stale law, stream observations of a 2x
     slower truth: rank-one updates plus the automatic refit fallback
     must pull predictions onto the new curve *)
  let stale = Scaling_law.make ~a:100. ~b:0.001 ~c:1. ~d:0.5 in
  let truth = Scaling_law.make ~a:200. ~b:0.001 ~c:1. ~d:0.5 in
  let err law =
    List.fold_left
      (fun acc n ->
        let y = Scaling_law.eval_int truth n in
        Float.max acc (Float.abs (Scaling_law.eval_int law n -. y) /. y))
      0. [ 2; 4; 8; 16; 32 ]
  in
  let st = Hslb.Fitting.Online.of_law ~rng:(Numerics.Rng.create 7) stale in
  let before = err (Hslb.Fitting.Online.law st) in
  Hslb.Fitting.Online.observe_all st (observations_of truth [ 2; 4; 8; 16; 32 ]);
  let after = err (Hslb.Fitting.Online.law st) in
  Alcotest.(check bool) "stale law starts far off" true (before > 0.3);
  Alcotest.(check bool)
    (Printf.sprintf "tracked the drifted law (%.4f -> %.4f)" before after)
    true
    (after < 0.02);
  Alcotest.(check bool) "rank-one updates happened" true
    (Hslb.Fitting.Online.rank_one_updates st > 0);
  Alcotest.(check bool) "the divergence monitor forced a refit" true
    (Hslb.Fitting.Online.full_refits st >= 1)

(* ---------- Classes ---------- *)

let test_gather_shape () =
  let cls = Hslb.Classes.make ~name:"c" ~count:3 (fun ~nodes -> 10. /. float_of_int nodes) in
  let obs = Hslb.Classes.gather cls ~sizes:[ 1; 2; 4 ] ~reps:2 in
  Alcotest.(check int) "observations" 6 (Array.length obs);
  check_float "first" 10. (snd obs.(0))

let test_gather_and_fit () =
  let truth = Scaling_law.make ~a:50. ~b:0. ~c:1. ~d:1. in
  let cls =
    Hslb.Classes.make ~name:"c" ~count:2 (fun ~nodes -> Scaling_law.eval_int truth nodes)
  in
  let rng = Numerics.Rng.create 3 in
  let fitted = Hslb.Classes.gather_and_fit ~rng ~sizes:[ 1; 2; 4; 8; 32 ] ~reps:1 [ cls ] in
  match fitted with
  | [ fc ] ->
    check_float ~eps:0.01 "prediction" (Scaling_law.eval_int truth 16)
      (Hslb.Classes.predicted_time fc 16)
  | _ -> Alcotest.fail "expected one fitted class"

let test_class_validation () =
  Alcotest.check_raises "count" (Invalid_argument "Classes.make: count must be >= 1") (fun () ->
      ignore (Hslb.Classes.make ~name:"x" ~count:0 (fun ~nodes:_ -> 1.)))

(* ---------- Alloc_model ---------- *)

let fitted_of_law ~name ~count law =
  let cls = Hslb.Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes) in
  let rng = Numerics.Rng.create 11 in
  List.hd (Hslb.Classes.gather_and_fit ~rng ~sizes:[ 1; 2; 4; 8; 16; 64 ] ~reps:1 [ cls ])

let solve_ok ?solver ?objective ~n_total specs =
  match Hslb.Alloc_model.solve ?solver ?objective ~n_total specs with
  | Ok a -> a
  | Error st -> Alcotest.failf "allocation failed: %s" (Minlp.Solution.status_to_string st)

let two_class_specs () =
  (* class A three times the work of class B *)
  let a = fitted_of_law ~name:"heavy" ~count:1 (Scaling_law.make ~a:300. ~b:0. ~c:1. ~d:0.5) in
  let b = fitted_of_law ~name:"light" ~count:1 (Scaling_law.make ~a:100. ~b:0. ~c:1. ~d:0.5) in
  [ Hslb.Alloc_model.spec_of a; Hslb.Alloc_model.spec_of b ]

let test_minmax_allocation_proportional () =
  let specs = two_class_specs () in
  let alloc = solve_ok ~n_total:40 specs in
  (* heavy class should get roughly 3x the nodes of light *)
  let nh = alloc.Hslb.Alloc_model.nodes_per_task.(0)
  and nl = alloc.Hslb.Alloc_model.nodes_per_task.(1) in
  Alcotest.(check bool) "heavy gets more" true (nh > 2 * nl);
  Alcotest.(check bool) "budget respected" true (nh + nl <= 40);
  Alcotest.(check bool) "makespan sane" true
    (alloc.Hslb.Alloc_model.predicted_makespan < 300. /. 10.)

let test_minmax_vs_brute_force () =
  let specs = two_class_specs () in
  let alloc = solve_ok ~n_total:20 specs in
  (* brute force over all splits with the same fitted laws *)
  let specs_arr = Array.of_list specs in
  let time i n =
    Scaling_law.eval_int specs_arr.(i).Hslb.Alloc_model.fc.Hslb.Classes.fit.Hslb.Fitting.law n
  in
  let best = ref infinity in
  for n1 = 1 to 19 do
    let t = Float.max (time 0 n1) (time 1 (20 - n1)) in
    if t < !best then best := t
  done;
  check_float ~eps:1e-6 "optimal" !best alloc.Hslb.Alloc_model.predicted_makespan

let test_counts_scale_budget () =
  (* a class with count=5 consumes 5x its per-task nodes *)
  let fc = fitted_of_law ~name:"c" ~count:5 (Scaling_law.make ~a:100. ~b:0. ~c:1. ~d:0.) in
  let alloc = solve_ok ~n_total:50 [ Hslb.Alloc_model.spec_of fc ] in
  Alcotest.(check int) "10 nodes each" 10 alloc.Hslb.Alloc_model.nodes_per_task.(0)

let test_sweet_spots_respected () =
  let specs =
    List.map
      (fun s -> { s with Hslb.Alloc_model.allowed = Some [ 2; 4; 8; 16 ] })
      (two_class_specs ())
  in
  let alloc = solve_ok ~n_total:20 specs in
  Array.iter
    (fun n -> Alcotest.(check bool) "allowed value" true (List.mem n [ 2; 4; 8; 16 ]))
    alloc.Hslb.Alloc_model.nodes_per_task

let test_objectives_ranking () =
  (* min-max <= max-min <= min-sum in realized makespan (paper: min-sum
     is much worse, max-min slightly worse) *)
  let specs = two_class_specs () in
  let makespan objective =
    let alloc = solve_ok ~objective ~n_total:24 specs in
    alloc.Hslb.Alloc_model.predicted_makespan
  in
  let mm = makespan Hslb.Objective.Min_max in
  let xm = makespan Hslb.Objective.Max_min in
  let ms = makespan Hslb.Objective.Min_sum in
  Alcotest.(check bool) "min-max best" true (mm <= xm +. 1e-6 && mm <= ms +. 1e-6)

let test_max_min_uses_all_nodes () =
  let specs = two_class_specs () in
  let alloc = solve_ok ~objective:Hslb.Objective.Max_min ~n_total:24 specs in
  let used =
    alloc.Hslb.Alloc_model.nodes_per_task.(0) + alloc.Hslb.Alloc_model.nodes_per_task.(1)
  in
  Alcotest.(check bool) "uses (almost) all nodes" true (used >= 23)

(* every solver answers the same makespan, and its certificate names
   it and passes the independent checker against the model's own
   problem *)
let test_solver_choice_agrees () =
  let specs = two_class_specs () in
  let problem, _, _ =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total:30 specs
  in
  let makespans =
    List.map
      (fun solver ->
        let a = solve_ok ~solver ~n_total:30 specs in
        let name = Engine.Solver_choice.to_string solver in
        match a.Hslb.Alloc_model.certificate with
        | None -> Alcotest.failf "%s: no certificate" name
        | Some cert ->
          Alcotest.(check string) "certificate names the solver" name
            cert.Engine.Certificate.producer;
          (match Audit.check_minlp problem cert with
          | Ok () -> ()
          | Error _ as v -> Alcotest.failf "%s certificate rejected: %s" name (Audit.summary v));
          a.Hslb.Alloc_model.predicted_makespan)
      Engine.Solver_choice.all
  in
  List.iter (check_float ~eps:1e-3 "same makespan" (List.hd makespans)) makespans

(* an instance with no admissible allocation is [Error Infeasible] under
   every objective: A's smallest sizes need 8 of 5 nodes, B's only
   sweet spot lies past the budget, and in C (B with room) 64 lies past
   both curves' minima, where max-min admits no size *)
let test_no_admissible_allocation () =
  let csv count = Printf.sprintf "a,%d,100,0.1,1,1\nb,%d,50,0.1,1,1" count count in
  let a = Hslb.Model_store.specs_of_csv (csv 4) in
  let b = Hslb.Model_store.specs_of_csv ~allowed:[ 64 ] (csv 1) in
  let answer objective ~n_total specs =
    match Hslb.Alloc_model.solve ~objective ~n_total specs with
    | Ok alloc -> Ok alloc.Hslb.Alloc_model.nodes_per_task
    | Error st -> Error (Minlp.Solution.status_to_string st)
  in
  let answers = Alcotest.(result (array int) string) in
  List.iter
    (fun objective ->
      let name = Hslb.Objective.to_string objective in
      Alcotest.check answers ("A " ^ name) (Error "infeasible") (answer objective ~n_total:5 a);
      Alcotest.check answers ("B " ^ name) (Error "infeasible") (answer objective ~n_total:50 b))
    Hslb.Objective.[ Min_max; Max_min; Min_sum ];
  Alcotest.check answers "C max-min" (Error "infeasible")
    (answer Hslb.Objective.Max_min ~n_total:200 b);
  List.iter
    (fun objective ->
      Alcotest.check answers
        ("C " ^ Hslb.Objective.to_string objective)
        (Ok [| 64; 64 |])
        (answer objective ~n_total:200 b))
    Hslb.Objective.[ Min_max; Min_sum ]

(* restrict_to_values: builder-level edge cases for the sweet-spot
   encoding *)
let restrict_and_solve ?(minimize = true) ~lo ~hi values =
  let b = Minlp.Problem.Builder.create ~minimize () in
  let v = Minlp.Problem.Builder.add_var b ~name:"n" ~lo ~hi Minlp.Problem.Integer in
  Minlp.Problem.Builder.set_objective b (Minlp.Expr.var v);
  let pairs = Hslb.Alloc_model.restrict_to_values b ~var:v values in
  let sol = Minlp.Oa.run (Minlp.Problem.Builder.build b) in
  (pairs, sol, v)

let test_restrict_singleton () =
  let pairs, sol, v = restrict_and_solve ~lo:1. ~hi:10. [ 5 ] in
  Alcotest.(check (list int)) "one binary" [ 5 ] (List.map snd pairs);
  Alcotest.(check bool) "optimal" true (sol.Minlp.Solution.status = Minlp.Solution.Optimal);
  check_float "pinned to 5" 5. sol.Minlp.Solution.x.(v)

let test_restrict_unsorted_duplicates () =
  (* the value list is normalized: sorted increasing, duplicates fused *)
  let pairs, sol, v = restrict_and_solve ~lo:1. ~hi:20. [ 8; 2; 8; 4; 2 ] in
  Alcotest.(check (list int)) "sorted unique" [ 2; 4; 8 ] (List.map snd pairs);
  check_float "min allowed" 2. sol.Minlp.Solution.x.(v)

let test_restrict_out_of_range_value () =
  (* 50 exceeds the variable's upper bound, so its binary can never be
     selected; the solver must land on the in-range value *)
  let pairs, sol, v = restrict_and_solve ~minimize:false ~lo:1. ~hi:10. [ 3; 50 ] in
  Alcotest.(check (list int)) "both encoded" [ 3; 50 ] (List.map snd pairs);
  Alcotest.(check bool) "optimal" true (sol.Minlp.Solution.status = Minlp.Solution.Optimal);
  check_float "picks feasible 3" 3. sol.Minlp.Solution.x.(v)

let test_restrict_spec_allowed_singleton () =
  (* end-to-end: a singleton sweet-spot list forces the allocation *)
  let fc = fitted_of_law ~name:"c" ~count:1 (Scaling_law.make ~a:100. ~b:0. ~c:1. ~d:0.) in
  let alloc =
    solve_ok ~n_total:32 [ { (Hslb.Alloc_model.spec_of fc) with allowed = Some [ 6 ] } ]
  in
  Alcotest.(check int) "forced to 6" 6 alloc.Hslb.Alloc_model.nodes_per_task.(0)

(* ---------- Fmo_app pipeline ---------- *)

let small_setup () =
  let machine = Machine.make ~name:"t" ~num_nodes:64 ~noise_sigma:0.01 () in
  let rng = Numerics.Rng.create 21 in
  let molecule = Fmo.Molecule.water_cluster ~rng 8 in
  let plan = Fmo.Task.fmo2_plan (Fmo.Fragment.fragment molecule Fmo.Basis.B6_31gd) in
  (machine, plan)

let test_pipeline_runs_and_predicts () =
  let machine, plan = small_setup () in
  let hp, run =
    Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 2) machine plan ~n_total:32
      Hslb.Fmo_app.default_config
  in
  Alcotest.(check bool) "positive time" true (run.Fmo.Fmo_run.total_time > 0.);
  (* prediction within 25% of simulated actual *)
  let rel =
    Float.abs (hp.Hslb.Fmo_app.predicted_total -. run.Fmo.Fmo_run.total_time)
    /. run.Fmo.Fmo_run.total_time
  in
  Alcotest.(check bool) "prediction close" true (rel < 0.25);
  (* partition uses at most the budget *)
  Alcotest.(check bool) "monomer budget" true
    (Gddi.Group.total_nodes hp.Hslb.Fmo_app.partition <= 32);
  Alcotest.(check bool) "dimer budget" true
    (Gddi.Group.total_nodes hp.Hslb.Fmo_app.dimer_partition <= 32);
  (* every fit is good, as the paper reports *)
  List.iter
    (fun (fc : Hslb.Classes.fitted) ->
      Alcotest.(check bool) "r2" true (fc.Hslb.Classes.fit.Hslb.Fitting.r2 > 0.95))
    hp.Hslb.Fmo_app.monomer_fits

let test_hslb_not_worse_than_dynamic () =
  let machine, plan = small_setup () in
  let dyn = Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create 3) machine plan ~n_total:32 () in
  let _, h =
    Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 3) machine plan ~n_total:32
      Hslb.Fmo_app.default_config
  in
  Alcotest.(check bool) "within 10% or better" true
    (h.Fmo.Fmo_run.total_time <= dyn.Fmo.Fmo_run.total_time *. 1.1)

let test_baselines_run () =
  let machine, plan = small_setup () in
  let se =
    Hslb.Fmo_app.run_static_even ~rng:(Numerics.Rng.create 4) machine plan ~n_total:32 ()
  in
  Alcotest.(check bool) "static even positive" true (se.Fmo.Fmo_run.total_time > 0.);
  let dyn =
    Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create 4) machine plan ~n_total:32 ~groups:4 ()
  in
  Alcotest.(check bool) "dynamic custom groups" true (dyn.Fmo.Fmo_run.total_time > 0.)

let test_budget_validation () =
  let machine, plan = small_setup () in
  Alcotest.(check bool) "raises below one node per fragment" true
    (try
       ignore
         (Hslb.Fmo_app.plan_hslb ~rng:(Numerics.Rng.create 1) machine plan ~n_total:4
            Hslb.Fmo_app.default_config);
       false
     with Invalid_argument _ -> true)

(* ---------- Model_store ---------- *)

let test_model_store_roundtrip () =
  let fits =
    [
      fitted_of_law ~name:"alpha" ~count:3 (Scaling_law.make ~a:200. ~b:1e-5 ~c:0.9 ~d:2.);
      fitted_of_law ~name:"beta" ~count:1 (Scaling_law.make ~a:55. ~b:0. ~c:1. ~d:0.1);
    ]
  in
  let csv = Hslb.Model_store.to_csv fits in
  let back = Hslb.Model_store.of_csv csv in
  Alcotest.(check int) "two classes" 2 (List.length back);
  List.iter2
    (fun (a : Hslb.Classes.fitted) (b : Hslb.Classes.fitted) ->
      Alcotest.(check string) "name" a.Hslb.Classes.cls.Hslb.Classes.name
        b.Hslb.Classes.cls.Hslb.Classes.name;
      Alcotest.(check int) "count" a.Hslb.Classes.cls.Hslb.Classes.count
        b.Hslb.Classes.cls.Hslb.Classes.count;
      (* law round-trips exactly through %.17g *)
      List.iter
        (fun n ->
          check_float ~eps:1e-12
            (Printf.sprintf "prediction at %d" n)
            (Hslb.Classes.predicted_time a n) (Hslb.Classes.predicted_time b n))
        [ 1; 7; 64 ])
    fits back

let test_model_store_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Hslb.Model_store.of_csv "not,a,valid,line");
       false
     with Failure _ -> true)

let test_model_store_file_roundtrip () =
  let fits = [ fitted_of_law ~name:"x" ~count:2 (Scaling_law.make ~a:10. ~b:0. ~c:1. ~d:0.) ] in
  let path = Filename.temp_file "hslb_store" ".csv" in
  Hslb.Model_store.save path fits;
  let back = Hslb.Model_store.load path in
  Sys.remove path;
  Alcotest.(check int) "one class" 1 (List.length back);
  (* solve from the restored specs *)
  let alloc =
    solve_ok ~n_total:10 (Hslb.Model_store.specs_of_csv (Hslb.Model_store.to_csv back))
  in
  Alcotest.(check int) "5 nodes each" 5 alloc.Hslb.Alloc_model.nodes_per_task.(0)

(* ---------- Report ---------- *)

let test_report_renders () =
  let machine, plan = small_setup () in
  let hp, run =
    Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 2) machine plan ~n_total:32
      Hslb.Fmo_app.default_config
  in
  let s = Format.asprintf "%a" Hslb.Report.pp_plan hp in
  Alcotest.(check bool) "mentions allocation" true
    (String.length s > 100
    &&
    let re_found = ref false in
    String.iteri (fun _ c -> if c = 'T' then re_found := true) s;
    !re_found);
  let cmp = Format.asprintf "%a" Hslb.Report.pp_comparison [ ("hslb", run) ] in
  Alcotest.(check bool) "comparison renders" true (String.length cmp > 50)

(* ---------- solvated peptide workload ---------- *)

let test_solvated_peptide_pipeline () =
  let rng = Numerics.Rng.create 12 in
  let m = Fmo.Molecule.solvated_peptide ~rng ~residues:4 ~waters:12 in
  Alcotest.(check int) "monomers" 16 m.Fmo.Molecule.num_monomers;
  let plan = Fmo.Task.fmo2_plan (Fmo.Fragment.fragment m Fmo.Basis.B6_31gd) in
  (* two very different populations -> at least two distinct nbf *)
  let nbfs =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun (t : Fmo.Task.t) -> t.Fmo.Task.nbf) plan.Fmo.Task.monomers))
  in
  Alcotest.(check bool) "heterogeneous" true (List.length nbfs >= 2);
  let machine = Machine.make ~name:"solv" ~num_nodes:64 () in
  let _, run =
    Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create 3) machine plan ~n_total:64
      Hslb.Fmo_app.default_config
  in
  Alcotest.(check bool) "runs" true (run.Fmo.Fmo_run.total_time > 0.)

let prop_online_matches_batch =
  QCheck.Test.make ~name:"online buffered refit equals batch fit" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let law =
        Scaling_law.make
          ~a:(Numerics.Rng.uniform rng ~lo:20. ~hi:500.)
          ~b:(Numerics.Rng.uniform rng ~lo:0. ~hi:0.01)
          ~c:(Numerics.Rng.uniform rng ~lo:0.7 ~hi:1.)
          ~d:(Numerics.Rng.uniform rng ~lo:0. ~hi:2.)
      in
      let obs =
        Array.of_list
          (List.map
             (fun n ->
               let y = Scaling_law.eval_int law n in
               (float_of_int n, y *. (1. +. Numerics.Rng.normal rng ~mu:0. ~sigma:0.02)))
             [ 1; 2; 4; 8; 16; 32 ])
      in
      let batch = Hslb.Fitting.fit_observations ~rng:(Numerics.Rng.create (seed + 1)) obs in
      let st = Hslb.Fitting.Online.create ~rng:(Numerics.Rng.create (seed + 1)) [||] in
      Hslb.Fitting.Online.observe_all st obs;
      let online = Hslb.Fitting.Online.refit st in
      Scaling_law.to_array batch.Hslb.Fitting.law
      = Scaling_law.to_array online.Hslb.Fitting.law)

let prop_allocation_within_budget =
  QCheck.Test.make ~name:"allocation always within node budget" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let k = 2 + Numerics.Rng.int rng 3 in
      let specs =
        List.init k (fun i ->
            let law =
              Scaling_law.make
                ~a:(Numerics.Rng.uniform rng ~lo:20. ~hi:500.)
                ~b:0.
                ~c:(Numerics.Rng.uniform rng ~lo:0.7 ~hi:1.)
                ~d:(Numerics.Rng.uniform rng ~lo:0. ~hi:2.)
            in
            let count = 1 + Numerics.Rng.int rng 3 in
            Hslb.Alloc_model.spec_of
              (fitted_of_law ~name:(Printf.sprintf "c%d" i) ~count law))
      in
      let n_total =
        List.fold_left (fun acc s -> acc + s.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.count) 0 specs
        * (2 + Numerics.Rng.int rng 8)
      in
      (* every objective, and also ~10^9 nodes, where rounding makes
         consecutive sizes' times and gains tie or rise *)
      List.for_all
        (fun (objective, n_total) ->
          match Hslb.Alloc_model.solve ~objective ~n_total specs with
          | Error _ -> false
          | Ok alloc ->
          let used =
            List.fold_left
              (fun (acc, i) s ->
                ( acc
                  + (s.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.count
                    * alloc.Hslb.Alloc_model.nodes_per_task.(i)),
                  i + 1 ))
              (0, 0) specs
            |> fst
          in
          used <= n_total
          && Array.for_all (fun n -> n >= 1) alloc.Hslb.Alloc_model.nodes_per_task)
        (List.concat_map
           (fun objective -> [ (objective, n_total); (objective, n_total * 100_000_000) ])
           Hslb.Objective.[ Min_max; Max_min; Min_sum ]))

(* ---------- exact threshold search vs OA ---------- *)

let spec_of_law ?n_min ?n_max ?allowed ~name ~count law =
  let cls = Hslb.Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes) in
  Hslb.Alloc_model.spec_of ?n_min ?n_max ?allowed
    { Hslb.Classes.cls; fit = { Hslb.Fitting.law; r2 = 1.; rmse = 0.; observations = [||] } }

(* 1-6 classes, counts 1-5, budgets 4 to budgets + 3 (4-255 by
   default), random boxes and sweet-spot lists: a share of the
   instances has no admissible allocation *)
let random_instance ?(budgets = 252) rng =
  let k = 1 + Numerics.Rng.int rng 6 in
  let n_total = 4 + Numerics.Rng.int rng budgets in
  let specs =
    List.init k (fun i ->
        let law =
          Scaling_law.make
            ~a:(Numerics.Rng.uniform rng ~lo:1. ~hi:500.)
            ~b:(if Numerics.Rng.int rng 3 = 0 then 0. else Numerics.Rng.uniform rng ~lo:0. ~hi:0.05)
            ~c:(Numerics.Rng.uniform rng ~lo:0.5 ~hi:1.2)
            ~d:(Numerics.Rng.uniform rng ~lo:0. ~hi:5.)
        in
        let n_min = if Numerics.Rng.int rng 3 = 0 then Some (1 + Numerics.Rng.int rng 8) else None in
        let n_max =
          if Numerics.Rng.int rng 3 = 0 then Some (Option.value n_min ~default:1 + Numerics.Rng.int rng 64)
          else None
        in
        let allowed =
          if Numerics.Rng.int rng 3 = 0 then
            Some (List.init (1 + Numerics.Rng.int rng 6) (fun _ -> 1 + Numerics.Rng.int rng 96))
          else None
        in
        spec_of_law ?n_min ?n_max ?allowed ~name:(Printf.sprintf "c%d" i)
          ~count:(1 + Numerics.Rng.int rng 5) law)
  in
  (n_total, specs)

(* leftover nodes go one admissible step at a time to the slowest
   class whose time the step strictly lowers, while it fits; the lower
   index wins a tie, and a class whose step does not fit is done *)
let test_exact_leftover_rule () =
  let l = Scaling_law.make ~a:100. ~b:0. ~c:1. ~d:0. in
  let nodes ~n_total specs =
    (solve_ok ~solver:Engine.Solver_choice.Exact ~n_total specs).Hslb.Alloc_model.nodes_per_task
  in
  Alcotest.(check (array int)) "tie: lower index first" [| 2; 1 |]
    (nodes ~n_total:3 [ spec_of_law ~name:"x" ~count:1 l; spec_of_law ~name:"y" ~count:1 l ]);
  (* a stops at 2 (its next step costs 3 of the last 2 nodes); b, no
     longer the slowest, takes them *)
  Alcotest.(check (array int)) "the next slowest takes what the slowest cannot" [| 2; 4 |]
    (nodes ~n_total:10 [ spec_of_law ~name:"a" ~count:3 l; spec_of_law ~name:"b" ~count:1 l ]);
  Alcotest.(check (array int)) "sweet-spot steps" [| 2; 3 |]
    (nodes ~n_total:10
       [ spec_of_law ~name:"a" ~count:3 l; spec_of_law ~allowed:[ 1; 3; 8 ] ~name:"b" ~count:1 l ]);
  (* b bottoms out at 7 nodes (28.29 s, its floor and the makespan);
     a spends the rest *)
  Alcotest.(check (array int)) "a floor stops its class" [| 11; 7 |]
    (nodes ~n_total:40
       [
         spec_of_law ~name:"a" ~count:3 l;
         spec_of_law ~name:"b" ~count:1 (Scaling_law.make ~a:100. ~b:2. ~c:1. ~d:0.);
       ])

let prop_exact_matches_oa =
  QCheck.Test.make ~name:"exact = oa (feasibility, makespan, audit)" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let n_total, specs = random_instance (Numerics.Rng.create seed) in
      let solve solver = Hslb.Alloc_model.solve ~solver ~n_total specs in
      match (solve Engine.Solver_choice.Exact, solve Engine.Solver_choice.Oa) with
      | Error Minlp.Solution.Infeasible, Error Minlp.Solution.Infeasible -> true
      | Ok exact, Ok oa ->
        let e = exact.Hslb.Alloc_model.predicted_makespan
        and o = oa.Hslb.Alloc_model.predicted_makespan in
        let problem, _, _ =
          Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs
        in
        (match Audit.check_minlp problem (Option.get exact.Hslb.Alloc_model.certificate) with
        | Ok () -> ()
        | Error _ as v -> QCheck.Test.fail_reportf "seed %d: audit: %s" seed (Audit.summary v));
        if e <= o && e >= o /. (1. +. 1e-4) then true
        else QCheck.Test.fail_reportf "seed %d: exact %.17g, oa %.17g" seed e o
      | r, r' ->
        let show = function
          | Ok _ -> "ok"
          | Error st -> Minlp.Solution.status_to_string st
        in
        QCheck.Test.fail_reportf "seed %d: exact %s, oa %s" seed (show r) (show r'))

(* the ladder walks allocate max-min and min-sum node for node as the
   size-enumerating oracles (Alloc_oracle) do, feasibility included *)
let prop_ladders_match_oracles ~name ~count ~budgets =
  QCheck.Test.make ~name ~count
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let n_total, specs = random_instance ~budgets (Numerics.Rng.create seed) in
      List.for_all
        (fun objective ->
          let show = function
            | Ok a ->
              Printf.sprintf "[%s] %.17g"
                (String.concat ";"
                   (Array.to_list (Array.map string_of_int a.Hslb.Alloc_model.nodes_per_task)))
                a.Hslb.Alloc_model.predicted_makespan
            | Error st -> Minlp.Solution.status_to_string st
          in
          let same (a : Hslb.Alloc_model.allocation) (o : Hslb.Alloc_model.allocation) =
            a.nodes_per_task = o.nodes_per_task && a.predicted_makespan = o.predicted_makespan
          in
          match
            ( Hslb.Alloc_model.solve ~objective ~n_total specs,
              Alloc_oracle.solve ~objective ~n_total specs )
          with
          | Ok a, Ok o when same a o -> true
          | Error st, Error st' when st = st' -> true
          | r, r' ->
            QCheck.Test.fail_reportf "seed %d, %s, n_total %d: ladder %s, oracle %s" seed
              (Hslb.Objective.to_string objective) n_total (show r) (show r'))
        Hslb.Objective.[ Max_min; Min_sum ])

(* ---------- keep or re-solve: the incumbent against the exact optimum ---------- *)

let alpha_law = Scaling_law.make ~a:100. ~b:0.001 ~c:1. ~d:0.5

(* 4 tasks of alpha, at most 32 nodes each *)
let reopt ?allowed ~n_total incumbent =
  Hslb.Alloc_model.reoptimality ~eps:0.05 ~n_total ~incumbent
    [ spec_of_law ?allowed ~n_max:32 ~name:"alpha" ~count:4 alpha_law ]

let test_reopt_keeps_optimal () =
  (* 4 tasks of 8 nodes on 32 is the exact optimum: gap 0 *)
  match reopt ~n_total:32 [| 8 |] with
  | None -> Alcotest.fail "optimal incumbent found inadmissible"
  | Some r ->
    Alcotest.(check bool) "kept" true r.keep;
    Alcotest.(check (float 0.)) "gap" 0. r.gap_rel;
    Alcotest.(check (float 1e-9)) "incumbent makespan" 13.008 r.incumbent_makespan;
    Alcotest.(check (array int)) "the optimum" [| 8 |] r.optimum.nodes_per_task

let test_reopt_rejects_stale () =
  (* 4 nodes per task nearly doubles the makespan *)
  match reopt ~n_total:32 [| 4 |] with
  | None -> Alcotest.fail "stale incumbent found inadmissible"
  | Some r ->
    Alcotest.(check bool) "not kept" false r.keep;
    Alcotest.(check bool) "gap well above eps" true (r.gap_rel > 0.9);
    Alcotest.(check (float 1e-9)) "incumbent makespan" 25.504 r.incumbent_makespan;
    Alcotest.(check (float 1e-9)) "the optimum's makespan" 13.008
      r.optimum.predicted_makespan

(* the continuous relaxation bound stays below the exact optimum on a
   two-class instance *)
let test_relaxation_below_exact () =
  let beta_law = Scaling_law.make ~a:50. ~b:0.002 ~c:0.9 ~d:0.2 in
  let specs =
    [
      spec_of_law ~n_max:32 ~name:"alpha" ~count:4 alpha_law;
      spec_of_law ~n_max:32 ~name:"beta" ~count:2 beta_law;
    ]
  in
  let bound = Alloc_oracle.relaxation_bound ~n_total:48 specs in
  let opt = (solve_ok ~n_total:48 specs).predicted_makespan in
  Alcotest.(check bool) (Printf.sprintf "bound %.6f <= exact %.6f" bound opt) true (bound <= opt)

let test_reopt_inadmissible () =
  let none msg r = Alcotest.(check bool) msg true (Option.is_none r) in
  none "outside the box" (reopt ~n_total:200 [| 40 |]);
  none "over budget" (reopt ~n_total:32 [| 16 |]);
  none "not a sweet spot" (reopt ~allowed:[ 2; 4; 16 ] ~n_total:64 [| 8 |]);
  none "wrong length" (reopt ~n_total:32 [| 8; 8 |])

let test_reopt_messages () =
  Alcotest.check_raises "no classes" (Invalid_argument "Alloc_model.reoptimality: no classes")
    (fun () ->
      ignore (Hslb.Alloc_model.reoptimality ~eps:0.05 ~n_total:8 ~incumbent:[||] []));
  (* an admissible incumbent is priced by the exact solve, which keeps
     its own refusals *)
  Alcotest.check_raises "budget past 2^53"
    (Invalid_argument "Alloc_model.solve: solver exact needs n_total <= 2^53") (fun () ->
      ignore (reopt ~n_total:(1 lsl 60) [| 8 |]))

(* a relaxation never undercuts the exact optimum, so every incumbent
   the relaxation bound kept within eps, the optimum keeps too; and an
   optimum is kept as its own incumbent, at gap 0 *)
let prop_relaxation_below_exact ~name ~count ~budgets =
  QCheck.Test.make ~name ~count
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let n_total, specs = random_instance ~budgets (Numerics.Rng.create seed) in
      match Hslb.Alloc_model.solve ~n_total specs with
      | Error _ -> true
      | Ok a -> (
        let bound = Alloc_oracle.relaxation_bound ~n_total specs in
        if bound > a.predicted_makespan *. (1. +. 1e-9) then
          QCheck.Test.fail_reportf "seed %d: bound %.17g above exact %.17g" seed bound
            a.predicted_makespan
        else
          match
            Hslb.Alloc_model.reoptimality ~eps:0. ~n_total ~incumbent:a.nodes_per_task specs
          with
          | Some r when r.keep && r.gap_rel = 0. -> true
          | Some r -> QCheck.Test.fail_reportf "seed %d: optimum at gap %.17g" seed r.gap_rel
          | None -> QCheck.Test.fail_reportf "seed %d: optimum found inadmissible" seed))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_allocation_within_budget;
        prop_online_matches_batch;
        prop_exact_matches_oa;
        prop_ladders_match_oracles ~name:"max-min, min-sum ladders = oracles" ~count:300
          ~budgets:252;
        prop_ladders_match_oracles ~name:"ladders = oracles, budgets to 5003" ~count:100
          ~budgets:5000;
        prop_relaxation_below_exact ~name:"relaxation bound <= exact optimum" ~count:300
          ~budgets:252;
        prop_relaxation_below_exact ~name:"relaxation bound <= exact, budgets to 5003"
          ~count:100 ~budgets:5000;
      ]
  in
  Alcotest.run "hslb"
    [
      ( "fitting",
        [
          Alcotest.test_case "recovers noiseless" `Quick test_fit_recovers_noiseless;
          Alcotest.test_case "insufficient data" `Quick test_fit_rejects_insufficient_data;
          Alcotest.test_case "nonneg params" `Quick test_fit_nonneg_params;
          Alcotest.test_case "recommended sizes" `Quick test_recommended_sizes;
          Alcotest.test_case "recommended sizes messages" `Quick
            test_recommended_sizes_messages;
          Alcotest.test_case "online = batch" `Quick test_online_buffered_equals_batch;
          Alcotest.test_case "online tracks drift" `Quick test_online_tracks_drift;
        ] );
      ( "classes",
        [
          Alcotest.test_case "gather shape" `Quick test_gather_shape;
          Alcotest.test_case "gather and fit" `Quick test_gather_and_fit;
          Alcotest.test_case "validation" `Quick test_class_validation;
        ] );
      ( "alloc_model",
        [
          Alcotest.test_case "proportional split" `Quick test_minmax_allocation_proportional;
          Alcotest.test_case "matches brute force" `Quick test_minmax_vs_brute_force;
          Alcotest.test_case "counts scale budget" `Quick test_counts_scale_budget;
          Alcotest.test_case "sweet spots" `Quick test_sweet_spots_respected;
          Alcotest.test_case "objective ranking" `Quick test_objectives_ranking;
          Alcotest.test_case "max-min uses nodes" `Quick test_max_min_uses_all_nodes;
          Alcotest.test_case "oa = bnb" `Quick test_solver_choice_agrees;
          Alcotest.test_case "restrict singleton" `Quick test_restrict_singleton;
          Alcotest.test_case "restrict unsorted+dups" `Quick test_restrict_unsorted_duplicates;
          Alcotest.test_case "restrict out-of-range" `Quick test_restrict_out_of_range_value;
          Alcotest.test_case "allowed singleton end-to-end" `Quick
            test_restrict_spec_allowed_singleton;
          Alcotest.test_case "no admissible allocation is infeasible" `Quick
            test_no_admissible_allocation;
          Alcotest.test_case "exact leftover rule" `Quick test_exact_leftover_rule;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "certifies optimal incumbent" `Quick test_reopt_keeps_optimal;
          Alcotest.test_case "rejects stale incumbent" `Quick test_reopt_rejects_stale;
          Alcotest.test_case "bound below minlp" `Quick test_relaxation_below_exact;
          Alcotest.test_case "rejects infeasible incumbent" `Quick test_reopt_inadmissible;
          Alcotest.test_case "validation messages" `Quick test_reopt_messages;
        ] );
      ( "fmo_app",
        [
          Alcotest.test_case "pipeline predicts" `Quick test_pipeline_runs_and_predicts;
          Alcotest.test_case "not worse than dynamic" `Quick test_hslb_not_worse_than_dynamic;
          Alcotest.test_case "baselines" `Quick test_baselines_run;
          Alcotest.test_case "budget validation" `Quick test_budget_validation;
          Alcotest.test_case "solvated peptide" `Quick test_solvated_peptide_pipeline;
        ] );
      ( "model_store",
        [
          Alcotest.test_case "csv roundtrip" `Quick test_model_store_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_model_store_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick test_model_store_file_roundtrip;
        ] );
      ("report", [ Alcotest.test_case "renders" `Quick test_report_renders ]);
      ("properties", qsuite);
    ]
