(* Engine subsystem tests: budgets, cancellation, telemetry, run
   reports, solver choice, and the budget/warm-start behavior of the
   MINLP solvers they thread through. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- Budget ---------- *)

let test_budget_unlimited () =
  let a = Engine.Budget.arm Engine.Budget.unlimited in
  Engine.Budget.add_nodes a 1_000_000;
  Engine.Budget.add_iters a 1_000_000;
  Alcotest.(check bool) "never stops" true (Engine.Budget.check a = None);
  Alcotest.(check bool) "stopped None-tolerant" true (Engine.Budget.stopped None = None)

let test_budget_node_limit () =
  let a = Engine.Budget.arm (Engine.Budget.make ~max_nodes:3 ()) in
  Engine.Budget.add_nodes a 2;
  Alcotest.(check bool) "under limit" true (Engine.Budget.check a = None);
  Engine.Budget.add_nodes a 1;
  Alcotest.(check bool) "at limit" true
    (Engine.Budget.check a = Some Engine.Budget.Node_limit);
  Alcotest.(check int) "counter" 3 (Engine.Budget.nodes a)

let test_budget_iter_limit () =
  let a = Engine.Budget.arm (Engine.Budget.make ~max_iters:10 ()) in
  Engine.Budget.add_iters a 10;
  Alcotest.(check bool) "iter limit" true
    (Engine.Budget.check a = Some Engine.Budget.Iter_limit)

let test_budget_deadline () =
  let a = Engine.Budget.arm (Engine.Budget.make ~deadline_s:0. ()) in
  Alcotest.(check bool) "expired immediately" true
    (Engine.Budget.check a = Some Engine.Budget.Deadline);
  Alcotest.(check bool) "elapsed nonneg" true (Engine.Budget.elapsed_s a >= 0.)

let test_budget_cancel () =
  let token = Engine.Cancel.create () in
  let a = Engine.Budget.arm (Engine.Budget.make ~cancel:token ()) in
  Alcotest.(check bool) "not yet" true (Engine.Budget.check a = None);
  Engine.Cancel.cancel token;
  Alcotest.(check bool) "cancelled" true
    (Engine.Budget.check a = Some Engine.Budget.Cancelled);
  (* cancellation outranks every other verdict *)
  let b = Engine.Budget.arm (Engine.Budget.make ~deadline_s:0. ~cancel:token ()) in
  Alcotest.(check bool) "cancel wins" true
    (Engine.Budget.check b = Some Engine.Budget.Cancelled)

let test_budget_independent_arms () =
  let spec = Engine.Budget.make ~max_nodes:1 () in
  let a1 = Engine.Budget.arm spec in
  let a2 = Engine.Budget.arm spec in
  Engine.Budget.add_nodes a1 1;
  Alcotest.(check bool) "a1 stopped" true (Engine.Budget.check a1 <> None);
  Alcotest.(check bool) "a2 unaffected" true (Engine.Budget.check a2 = None)

(* ---------- Telemetry ---------- *)

let test_telemetry_counters_and_merge () =
  let t = Engine.Telemetry.create () in
  Engine.Telemetry.bump (Some t) Engine.Telemetry.add_simplex_pivots 5;
  Engine.Telemetry.bump None Engine.Telemetry.add_simplex_pivots 100;
  Alcotest.(check int) "bump some" 5 t.Engine.Telemetry.simplex_pivots;
  Engine.Telemetry.set_warm_start_used (Some t);
  Alcotest.(check bool) "warm flag" true t.Engine.Telemetry.warm_start_used;
  let u = Engine.Telemetry.create () in
  Engine.Telemetry.add_nodes_expanded u 7;
  Engine.Telemetry.merge_into t u;
  Alcotest.(check int) "merged" 7 t.Engine.Telemetry.nodes_expanded;
  Engine.Telemetry.reset t;
  Alcotest.(check int) "reset" 0 t.Engine.Telemetry.simplex_pivots

let test_telemetry_phase_timer () =
  let t = Engine.Telemetry.create () in
  let v = Engine.Telemetry.time (Some t) "phase-a" (fun () -> 42) in
  Alcotest.(check int) "passthrough" 42 v;
  let v2 = Engine.Telemetry.time None "ignored" (fun () -> 1) in
  Alcotest.(check int) "no-tally passthrough" 1 v2;
  (match Engine.Telemetry.phases t with
  | [ ("phase-a", s) ] -> Alcotest.(check bool) "nonneg seconds" true (s >= 0.)
  | l -> Alcotest.failf "unexpected phases (%d entries)" (List.length l));
  (* exceptions still record the phase *)
  (try Engine.Telemetry.time (Some t) "phase-a" (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check int) "re-entrant label accumulates" 1
    (List.length (Engine.Telemetry.phases t))

(* ---------- Solver_choice ---------- *)

let test_solver_choice_roundtrip () =
  List.iter
    (fun s ->
      match Engine.Solver_choice.of_string (Engine.Solver_choice.to_string s) with
      | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Error e -> Alcotest.fail e)
    Engine.Solver_choice.all;
  Alcotest.(check bool) "multi alias" true
    (Engine.Solver_choice.of_string "multi" = Ok Engine.Solver_choice.Oa_multi);
  Alcotest.(check bool) "underscore alias" true
    (Engine.Solver_choice.of_string "oa_multi" = Ok Engine.Solver_choice.Oa_multi);
  Alcotest.(check bool) "garbage rejected" true
    (match Engine.Solver_choice.of_string "simplex" with Error _ -> true | Ok _ -> false)

(* ---------- Run_report ---------- *)

let test_run_report_json_and_csv () =
  let t = Engine.Telemetry.create () in
  Engine.Telemetry.add_simplex_pivots t 17;
  ignore (Engine.Telemetry.time (Some t) "master" (fun () -> ()));
  let r =
    Engine.Run_report.make ~solver:"oa" ~status:"optimal" ~objective:1.5 ~wall_s:0.25 t
  in
  let json = Engine.Run_report.to_json r in
  List.iter
    (fun key ->
      if not (String.length json > 0 && contains_substring json key) then
        Alcotest.failf "JSON missing key %s in %s" key json)
    [
      "\"solver\"";
      "\"status\"";
      "\"objective\"";
      "\"simplex_pivots\"";
      "\"warm_start_used\"";
      "\"phases\"";
      "\"master\"";
    ];
  (* bound was omitted -> nan -> null *)
  Alcotest.(check bool) "nan as null" true (contains_substring json "null");
  let header_cols = List.length (String.split_on_char ',' Engine.Run_report.csv_header) in
  let row_cols = List.length (String.split_on_char ',' (Engine.Run_report.to_csv_row r)) in
  Alcotest.(check int) "csv arity" header_cols row_cols;
  let path = Filename.temp_file "hslb_report" ".json" in
  Engine.Run_report.write_json path r;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file written" true (len > 0)

(* ---------- budgets threaded through the solvers ---------- *)

let fitted_of_law ~name ~count law =
  let cls =
    Hslb.Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes)
  in
  List.hd
    (Hslb.Classes.gather_and_fit ~rng:(Numerics.Rng.create 11)
       ~sizes:[ 1; 2; 4; 8; 16; 64; 256 ] ~reps:1 [ cls ])

(* an E4/E6-style workload: several diverse classes with sweet-spot
   restrictions, enough to make the MINLP tree nontrivial *)
let e6_specs ?allowed () =
  List.init 6 (fun i ->
      let law =
        Scaling_law.make
          ~a:(150. +. (170. *. float_of_int i))
          ~b:1e-6
          ~c:(0.78 +. (0.035 *. float_of_int i))
          ~d:(0.3 +. (0.4 *. float_of_int i))
      in
      let fc = fitted_of_law ~name:(Printf.sprintf "k%d" i) ~count:(1 + (i mod 3)) law in
      match allowed with
      | None -> Hslb.Alloc_model.spec_of fc
      | Some vals -> Hslb.Alloc_model.spec_of ~allowed:vals fc)

let test_deadline_returns_incumbent () =
  (* 1 ms wall budget on a workload whose full OA solve takes far
     longer: the solve must neither raise nor come back empty — OA's
     greedy warm start guarantees a feasible incumbent *)
  let specs = e6_specs ~allowed:[ 1; 2; 4; 8; 16; 32; 64; 128 ] () in
  let n_total = 512 in
  let budget = Engine.Budget.arm (Engine.Budget.make ~deadline_s:0.001 ()) in
  match Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa ~budget ~n_total specs with
  | Error st ->
    Alcotest.failf "expected an incumbent, got %s" (Minlp.Solution.status_to_string st)
  | Ok alloc ->
    (match alloc.Hslb.Alloc_model.status with
    | Minlp.Solution.Budget_exhausted Minlp.Solution.Deadline -> ()
    | st ->
      Alcotest.failf "expected budget-exhausted(deadline), got %s"
        (Minlp.Solution.status_to_string st));
    (* the incumbent is a real allocation: within budget, >= 1 node/task *)
    let used = ref 0 in
    List.iteri
      (fun i (s : Hslb.Alloc_model.spec) ->
        let n = alloc.Hslb.Alloc_model.nodes_per_task.(i) in
        Alcotest.(check bool) "at least one node" true (n >= 1);
        used := !used + (n * s.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.count))
      specs;
    Alcotest.(check bool) "within node budget" true (!used <= n_total);
    Alcotest.(check bool) "finite makespan" true
      (Float.is_finite alloc.Hslb.Alloc_model.predicted_makespan)

let test_cancel_stops_solve () =
  let token = Engine.Cancel.create () in
  Engine.Cancel.cancel token;
  let specs = e6_specs () in
  let budget = Engine.Budget.arm (Engine.Budget.make ~cancel:token ()) in
  match Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa ~budget ~n_total:256 specs with
  | Ok alloc -> (
    match alloc.Hslb.Alloc_model.status with
    | Minlp.Solution.Budget_exhausted Minlp.Solution.Cancelled -> ()
    | st ->
      Alcotest.failf "expected budget-exhausted(cancelled), got %s"
        (Minlp.Solution.status_to_string st))
  | Error (Minlp.Solution.Budget_exhausted Minlp.Solution.Cancelled) -> ()
  | Error st ->
    Alcotest.failf "expected cancelled, got %s" (Minlp.Solution.status_to_string st)

let test_node_budget_respected () =
  let specs = e6_specs ~allowed:[ 1; 2; 4; 8; 16; 32 ] () in
  let budget = Engine.Budget.arm (Engine.Budget.make ~max_nodes:5 ()) in
  let tally = Engine.Telemetry.create () in
  (match
     Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa ~budget ~trace:tally
       ~n_total:256 specs
   with
  | Ok alloc -> (
    match alloc.Hslb.Alloc_model.status with
    | Minlp.Solution.Budget_exhausted Minlp.Solution.Node_limit
    | Minlp.Solution.Optimal (* tiny trees may finish first *) ->
      ()
    | st -> Alcotest.failf "unexpected status %s" (Minlp.Solution.status_to_string st))
  | Error st -> Alcotest.failf "no incumbent: %s" (Minlp.Solution.status_to_string st));
  Alcotest.(check bool) "few nodes charged" true (Engine.Budget.nodes budget <= 6)

let test_telemetry_counters_nonzero_on_solve () =
  let specs = e6_specs () in
  let tally = Engine.Telemetry.create () in
  (match
     Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa ~trace:tally ~n_total:256 specs
   with
  | Ok _ -> ()
  | Error st -> Alcotest.failf "solve failed: %s" (Minlp.Solution.status_to_string st));
  Alcotest.(check bool) "lp solves counted" true (tally.Engine.Telemetry.lp_solves > 0);
  Alcotest.(check bool) "pivots counted" true (tally.Engine.Telemetry.simplex_pivots > 0);
  Alcotest.(check bool) "warm start applied" true tally.Engine.Telemetry.warm_start_used;
  Alcotest.(check bool) "master phase timed" true
    (List.mem_assoc "master" (Engine.Telemetry.phases tally))

(* ---------- warm starts ---------- *)

let test_warm_start_cuts_bnb_nodes () =
  (* acceptance criterion: a warm-started B&B expands strictly fewer
     nodes than a cold one on an E4-style allocation instance *)
  let specs = e6_specs () in
  let n_total = 256 in
  let problem, _, lift =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs
  in
  let cold_tally = Engine.Telemetry.create () in
  let cold = Minlp.Bnb.run ~tally:cold_tally problem in
  (* warm point: the greedy min-sum allocation, lifted into the full
     variable space of the MINLP *)
  let greedy =
    match Hslb.Alloc_model.solve ~objective:Hslb.Objective.Min_sum ~n_total specs with
    | Ok a -> a
    | Error st -> Alcotest.failf "greedy failed: %s" (Minlp.Solution.status_to_string st)
  in
  let warm_point = lift greedy.Hslb.Alloc_model.nodes_per_task in
  let warm_tally = Engine.Telemetry.create () in
  let warm = Minlp.Bnb.run ~tally:warm_tally ~warm_start:warm_point problem in
  Alcotest.(check bool) "cold optimal" true
    (cold.Minlp.Solution.status = Minlp.Solution.Optimal);
  Alcotest.(check bool) "warm optimal" true
    (warm.Minlp.Solution.status = Minlp.Solution.Optimal);
  check_float ~eps:1e-4 "same objective" cold.Minlp.Solution.obj warm.Minlp.Solution.obj;
  Alcotest.(check bool) "warm start was used" true warm_tally.Engine.Telemetry.warm_start_used;
  if warm_tally.Engine.Telemetry.nodes_expanded >= cold_tally.Engine.Telemetry.nodes_expanded
  then
    Alcotest.failf "warm start did not help: warm %d nodes vs cold %d"
      warm_tally.Engine.Telemetry.nodes_expanded cold_tally.Engine.Telemetry.nodes_expanded

let test_warm_start_oa_matches_cold () =
  (* warm-starting OA must not change the optimum it proves *)
  let specs = e6_specs ~allowed:[ 1; 2; 4; 8; 16; 32; 64 ] () in
  let n_total = 256 in
  let problem, _, lift =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs
  in
  let cold = Minlp.Oa.run problem in
  let greedy =
    match Hslb.Alloc_model.solve ~objective:Hslb.Objective.Min_sum ~n_total specs with
    | Ok a -> a
    | Error st -> Alcotest.failf "greedy failed: %s" (Minlp.Solution.status_to_string st)
  in
  let warm =
    Minlp.Oa.run ~warm_start:(lift greedy.Hslb.Alloc_model.nodes_per_task) problem
  in
  Alcotest.(check bool) "cold optimal" true
    (cold.Minlp.Solution.status = Minlp.Solution.Optimal);
  Alcotest.(check bool) "warm optimal" true
    (warm.Minlp.Solution.status = Minlp.Solution.Optimal);
  check_float ~eps:1e-4 "same objective" cold.Minlp.Solution.obj warm.Minlp.Solution.obj

let test_lift_point_shapes () =
  let b = Minlp.Problem.Builder.create () in
  let v = Minlp.Problem.Builder.add_var b ~name:"n" ~lo:1. ~hi:10. Minlp.Problem.Integer in
  Minlp.Problem.Builder.set_objective b (Minlp.Expr.pow (Minlp.Expr.var v) 2.);
  let p0 = Minlp.Problem.Builder.build b in
  let p, _ = Minlp.Problem.normalize p0 in
  (* normalize adds the epigraph variable; lift must fill it with the
     original objective value *)
  match Minlp.Problem.lift_point ~orig:p0 p [| 3. |] with
  | Some w ->
    Alcotest.(check int) "one extra var" (Array.length w) p.Minlp.Problem.num_vars;
    check_float "epigraph = objective" 9. w.(Array.length w - 1)
  | None -> Alcotest.fail "lift failed"

let () =
  Alcotest.run "engine"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "node limit" `Quick test_budget_node_limit;
          Alcotest.test_case "iter limit" `Quick test_budget_iter_limit;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "cancel token" `Quick test_budget_cancel;
          Alcotest.test_case "independent arms" `Quick test_budget_independent_arms;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters and merge" `Quick test_telemetry_counters_and_merge;
          Alcotest.test_case "phase timer" `Quick test_telemetry_phase_timer;
        ] );
      ( "solver choice",
        [ Alcotest.test_case "roundtrip" `Quick test_solver_choice_roundtrip ] );
      ( "run report",
        [ Alcotest.test_case "json and csv" `Quick test_run_report_json_and_csv ] );
      ( "budgeted solves",
        [
          Alcotest.test_case "1ms deadline keeps incumbent" `Quick
            test_deadline_returns_incumbent;
          Alcotest.test_case "pre-cancelled token" `Quick test_cancel_stops_solve;
          Alcotest.test_case "node budget" `Quick test_node_budget_respected;
          Alcotest.test_case "counters nonzero" `Quick
            test_telemetry_counters_nonzero_on_solve;
        ] );
      ( "warm starts",
        [
          Alcotest.test_case "bnb expands fewer nodes" `Quick test_warm_start_cuts_bnb_nodes;
          Alcotest.test_case "oa unchanged optimum" `Quick test_warm_start_oa_matches_cold;
          Alcotest.test_case "lift through epigraph" `Quick test_lift_point_shapes;
        ] );
    ]
