(* Tests for lib/audit: the independent checker must accept honest
   certificates, reject every corrupted one with a typed violation, the
   poll-fuse fault injection must be deterministic and sticky, and a
   mini stress sweep must come back clean. *)

let check_rejects msg pred verdict =
  match verdict with
  | Ok () -> Alcotest.failf "%s: checker accepted a corrupted certificate" msg
  | Error vs ->
    if not (List.exists pred vs) then
      Alcotest.failf "%s: expected violation missing; got: %s" msg (Audit.summary verdict)

(* one honest certified solve, reused by every mutation test *)
let solved =
  lazy
    (let p = Audit.Instances.generate ~seed:11 in
     let sol, cert = Minlp.Solver.run Engine.Solver_choice.Oa p in
     if Minlp.Solution.has_incumbent sol then (p, cert)
     else
       Alcotest.failf "solve failed: %s"
         (Minlp.Solution.status_to_string sol.Minlp.Solution.status))

let witness cert =
  match cert.Engine.Certificate.witness with
  | Some w -> Array.copy w
  | None -> Alcotest.fail "certificate carries no witness"

let test_pristine_passes () =
  let p, cert = Lazy.force solved in
  match Audit.check_minlp p cert with
  | Ok () -> ()
  | Error _ as v -> Alcotest.failf "pristine certificate rejected: %s" (Audit.summary v)

let test_mutation_not_integral () =
  let p, cert = Lazy.force solved in
  let w = witness cert in
  w.(0) <- w.(0) +. 0.37;
  check_rejects "fractional witness"
    (function Audit.Not_integral _ -> true | _ -> false)
    (Audit.check_minlp p { cert with Engine.Certificate.witness = Some w })

let test_mutation_bound_violated () =
  let p, cert = Lazy.force solved in
  let w = witness cert in
  w.(0) <- p.Minlp.Problem.lo.(0) -. 5.;
  check_rejects "witness outside its box"
    (function Audit.Bound_violated _ -> true | _ -> false)
    (Audit.check_minlp p { cert with Engine.Certificate.witness = Some w })

let test_mutation_constraint_violated () =
  let p, cert = Lazy.force solved in
  (* every variable at its upper bound overruns the shared node pool *)
  let w = Array.map (fun hi -> hi) p.Minlp.Problem.hi in
  check_rejects "pool constraint violated"
    (function Audit.Constraint_violated _ -> true | _ -> false)
    (Audit.check_minlp p { cert with Engine.Certificate.witness = Some w })

let test_mutation_objective_claim () =
  let p, cert = Lazy.force solved in
  check_rejects "inflated objective claim"
    (function Audit.Objective_mismatch _ -> true | _ -> false)
    (Audit.check_minlp p
       { cert with Engine.Certificate.claimed_obj = cert.Engine.Certificate.claimed_obj +. 1. })

let test_mutation_bound_above_incumbent () =
  let p, cert = Lazy.force solved in
  check_rejects "lower bound claimed above the incumbent"
    (function Audit.Bound_above_incumbent _ -> true | _ -> false)
    (Audit.check_minlp p
       {
         cert with
         Engine.Certificate.claimed_bound = cert.Engine.Certificate.claimed_obj +. 10.;
       })

let test_mutation_gap_open () =
  let p, cert = Lazy.force solved in
  check_rejects "gap-closed evidence with a distant bound"
    (function Audit.Gap_open _ -> true | _ -> false)
    (Audit.check_minlp p
       {
         cert with
         Engine.Certificate.evidence = Engine.Certificate.Gap_closed;
         claimed_bound = cert.Engine.Certificate.claimed_obj -. 100.;
       })

let test_mutation_open_branches () =
  let p, cert = Lazy.force solved in
  check_rejects "cover with unexplored branches"
    (function Audit.Open_branches _ -> true | _ -> false)
    (Audit.check_minlp p
       {
         cert with
         Engine.Certificate.evidence =
           Engine.Certificate.Cover_exhausted
             { Engine.Certificate.explored = 5; pruned = 2; open_branches = 3 };
       })

let test_mutation_evidence_mismatch () =
  let p, cert = Lazy.force solved in
  check_rejects "optimal claimed on incumbent-only evidence"
    (function Audit.Evidence_mismatch _ -> true | _ -> false)
    (Audit.check_minlp p
       { cert with Engine.Certificate.evidence = Engine.Certificate.Incumbent_only })

let test_mutation_missing_witness () =
  let p, cert = Lazy.force solved in
  check_rejects "optimal claimed without a witness"
    (function Audit.Missing_witness -> true | _ -> false)
    (Audit.check_minlp p { cert with Engine.Certificate.witness = None })

let test_mutation_witness_dimension () =
  let p, cert = Lazy.force solved in
  let w = Array.append (witness cert) [| 0. |] in
  check_rejects "witness of the wrong dimension"
    (function Audit.Witness_dimension _ -> true | _ -> false)
    (Audit.check_minlp p { cert with Engine.Certificate.witness = Some w })

(* ---------- poll-fuse fault injection ---------- *)

let test_poll_fuse_deterministic () =
  let b =
    Engine.Budget.arm (Engine.Budget.make ~poll_fuse:(3, Engine.Budget.Deadline) ())
  in
  Alcotest.(check bool) "poll 1 clean" true (Engine.Budget.check b = None);
  Alcotest.(check bool) "poll 2 clean" true (Engine.Budget.check b = None);
  Alcotest.(check bool) "poll 3 trips" true
    (Engine.Budget.check b = Some Engine.Budget.Deadline);
  Alcotest.(check bool) "sticky" true (Engine.Budget.check b = Some Engine.Budget.Deadline)

let test_poll_fuse_inspect_does_not_charge () =
  let b =
    Engine.Budget.arm (Engine.Budget.make ~poll_fuse:(2, Engine.Budget.Cancelled) ())
  in
  Alcotest.(check bool) "inspect before any poll" true (Engine.Budget.inspect b = None);
  Alcotest.(check bool) "poll 1 clean" true (Engine.Budget.check b = None);
  (* inspecting repeatedly must not move the fuse *)
  Alcotest.(check bool) "inspect still clean" true (Engine.Budget.inspect b = None);
  Alcotest.(check bool) "inspect still clean (again)" true (Engine.Budget.inspect b = None);
  Alcotest.(check bool) "poll 2 trips" true
    (Engine.Budget.check b = Some Engine.Budget.Cancelled);
  (* once tripped, inspect sees the sticky verdict *)
  Alcotest.(check bool) "inspect sees tripped fuse" true
    (Engine.Budget.inspect b = Some Engine.Budget.Cancelled)

(* a solver driven into a tripped fuse must not claim a proven status,
   and its certificate must carry the budget stop *)
let test_fused_solve_not_optimal () =
  let p = Audit.Instances.generate ~seed:11 in
  let budget =
    Engine.Budget.arm (Engine.Budget.make ~poll_fuse:(5, Engine.Budget.Deadline) ())
  in
  let sol, cert = Minlp.Solver.run ~budget Engine.Solver_choice.Oa p in
  if sol.Minlp.Solution.status = Minlp.Solution.Optimal then
    Alcotest.fail "optimal claimed although the fuse tripped";
  Alcotest.(check (option string)) "certificate records the budget stop" (Some "deadline")
    cert.Engine.Certificate.budget_stop;
  match Audit.check_minlp p cert with
  | Ok () -> ()
  | Error _ as v -> Alcotest.failf "fused certificate rejected: %s" (Audit.summary v)

(* ---------- mini stress sweep ---------- *)

let test_stress_clean () =
  let outcome = Audit.Stress.run ~seed:7 ~trials:12 () in
  if not (Audit.Stress.clean outcome) then
    Alcotest.failf "stress sweep not clean: %s"
      (String.concat "; " outcome.Audit.Stress.failures)

let test_stress_deterministic () =
  let a = Audit.Stress.run ~seed:9 ~trials:6 () in
  let b = Audit.Stress.run ~seed:9 ~trials:6 () in
  Alcotest.(check int) "same optimal claims" a.Audit.Stress.optimal_claims
    b.Audit.Stress.optimal_claims;
  Alcotest.(check int) "same differential runs" a.Audit.Stress.differential_runs
    b.Audit.Stress.differential_runs

(* ---------- the one MINLP dispatch ---------- *)

let test_unified_minlp_agree () =
  let p = Audit.Instances.generate ~seed:21 in
  let objs =
    List.map
      (fun choice ->
        let name = Engine.Solver_choice.to_string choice in
        let sol, cert = Minlp.Solver.run choice p in
        if not (Minlp.Solution.has_incumbent sol) then
          Alcotest.failf "%s solve failed: %s" name
            (Minlp.Solution.status_to_string sol.Minlp.Solution.status);
        Alcotest.(check string) "certificate names the solver" name
          cert.Engine.Certificate.producer;
        (match Audit.check_minlp p cert with
        | Ok () -> ()
        | Error _ as v -> Alcotest.failf "%s certificate rejected: %s" name (Audit.summary v));
        sol.Minlp.Solution.obj)
      Engine.Solver_choice.minlp
  in
  let close a b = Float.abs (a -. b) <= 0.01 *. (1. +. Float.abs a) in
  List.iter
    (fun obj -> Alcotest.(check bool) "solvers agree" true (close (List.hd objs) obj))
    objs

(* ---------- allocations, audited from their specs ---------- *)

let exact_specs = Hslb.Model_store.specs_of_csv "alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2"

(* the solve of [specs] at [n_total] and its certificate *)
let solved_cert ?(objective = Hslb.Objective.Min_max) ?(specs = exact_specs) n_total =
  match Hslb.Alloc_model.solve ~objective ~n_total specs with
  | Error st -> Alcotest.failf "solve: %s" (Minlp.Solution.status_to_string st)
  | Ok a -> (a, Option.get a.Hslb.Alloc_model.certificate)

let check_summary ?(objective = Hslb.Objective.Min_max) ?(specs = exact_specs) ~n_total what
    expected cert =
  Alcotest.(check string) what expected
    (Audit.summary (Audit.check_allocation ~objective ~n_total specs cert))

let with_sides (cert : Engine.Certificate.t) f =
  match cert.Engine.Certificate.evidence with
  | Engine.Certificate.Threshold sides ->
    let sides = Array.copy sides in
    f sides;
    { cert with Engine.Certificate.evidence = Engine.Certificate.Threshold sides }
  | e -> Alcotest.failf "not threshold evidence: %s" (Engine.Certificate.evidence_to_string e)

let with_witness (cert : Engine.Certificate.t) w =
  { cert with Engine.Certificate.witness = Some (Array.map float_of_int w) }

(* 32 nodes: alpha 6 (binding, 17.172667) and beta 4 fill the budget;
   alpha first beats T* at 7, beta at 3, and 4*7 + 2*3 > 32 *)
let test_threshold_corruptions () =
  let n_total = 32 in
  let a, cert = solved_cert n_total in
  Alcotest.(check (array int)) "allocation" [| 6; 4 |] a.Hslb.Alloc_model.nodes_per_task;
  Alcotest.(check string) "evidence" "threshold (7, 3)"
    (Engine.Certificate.evidence_to_string cert.Engine.Certificate.evidence);
  Alcotest.(check (option (array (float 0.)))) "witness in nodes per task"
    (Some [| 6.; 4. |]) cert.Engine.Certificate.witness;
  let check = check_summary ~n_total in
  check "pristine" "ok" cert;
  let t_star f =
    let t = cert.Engine.Certificate.claimed_obj *. f in
    { cert with Engine.Certificate.claimed_obj = t; claimed_bound = t }
  in
  check "T* raised"
    "claimed objective 17.1744, model evaluates 17.1727; threshold: class alpha already beats \
     T* at size 6, under its below size 7"
    (t_star (1. +. 1e-4));
  check "T* lowered" "claimed objective 17.1709, model evaluates 17.1727" (t_star (1. -. 1e-4));
  check "below raised"
    "threshold: class beta already beats T* at size 3, under its below size 4"
    (with_sides cert (fun s -> s.(1) <- Engine.Certificate.Below 4));
  check "below lowered" "threshold: class alpha does not beat T* at its below size 6"
    (with_sides cert (fun s -> s.(0) <- Engine.Certificate.Below 6));
  (* 4*7 + 2*3 = 34: on 34 nodes the below sizes fit, so they prove
     nothing *)
  check_summary ~n_total:34 "below sizes fit a larger budget"
    "threshold: the below sizes fit the budget of 34 nodes" cert;
  check "witness size lowered" "claimed objective 17.1727, model evaluates 20.505"
    (with_witness cert [| 5; 4 |]);
  check "witness over budget" "constraint budget violated by 2" (with_witness cert [| 6; 5 |]);
  check "witness of the wrong length" "witness has 3 variables, model has 2"
    (with_witness cert [| 6; 4; 1 |]);
  (* a size off its box is not counted against the budget *)
  check "witness outside its box" "x.(1) = 40 outside [1, 32]" (with_witness cert [| 6; 40 |]);
  check "evidence swapped for exact-method"
    "exact-method evidence on a min-max allocation, whose optimum has a threshold witness"
    { cert with Engine.Certificate.evidence = Engine.Certificate.Exact_method "bisection" };
  (* the MINLP checker re-checks no threshold: lifted into the model's
     variables, the witness passes and the evidence does not *)
  let problem, _, lift =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total exact_specs
  in
  Alcotest.(check string) "threshold evidence handed to check_minlp"
    "threshold evidence is in nodes per task: the allocation's specs re-check it"
    (Audit.summary
       (Audit.check_minlp problem
          {
            cert with
            Engine.Certificate.witness = Some (lift a.Hslb.Alloc_model.nodes_per_task);
          }))

(* sweet spots: a below size must be a sweet spot, and the sweet spot
   under it must not beat T* *)
let test_threshold_sweet_spots () =
  let n_total = 32 in
  let specs =
    Hslb.Model_store.specs_of_csv ~allowed:[ 2; 3; 5; 8; 12 ]
      "alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2"
  in
  let a, cert = solved_cert ~specs n_total in
  Alcotest.(check (array int)) "allocation" [| 5; 5 |] a.Hslb.Alloc_model.nodes_per_task;
  Alcotest.(check string) "evidence" "threshold (8, 3)"
    (Engine.Certificate.evidence_to_string cert.Engine.Certificate.evidence);
  let check = check_summary ~specs ~n_total in
  check "pristine" "ok" cert;
  check "below not a sweet spot" "threshold: class alpha: below size 7 is not admissible"
    (with_sides cert (fun s -> s.(0) <- Engine.Certificate.Below 7));
  check "previous sweet spot beats T*"
    "threshold: class beta already beats T* at size 3, under its below size 5"
    (with_sides cert (fun s -> s.(1) <- Engine.Certificate.Below 5));
  check "witness not a sweet spot"
    "x.(1) = 4 is not one of its class's sweet spots"
    (with_witness cert [| 5; 4 |])

(* a million nodes: alpha bottoms out at 316 nodes, so its floor is the
   proof and neighbouring sizes are not minimizers *)
let test_threshold_floor () =
  let n_total = 1_000_000 in
  let a, cert = solved_cert n_total in
  Alcotest.(check (array int)) "allocation" [| 316; 224 |] a.Hslb.Alloc_model.nodes_per_task;
  Alcotest.(check string) "evidence" "threshold (floor 316, 58)"
    (Engine.Certificate.evidence_to_string cert.Engine.Certificate.evidence);
  let check = check_summary ~n_total in
  check "pristine" "ok" cert;
  check "floor raised"
    "threshold: class alpha reads lower at size 316 than at its floor size 317"
    (with_sides cert (fun s -> s.(0) <- Engine.Certificate.Floor 317));
  check "floor on a beaten size" "threshold: class beta beats T* at its floor size 58"
    (with_sides cert (fun s -> s.(1) <- Engine.Certificate.Floor 58))

let test_threshold_refusals () =
  let bad = { Scaling_law.a = 100.; b = -0.001; c = 1.; d = 0.5 } in
  let cls = Hslb.Classes.make ~name:"bad" ~count:1 (fun ~nodes -> Scaling_law.eval_int bad nodes) in
  let spec =
    Hslb.Alloc_model.spec_of
      { Hslb.Classes.cls; fit = { Hslb.Fitting.law = bad; r2 = 1.; rmse = 0.; observations = [||] } }
  in
  Alcotest.check_raises "non-convex law"
    (Invalid_argument
       "Alloc_model.solve: solver exact needs convex laws; class bad has a negative coefficient")
    (fun () -> ignore (Hslb.Alloc_model.solve ~n_total:8 [ spec ]));
  (* the checker takes no convexity on trust: a floor proves nothing on
     a law with a negative coefficient *)
  let t = Scaling_law.eval_int bad 8 in
  check_summary ~specs:[ spec ] ~n_total:8 "non-convex law"
    "threshold: class bad has a negative law coefficient, so its time is not convex"
    (Engine.Certificate.make ~producer:"exact" ~claimed_status:Minlp.Solution.Optimal
       ~witness:[| 8. |] ~claimed_obj:t ~claimed_bound:t ~tol:1e-9
       ~evidence:(Engine.Certificate.Threshold [| Engine.Certificate.Floor 8 |])
       ());
  let problem, _, _ =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total:32 exact_specs
  in
  Alcotest.check_raises "minlp dispatch" (Invalid_argument Minlp.Solver.exact_refused)
    (fun () -> ignore (Minlp.Solver.run Engine.Solver_choice.Exact problem))

(* max-min claims the fastest class's time, min-sum the count-weighted
   total; both are checked for admissible sizes, budget and claimed
   objective, not for optimality *)
let test_exact_method_allocations () =
  let specs = Hslb.Model_store.specs_of_csv "A,2,20,0,1,0\nB,3,18,0,1,0" in
  let n_total = 8 in
  let a, cert = solved_cert ~objective:Hslb.Objective.Max_min ~specs n_total in
  Alcotest.(check (array int)) "max-min allocation" [| 2; 1 |]
    a.Hslb.Alloc_model.nodes_per_task;
  let check = check_summary ~objective:Hslb.Objective.Max_min ~specs ~n_total in
  check "max-min pristine" "ok" cert;
  check "max-min claims the makespan" "claimed objective 18, model evaluates 10"
    { cert with Engine.Certificate.claimed_obj = a.Hslb.Alloc_model.predicted_makespan };
  (* a size off its box has no time: no objective is evaluated *)
  check "max-min witness off its box" "x.(0) = 0 outside [1, 8]" (with_witness cert [| 0; 1 |]);
  let _, cert = solved_cert ~objective:Hslb.Objective.Min_sum ~specs n_total in
  let check = check_summary ~objective:Hslb.Objective.Min_sum ~specs ~n_total in
  check "min-sum pristine" "ok" cert;
  check "min-sum witness off its box" "x.(1) = 9 outside [1, 8]" (with_witness cert [| 2; 9 |]);
  check "threshold evidence on min-sum" "threshold evidence on a min-sum allocation"
    (with_sides
       { cert with Engine.Certificate.evidence = Engine.Certificate.Threshold [||] }
       ignore)

(* the budget is counted in ints: at 2^53 nodes a float sum of
   [2^53 - 1; 2] rounds down onto the budget and hides the one node
   it overdraws *)
let test_budget_in_ints () =
  let specs = Hslb.Model_store.specs_of_csv "A,1,20,0,1,0\nB,1,18,0,1,0" in
  let n_total = 1 lsl 53 in
  let _, cert = solved_cert ~objective:Hslb.Objective.Max_min ~specs n_total in
  let sizes = [| n_total - 1; 2 |] in
  let time c = Scaling_law.eval_int (List.nth specs c).Hslb.Alloc_model.fc.fit.law sizes.(c) in
  check_summary ~objective:Hslb.Objective.Max_min ~specs ~n_total "one node over 2^53"
    "constraint budget violated by 1"
    {
      (with_witness cert sizes) with
      Engine.Certificate.claimed_obj = Float.min (time 0) (time 1);
    }

let () =
  Alcotest.run "audit"
    [
      ( "checker",
        [
          Alcotest.test_case "pristine certificate passes" `Quick test_pristine_passes;
          Alcotest.test_case "fractional witness" `Quick test_mutation_not_integral;
          Alcotest.test_case "witness outside box" `Quick test_mutation_bound_violated;
          Alcotest.test_case "constraint violated" `Quick test_mutation_constraint_violated;
          Alcotest.test_case "objective claim" `Quick test_mutation_objective_claim;
          Alcotest.test_case "bound above incumbent" `Quick
            test_mutation_bound_above_incumbent;
          Alcotest.test_case "gap left open" `Quick test_mutation_gap_open;
          Alcotest.test_case "open branches" `Quick test_mutation_open_branches;
          Alcotest.test_case "evidence mismatch" `Quick test_mutation_evidence_mismatch;
          Alcotest.test_case "missing witness" `Quick test_mutation_missing_witness;
          Alcotest.test_case "witness dimension" `Quick test_mutation_witness_dimension;
          Alcotest.test_case "threshold corruptions" `Quick test_threshold_corruptions;
          Alcotest.test_case "threshold sweet spots" `Quick test_threshold_sweet_spots;
          Alcotest.test_case "threshold floor" `Quick test_threshold_floor;
          Alcotest.test_case "threshold refusals" `Quick test_threshold_refusals;
          Alcotest.test_case "exact-method allocations" `Quick test_exact_method_allocations;
          Alcotest.test_case "budget counted in ints" `Quick test_budget_in_ints;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "poll fuse deterministic and sticky" `Quick
            test_poll_fuse_deterministic;
          Alcotest.test_case "inspect does not charge the fuse" `Quick
            test_poll_fuse_inspect_does_not_charge;
          Alcotest.test_case "fused solve never claims optimal" `Quick
            test_fused_solve_not_optimal;
          Alcotest.test_case "mini stress sweep clean" `Quick test_stress_clean;
          Alcotest.test_case "stress sweep deterministic" `Quick test_stress_deterministic;
        ] );
      ( "unified api",
        [
          Alcotest.test_case "minlp solvers certified and agree" `Quick
            test_unified_minlp_agree;
        ] );
    ]
