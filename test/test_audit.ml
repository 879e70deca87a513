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

(* ---------- threshold evidence (the exact solver's witness) ---------- *)

let exact_specs = Hslb.Model_store.specs_of_csv "alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2"

(* the exact solve at [n_total], its certificate and the rebuilt model *)
let exact_cert n_total =
  match Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Exact ~n_total exact_specs with
  | Error st -> Alcotest.failf "exact solve: %s" (Minlp.Solution.status_to_string st)
  | Ok a ->
    let problem, _, _ =
      Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total exact_specs
    in
    (a, Option.get a.Hslb.Alloc_model.certificate, problem)

let check_summary what expected problem cert =
  Alcotest.(check string) what expected (Audit.summary (Audit.check_minlp problem cert))

let with_sides (cert : Engine.Certificate.t) f =
  match cert.Engine.Certificate.evidence with
  | Engine.Certificate.Threshold sides ->
    let sides = Array.copy sides in
    f sides;
    { cert with Engine.Certificate.evidence = Engine.Certificate.Threshold sides }
  | e -> Alcotest.failf "not threshold evidence: %s" (Engine.Certificate.evidence_to_string e)

(* 32 nodes: alpha 6 (binding, 17.172667) and beta 4 fill the budget;
   alpha first beats T* at 7, beta at 3, and 4*7 + 2*3 > 32 *)
let test_threshold_corruptions () =
  let a, cert, problem = exact_cert 32 in
  Alcotest.(check (array int)) "allocation" [| 6; 4 |] a.Hslb.Alloc_model.nodes_per_task;
  Alcotest.(check string) "evidence" "threshold (7, 3)"
    (Engine.Certificate.evidence_to_string cert.Engine.Certificate.evidence);
  check_summary "pristine" "ok" problem cert;
  let x = witness cert in
  (* T* moved with the witness's T, so objective and feasibility agree *)
  let t_star f =
    let x = Array.copy x in
    x.(0) <- x.(0) *. f;
    { cert with Engine.Certificate.witness = Some x; claimed_obj = x.(0); claimed_bound = x.(0) }
  in
  check_summary "T* raised"
    "threshold: row time_alpha already beats T* at size 6, under its below size 7" problem
    (t_star (1. +. 1e-4));
  check_summary "T* lowered" "constraint time_alpha violated by 0.00171727" problem
    (t_star (1. -. 1e-4));
  check_summary "below raised"
    "threshold: row time_beta already beats T* at size 3, under its below size 4" problem
    (with_sides cert (fun s -> s.(1) <- Engine.Certificate.Below 4));
  check_summary "below lowered" "threshold: row time_alpha does not beat T* at its below size 6"
    problem
    (with_sides cert (fun s -> s.(0) <- Engine.Certificate.Below 6));
  let x' = Array.copy x in
  x'.(1) <- 5.;
  check_summary "lifted n_alpha lowered" "constraint time_alpha violated by 3.33233" problem
    { cert with Engine.Certificate.witness = Some x' };
  check_summary "evidence swapped for exact-method"
    "exact-method evidence names nothing the model can re-check" problem
    { cert with Engine.Certificate.evidence = Engine.Certificate.Exact_method "bisection" };
  (* the same model with alpha's a*n^-c term negated: concave in n, so
     its sides prove nothing *)
  let concave =
    let open Minlp.Problem in
    let b = Builder.create () in
    Array.iteri
      (fun j kind ->
        let lo = problem.lo.(j) and hi = problem.hi.(j) in
        ignore (Builder.add_var b ~name:problem.names.(j) ~lo ~hi kind : int))
      problem.kinds;
    Builder.set_objective b problem.objective;
    List.iter
      (fun (c : constr) ->
        let negate = function
          | Minlp.Expr.Mul (Const a, (Pow _ as q)) -> Minlp.Expr.Mul (Const (-.a), q)
          | e -> e
        in
        let expr =
          match c.expr with
          | Minlp.Expr.Add es when c.cname = "time_alpha" -> Minlp.Expr.Add (List.map negate es)
          | e -> e
        in
        Builder.add_constr b ~name:c.cname expr c.sense c.rhs)
      problem.constraints;
    List.iter (Builder.add_sos1 b) problem.sos1;
    Builder.build b
  in
  check_summary "concave time row"
    "threshold: row time_alpha is not a*n^-c + b*n + d - T with a, b, c, d >= 0" concave cert

(* a million nodes: alpha bottoms out at 316 nodes, so its floor is the
   proof and neighbouring sizes are not minimizers *)
let test_threshold_floor () =
  let a, cert, problem = exact_cert 1_000_000 in
  Alcotest.(check (array int)) "allocation" [| 316; 224 |] a.Hslb.Alloc_model.nodes_per_task;
  Alcotest.(check string) "evidence" "threshold (floor 316, 58)"
    (Engine.Certificate.evidence_to_string cert.Engine.Certificate.evidence);
  check_summary "pristine" "ok" problem cert;
  check_summary "floor raised"
    "threshold: row time_alpha reads lower at size 316 than at its floor size 317" problem
    (with_sides cert (fun s -> s.(0) <- Engine.Certificate.Floor 317));
  check_summary "floor on a beaten size" "threshold: row time_beta beats T* at its floor size 58"
    problem
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
  let problem, _, _ =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total:32 exact_specs
  in
  Alcotest.check_raises "minlp dispatch" (Invalid_argument Minlp.Solver.exact_refused)
    (fun () -> ignore (Minlp.Solver.run Engine.Solver_choice.Exact problem))

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
          Alcotest.test_case "threshold floor" `Quick test_threshold_floor;
          Alcotest.test_case "threshold refusals" `Quick test_threshold_refusals;
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
