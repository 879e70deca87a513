(* Arena tests: scenario-generator determinism (same seed → equal
   scenarios; phase content independent of phase count, the two-pass
   split property), balancer determinism and adaptivity, the regret
   matrix's shape and winner rule, and the default zoo's winners. *)

open Arena

let gen ?phases ?tasks_per_phase cls seed =
  Scenario.generate ?phases ?tasks_per_phase ~groups:4 ~nodes_per_group:2 cls ~seed

(* ---------- scenario generator ---------- *)

let test_class_strings () =
  List.iter
    (fun c ->
      match Scenario.class_of_string (Scenario.class_to_string c) with
      | Ok c' when c' = c -> ()
      | Ok _ -> Alcotest.failf "round-trip mismatch for %s" (Scenario.class_to_string c)
      | Error e -> Alcotest.fail e)
    Scenario.all_classes;
  match Scenario.class_of_string "warp" with
  | Ok _ -> Alcotest.fail "bogus class accepted"
  | Error e ->
    Alcotest.(check string)
      "diagnostic lists valid names"
      "unknown scenario class \"warp\" (expected steady | bursty | multi-tenant | \
       heavy-tailed | drifting | failure)"
      e

let test_same_seed_identical () =
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Scenario.class_to_string cls ^ " identical")
        true
        (gen cls 7 = gen cls 7))
    Scenario.all_classes

let test_different_seed_differs () =
  (* the names differ with the seed too; compare the drawn phases *)
  let phases seed = (gen Scenario.Steady seed).Scenario.phases in
  if phases 7 = phases 8 then Alcotest.fail "distinct seeds produced identical traces"

(* the E9 two-pass split convention: phase i's stream is split from the
   root before any phase is filled, so its content depends only on
   (seed, i) for phase-independent classes — a 4-phase trace is a
   prefix of an 8-phase one *)
let prop_prefix_stable =
  QCheck.Test.make ~name:"phase streams are prefix-stable across phase counts"
    ~count:50
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, p) ->
      List.for_all
        (fun cls ->
          let short = gen ~phases:p cls seed in
          let long = gen ~phases:(p + 3) cls seed in
          Array.for_all2
            (fun (a : Scenario.phase) (b : Scenario.phase) ->
              a.Scenario.costs = b.Scenario.costs)
            short.Scenario.phases
            (Array.sub long.Scenario.phases 0 p))
        [ Scenario.Steady; Scenario.Bursty; Scenario.Heavy_tailed ])

let prop_split_independent =
  QCheck.Test.make ~name:"adjacent seeds give uncorrelated phase draws" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let a = gen Scenario.Steady seed and b = gen Scenario.Steady (seed + 1) in
      a.Scenario.phases.(0).Scenario.costs <> b.Scenario.phases.(0).Scenario.costs)

(* ---------- balancers ---------- *)

let test_balancer_determinism () =
  List.iter
    (fun b ->
      let sc = gen Scenario.Drifting 13 in
      let a = Balancer.run sc b and c = Balancer.run sc b in
      Alcotest.(check (float 0.))
        (Balancer.name b ^ " deterministic") a.Balancer.total_makespan
        c.Balancer.total_makespan)
    Balancer.all

let test_balancer_names () =
  List.iter
    (fun b ->
      match Balancer.of_name (Balancer.name b) with
      | Ok b' when b' = b -> ()
      | Ok _ | Error _ -> Alcotest.failf "of_name failed for %s" (Balancer.name b))
    Balancer.all;
  match Balancer.of_name "quantum" with
  | Ok _ -> Alcotest.fail "bogus balancer accepted"
  | Error e ->
    Alcotest.(check string) "diagnostic"
      "unknown balancer \"quantum\" (expected dynamic | static | stealing | hybrid | \
       diffusive)"
      e

let test_hybrid_adapts_on_drift () =
  (* the tentpole claim, in miniature: on drifting group speeds the
     stale static map loses to hybrid periodic rebalance *)
  let sc = Scenario.generate ~groups:8 ~nodes_per_group:4 Scenario.Drifting ~seed:42 in
  let static = Balancer.run sc Balancer.Static_lpt in
  let hybrid = Balancer.run sc (Balancer.Hybrid { interval = 2; start = 1 }) in
  if hybrid.Balancer.total_makespan >= static.Balancer.total_makespan then
    Alcotest.failf "hybrid (%.3f) did not beat static (%.3f) on drifting load"
      hybrid.Balancer.total_makespan static.Balancer.total_makespan

let test_zero_task_phase_handled () =
  (* hand-build a trace with an empty phase: every balancer must cope *)
  let sc = gen Scenario.Steady 5 in
  let phases = Array.copy sc.Scenario.phases in
  phases.(1) <-
    { Scenario.costs = [||]; speed = Array.make 4 1.0; gap_s = 0.5 };
  let sc = { sc with Scenario.phases = phases } in
  List.iter
    (fun b ->
      let o = Balancer.run sc b in
      Alcotest.(check (float 0.))
        (Balancer.name b ^ " empty phase costs nothing") 0.
        o.Balancer.phase_makespans.(1))
    (List.filter (fun b -> b <> Balancer.Hybrid { interval = 2; start = 1 }) Balancer.all);
  (* hybrid still charges its rebalance fee on the empty phase *)
  let o = Balancer.run sc (Balancer.Hybrid { interval = 2; start = 1 }) in
  Alcotest.(check bool) "hybrid empty phase only pays rebalance" true
    (o.Balancer.phase_makespans.(1) < 0.1)

(* ---------- race matrix ---------- *)

let quick_race () =
  Race.run ~phases:4 ~tasks_per_phase:16 ~groups:4 ~nodes_per_group:2 ~seed:42
    [ Scenario.Steady; Scenario.Drifting; Scenario.Failure ]

let test_race_matrix_shape () =
  let race = quick_race () in
  Alcotest.(check int) "one row per class" 3 (List.length race.Race.rows);
  Alcotest.(check (list string))
    "five schedulers"
    [ "dynamic"; "static"; "stealing"; "hybrid"; "diffusive" ]
    race.Race.schedulers;
  List.iter
    (fun (r : Race.row) ->
      Alcotest.(check int)
        (r.Race.scenario ^ " complete row")
        (List.length race.Race.schedulers)
        (List.length r.Race.cells);
      (* dynamic is the regret baseline: exactly zero by construction *)
      let dyn = List.find (fun (c : Race.cell) -> c.Race.scheduler = "dynamic") r.Race.cells in
      Alcotest.(check (float 1e-12)) "dynamic regret 0" 0. dyn.Race.regret_vs_dynamic;
      (* the winner is the argmin of the row *)
      List.iter
        (fun (c : Race.cell) ->
          let w =
            List.find (fun (c : Race.cell) -> c.Race.scheduler = r.Race.winner) r.Race.cells
          in
          if c.Race.regret_vs_dynamic < w.Race.regret_vs_dynamic -. 1e-12 then
            Alcotest.failf "%s: %s (%.4f) beats declared winner %s (%.4f)" r.Race.scenario
              c.Race.scheduler c.Race.regret_vs_dynamic r.Race.winner
              w.Race.regret_vs_dynamic)
        r.Race.cells)
    race.Race.rows

let test_race_json_roundtrip () =
  let race = quick_race () in
  let j = Race.to_json race in
  match Race.of_json j with
  | Error e -> Alcotest.fail e
  | Ok race' ->
    Alcotest.(check string) "round-trip identical" (Serve.Json.to_string j)
      (Serve.Json.to_string (Race.to_json race'))

let test_default_zoo_winners () =
  (* the winners E13 reports for the default zoo (seed 42, every class,
     default dimensions), pinned so they cannot drift silently when the
     balancers change *)
  let race = Race.run ~seed:42 Scenario.all_classes in
  Alcotest.(check (list (pair string string)))
    "class -> winner"
    [
      ("steady", "static");
      ("bursty", "static");
      ("multi-tenant", "static");
      ("heavy-tailed", "static");
      ("drifting", "hybrid");
      ("failure", "stealing");
    ]
    (List.map
       (fun (r : Race.row) -> (Scenario.class_to_string r.Race.cls, r.Race.winner))
       race.Race.rows)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_prefix_stable; prop_split_independent ]
  in
  Alcotest.run "arena"
    [
      ( "scenario",
        [
          Alcotest.test_case "class strings" `Quick test_class_strings;
          Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
          Alcotest.test_case "different seed differs" `Quick test_different_seed_differs;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "deterministic" `Quick test_balancer_determinism;
          Alcotest.test_case "names" `Quick test_balancer_names;
          Alcotest.test_case "hybrid adapts on drift" `Quick test_hybrid_adapts_on_drift;
          Alcotest.test_case "zero-task phase" `Quick test_zero_task_phase_handled;
        ] );
      ( "race",
        [
          Alcotest.test_case "matrix shape" `Quick test_race_matrix_shape;
          Alcotest.test_case "json round-trip" `Quick test_race_json_roundtrip;
          Alcotest.test_case "default zoo winners pinned" `Slow test_default_zoo_winners;
        ] );
      ("properties", qsuite);
    ]
