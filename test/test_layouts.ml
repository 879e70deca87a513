(* Tests for the component-layout extension (CESM-style models). *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

open Layouts

let fitted_inputs ?(noise = 0.0) resolution =
  let rng = Numerics.Rng.create 11 in
  let classes = Cesm_data.benchmark_classes ~rng ~noise resolution in
  let sizes = Hslb.Fitting.recommended_sizes ~n_min:8 ~n_max:2048 ~points:6 in
  let fits = Hslb.Classes.gather_and_fit ~rng ~sizes ~reps:1 classes in
  let comp name =
    Component.of_fit ~name
      (List.find (fun (fc : Hslb.Classes.fitted) -> fc.Hslb.Classes.cls.Hslb.Classes.name = name) fits)
        .Hslb.Classes.fit
  in
  { Layout_model.ice = comp "ice"; lnd = comp "lnd"; atm = comp "atm"; ocn = comp "ocn" }

let solve_ok layout config inputs =
  match Layout_model.solve layout config inputs with
  | Ok a -> a
  | Error st ->
    Alcotest.failf "layout solve failed: %s" (Minlp.Solution.status_to_string st)

let test_layout_total_formulas () =
  check_float "hybrid"
    (Float.max (Float.max 3. 2. +. 5.) 7.)
    (Layout_model.layout_total Layout_model.Hybrid ~ice:3. ~lnd:2. ~atm:5. ~ocn:7.);
  check_float "seq group" 10.
    (Layout_model.layout_total Layout_model.Sequential_group ~ice:3. ~lnd:2. ~atm:5. ~ocn:7.);
  check_float "fully seq" 17.
    (Layout_model.layout_total Layout_model.Fully_sequential ~ice:3. ~lnd:2. ~atm:5. ~ocn:7.)

let test_hybrid_respects_constraints () =
  let inputs = fitted_inputs Cesm_data.Deg1 in
  let config = Layout_model.default_config ~n_total:128 in
  let a = solve_ok Layout_model.Hybrid config inputs in
  let nodes name = List.assoc name a.Layout_model.nodes in
  Alcotest.(check bool) "ice+lnd<=atm" true (nodes "ice" + nodes "lnd" <= nodes "atm");
  Alcotest.(check bool) "atm+ocn<=N" true (nodes "atm" + nodes "ocn" <= 128);
  Alcotest.(check bool) "total positive" true (a.Layout_model.total > 0.)

let test_ocean_sweet_spots_respected () =
  let inputs = fitted_inputs Cesm_data.Deg1 in
  let spots = Cesm_data.ocean_sweet_spots Cesm_data.Deg1 in
  let config =
    { (Layout_model.default_config ~n_total:128) with Layout_model.ocn_allowed = Some spots }
  in
  let a = solve_ok Layout_model.Hybrid config inputs in
  let ocn = List.assoc "ocn" a.Layout_model.nodes in
  Alcotest.(check bool) "ocn at sweet spot" true (List.mem ocn spots)

let test_layout_ranking () =
  (* the published comparison: layouts 1 and 2 similar, layout 3 worst *)
  let inputs = fitted_inputs Cesm_data.Deg1 in
  let config = Layout_model.default_config ~n_total:256 in
  let total l = (solve_ok l config inputs).Layout_model.total in
  let t1 = total Layout_model.Hybrid in
  let t2 = total Layout_model.Sequential_group in
  let t3 = total Layout_model.Fully_sequential in
  Alcotest.(check bool) "hybrid best" true (t1 <= t2 +. 1e-6);
  Alcotest.(check bool) "fully sequential worst" true (t3 > t1 && t3 > t2)

let test_unconstrained_ocean_helps () =
  (* lifting a restrictive sweet-spot list can only improve the optimum
     (the paper's headline 1/8° result) *)
  let inputs = fitted_inputs Cesm_data.Deg1 in
  let restricted =
    {
      (Layout_model.default_config ~n_total:512) with
      Layout_model.ocn_allowed = Some [ 16; 32 ];
    }
  in
  let free = Layout_model.default_config ~n_total:512 in
  let tr = (solve_ok Layout_model.Hybrid restricted inputs).Layout_model.total in
  let tf = (solve_ok Layout_model.Hybrid free inputs).Layout_model.total in
  Alcotest.(check bool) "free <= restricted" true (tf <= tr +. 1e-6)

let test_solution_beats_manual_baseline () =
  let inputs = fitted_inputs Cesm_data.Deg1 in
  let n_total = 128 in
  let config = Layout_model.default_config ~n_total in
  let a = solve_ok Layout_model.Hybrid config inputs in
  (* manual expert allocation evaluated under the same fitted curves *)
  let mi, ml, ma, mo = Cesm_data.manual_allocation Cesm_data.Deg1 ~n_total in
  let t c n = Component.time c n in
  let manual_total =
    Layout_model.layout_total Layout_model.Hybrid ~ice:(t inputs.Layout_model.ice mi)
      ~lnd:(t inputs.Layout_model.lnd ml) ~atm:(t inputs.Layout_model.atm ma)
      ~ocn:(t inputs.Layout_model.ocn mo)
  in
  Alcotest.(check bool) "hslb <= manual" true (a.Layout_model.total <= manual_total +. 1e-6)

let test_predict_scaling_monotone () =
  let inputs = fitted_inputs Cesm_data.Deg1 in
  let config = Layout_model.default_config ~n_total:64 in
  let pts =
    Layout_model.predict_scaling Layout_model.Hybrid config inputs ~node_counts:[ 64; 256; 1024 ]
  in
  match pts with
  | [ (_, t64); (_, t256); (_, t1024) ] ->
    Alcotest.(check bool) "more nodes faster" true (t256 < t64 && t1024 < t256)
  | _ -> Alcotest.fail "expected three points"

let test_tsync_uses_bnb_and_tightens () =
  let inputs = fitted_inputs Cesm_data.Deg1 in
  let base = Layout_model.default_config ~n_total:128 in
  let with_sync = { base with Layout_model.tsync = Some 5. } in
  let a = solve_ok Layout_model.Hybrid with_sync inputs in
  let t name = List.assoc name a.Layout_model.times in
  (* the constraint |T_lnd - T_ice| <= tsync holds at the solution *)
  Alcotest.(check bool) "tsync satisfied" true (Float.abs (t "lnd" -. t "ice") <= 5. +. 0.5);
  (* and the optimum cannot be better than without it *)
  let b = solve_ok Layout_model.Hybrid base inputs in
  Alcotest.(check bool) "no better than unconstrained" true
    (a.Layout_model.total >= b.Layout_model.total -. 1e-6)

(* every solver's certificate names it and passes the independent
   checker against the layout's own problem *)
let test_every_solver_certified () =
  let inputs = fitted_inputs Cesm_data.Deg1 in
  List.iter
    (fun solver ->
      let name = Engine.Solver_choice.to_string solver in
      let config = { (Layout_model.default_config ~n_total:128) with Layout_model.solver } in
      let a = solve_ok Layout_model.Sequential_group config inputs in
      let problem, _ = Layout_model.build Layout_model.Sequential_group config inputs in
      match a.Layout_model.certificate with
      | None -> Alcotest.failf "%s: no certificate" name
      | Some cert -> (
        Alcotest.(check string) "certificate names the solver" name
          cert.Engine.Certificate.producer;
        match Audit.check_minlp problem cert with
        | Ok () -> ()
        | Error _ as v -> Alcotest.failf "%s certificate rejected: %s" name (Audit.summary v)))
    Engine.Solver_choice.minlp

(* ---------- Cesm_data ---------- *)

let test_truth_magnitudes () =
  (* ground truth reproduces the published reference points *)
  let _, _, atm, ocn = Cesm_data.truth Cesm_data.Deg1 ~ice:() in
  check_float ~eps:0.05 "atm(104)" 307. (Scaling_law.eval_int atm 104);
  check_float ~eps:0.05 "ocn(24)" 363. (Scaling_law.eval_int ocn 24);
  let _, _, _, ocn8 = Cesm_data.truth Cesm_data.Deg1_8 ~ice:() in
  check_float ~eps:0.05 "ocn 1/8 (2356)" 3785. (Scaling_law.eval_int ocn8 2356);
  check_float ~eps:0.05 "ocn 1/8 unconstrained (9812)" 1129. (Scaling_law.eval_int ocn8 9812)

let test_manual_allocations_feasible () =
  List.iter
    (fun (res, n_total) ->
      let i, l, a, o = Cesm_data.manual_allocation res ~n_total in
      Alcotest.(check bool) "ice+lnd<=atm" true (i + l <= a + 1);
      Alcotest.(check bool) "atm+ocn<=N" true (a + o <= n_total);
      Alcotest.(check bool) "all positive" true (i > 0 && l > 0 && a > 0 && o > 0))
    [ (Cesm_data.Deg1, 128); (Cesm_data.Deg1, 2048); (Cesm_data.Deg1_8, 8192);
      (Cesm_data.Deg1_8, 32768) ]

let test_ice_noisier () =
  let rng = Numerics.Rng.create 3 in
  let samples which =
    Array.init 500 (fun _ ->
        Cesm_data.simulate_component ~rng ~noise:0.05 Cesm_data.Deg1 which ~nodes:64)
  in
  let cv a = Numerics.Stats.stddev a /. Numerics.Stats.mean a in
  Alcotest.(check bool) "ice cv larger" true (cv (samples "ice") > 1.5 *. cv (samples "lnd"))

let test_simulate_unknown_component () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Cesm_data.simulate_component ~rng:(Numerics.Rng.create 1) Cesm_data.Deg1 "cpl" ~nodes:4);
       false
     with Invalid_argument _ -> true)

let prop_solver_beats_random_feasible =
  QCheck.Test.make ~name:"hybrid solution dominates random feasible allocations" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inputs = fitted_inputs Cesm_data.Deg1 in
      let n_total = 128 in
      let config = Layout_model.default_config ~n_total in
      let a = solve_ok Layout_model.Hybrid config inputs in
      let rng = Numerics.Rng.create seed in
      (* random feasible point: pick ocn, atm = rest, split atm pool *)
      let ocn = 1 + Numerics.Rng.int rng (n_total - 2) in
      let atm = n_total - ocn in
      let ice = 1 + Numerics.Rng.int rng (Stdlib.max 1 (atm - 1)) in
      let lnd = Stdlib.max 1 (atm - ice) in
      if ice + lnd > atm then true (* skip infeasible draw *)
      else begin
        let t c n = Component.time c n in
        let total =
          Layout_model.layout_total Layout_model.Hybrid
            ~ice:(t inputs.Layout_model.ice ice)
            ~lnd:(t inputs.Layout_model.lnd lnd)
            ~atm:(t inputs.Layout_model.atm atm)
            ~ocn:(t inputs.Layout_model.ocn ocn)
        in
        a.Layout_model.total <= total +. 1e-6
      end)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_solver_beats_random_feasible ] in
  Alcotest.run "layouts"
    [
      ( "layout_model",
        [
          Alcotest.test_case "total formulas" `Quick test_layout_total_formulas;
          Alcotest.test_case "hybrid constraints" `Quick test_hybrid_respects_constraints;
          Alcotest.test_case "ocean sweet spots" `Quick test_ocean_sweet_spots_respected;
          Alcotest.test_case "layout ranking" `Quick test_layout_ranking;
          Alcotest.test_case "unconstrained ocean" `Quick test_unconstrained_ocean_helps;
          Alcotest.test_case "beats manual" `Quick test_solution_beats_manual_baseline;
          Alcotest.test_case "scaling prediction" `Quick test_predict_scaling_monotone;
          Alcotest.test_case "tsync" `Slow test_tsync_uses_bnb_and_tightens;
          Alcotest.test_case "every solver certified" `Quick test_every_solver_certified;
        ] );
      ( "cesm_data",
        [
          Alcotest.test_case "truth magnitudes" `Quick test_truth_magnitudes;
          Alcotest.test_case "manual feasible" `Quick test_manual_allocations_feasible;
          Alcotest.test_case "ice noisier" `Quick test_ice_noisier;
          Alcotest.test_case "unknown component" `Quick test_simulate_unknown_component;
        ] );
      ("properties", qsuite);
    ]
