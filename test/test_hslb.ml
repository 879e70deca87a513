(* Tests for the HSLB core: fitting, task classes, allocation models,
   objectives, and the FMO application pipeline. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* ---------- Fitting ---------- *)

let observations_of law ns =
  Array.of_list (List.map (fun n -> (float_of_int n, Scaling_law.eval_int law n)) ns)

(* a law's coefficients (a, b, c, d) and their bits *)
let coeffs (l : Scaling_law.t) = [| l.a; l.b; l.c; l.d |]
let law_bits l = Array.map Int64.bits_of_float (coeffs l)

let test_fit_recovers_noiseless () =
  let truth = Scaling_law.make ~a:120. ~b:0.001 ~c:0.9 ~d:2. in
  let obs = observations_of truth [ 1; 2; 4; 8; 16; 32; 64 ] in
  let fit = Hslb.Fitting.fit_observations obs in
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
    (fun () -> ignore (Hslb.Fitting.fit_observations [| (4., 10.); (4., 10.1) |]))

let test_fit_rejects_unweighable () =
  (* a relative residual divides by the time: a zero or non-finite time,
     or a node count below 1, has no weight, and the message names the
     offending pair *)
  List.iter
    (fun (pair, shown) ->
      Alcotest.check_raises shown
        (Invalid_argument
           (Printf.sprintf
              "Fitting.fit_observations: invalid observation %s: nodes must be finite and >= \
               1, seconds finite and > 0"
              shown))
        (fun () -> ignore (Hslb.Fitting.fit_observations [| (2., 50.); pair; (8., 12.) |])))
    [
      ((4., Float.nan), "(4, nan)");
      ((4., Float.infinity), "(4, inf)");
      ((4., 0.), "(4, 0)");
      ((0.5, 10.), "(0.5, 10)");
    ];
  (* finite, positive times 400 orders of magnitude apart: no float
     weighs the two residuals against each other (the fit answered the
     zero law, with R2 = nan) *)
  Alcotest.check_raises "times 1e-200 s to 1e200 s"
    (Invalid_argument
       "Fitting.fit_observations: times from 1e-200 s to 1e+200 s span too many orders of \
        magnitude to weigh their relative residuals")
    (fun () -> ignore (Hslb.Fitting.fit_observations [| (2., 1e-200); (4., 1e200) |]))

(* sum of squared relative residuals, the fit's objective *)
let ssr law obs =
  Array.fold_left
    (fun acc (n, y) ->
      let r = (Scaling_law.eval law n -. y) /. y in
      acc +. (r *. r))
    0. obs

let test_fit_pure () =
  let truth = Scaling_law.make ~a:200. ~b:0.004 ~c:0.95 ~d:1.5 in
  let obs =
    Array.mapi (fun i (n, y) -> (n, y *. (1. +. (0.03 *. float_of_int ((i mod 3) - 1)))))
      (observations_of truth [ 1; 2; 4; 8; 16; 32 ])
  in
  let bits f = law_bits f.Hslb.Fitting.law in
  let first = bits (Hslb.Fitting.fit_observations obs) in
  Alcotest.(check (array int64)) "same observations, same law" first
    (bits (Hslb.Fitting.fit_observations obs));
  Alcotest.(check (array int64)) "rng seed 1 changes nothing" first
    (bits (Hslb.Fitting.fit_observations ~rng:(Numerics.Rng.create 1) obs));
  Alcotest.(check (array int64)) "rng seed 2 changes nothing" first
    (bits (Hslb.Fitting.fit_observations ~rng:(Numerics.Rng.create 2) obs))

let test_fit_recovers_exactly () =
  let truth = Scaling_law.make ~a:200. ~b:1e-4 ~c:0.9137 ~d:0.3 in
  let fit = Hslb.Fitting.fit_observations (observations_of truth (List.init 13 (fun i -> 1 lsl i))) in
  let law = fit.Hslb.Fitting.law in
  if Float.abs (law.Scaling_law.c -. 0.9137) > 1e-6 then
    Alcotest.failf "c = %.12g, expected 0.9137 within 1e-6" law.Scaling_law.c;
  List.iter
    (fun (what, expected, got) ->
      if Float.abs (got -. expected) > 1e-5 *. expected then
        Alcotest.failf "%s = %.12g, expected %g within 1e-5 relative" what got expected)
    [ ("a", 200., law.Scaling_law.a); ("b", 1e-4, law.Scaling_law.b); ("d", 0.3, law.Scaling_law.d) ]

let test_fit_faces_and_degenerate_data () =
  (* each returns a law (Scaling_law.make checks it) and never raises *)
  let sizes = [ 1; 2; 4; 8; 16; 32 ] in
  let cases =
    [
      ("b = 0, d = 0, c = 2", observations_of (Scaling_law.make ~a:50. ~b:0. ~c:2. ~d:0.) sizes);
      ("c = 0", observations_of (Scaling_law.make ~a:5. ~b:0.01 ~c:0. ~d:1.) sizes);
      ("flat", Array.map (fun n -> (float_of_int n, 3.)) (Array.of_list sizes));
      ("two node counts", [| (1., 10.); (8., 2.) |]);
      ("two node counts, repeated", [| (1., 10.); (1., 11.); (8., 2.); (8., 2.2); (8., 1.9) |]);
    ]
  in
  List.iter
    (fun (what, obs) ->
      let fit = Hslb.Fitting.fit_observations obs in
      let law = fit.Hslb.Fitting.law in
      Alcotest.(check bool) (what ^ ": in the box") true
        (Scaling_law.is_convex law && law.Scaling_law.c <= 2.))
    cases;
  (* the exact laws are found exactly *)
  List.iter
    (fun (what, obs) ->
      let law = (Hslb.Fitting.fit_observations obs).Hslb.Fitting.law in
      if ssr law obs > 1e-20 then Alcotest.failf "%s: residual %g" what (ssr law obs))
    (List.filteri (fun i _ -> i < 3) cases)

let test_fit_lower_face_is_positive_zero () =
  (* b on its lower face is +0, never -0 (which prints as "-0.000e+00n") *)
  let obs = observations_of (Scaling_law.make ~a:120. ~b:0. ~c:0.9 ~d:2.) [ 1; 2; 4; 8; 16; 32; 64 ] in
  let b = (Hslb.Fitting.fit_observations obs).Hslb.Fitting.law.Scaling_law.b in
  Alcotest.(check bool) "b is +0" true (b = 0. && not (Float.sign_bit b))

(* relative residuals do not see the unit of time: times scaled by any
   power of two fit the law scaled by it, bit for bit, from 2^-700 s to
   2^700 s; and two times of 1e-200 s fit the flat law 1e-200 (a fit in
   seconds overflowed its Gram matrix there and answered 1e-200·n) *)
let test_fit_any_time_scale () =
  let truth = Scaling_law.make ~a:200. ~b:0.004 ~c:0.95 ~d:1.5 in
  let obs =
    Array.mapi (fun i (n, y) -> (n, y *. (1. +. (0.03 *. float_of_int ((i mod 3) - 1)))))
      (observations_of truth [ 1; 2; 4; 8; 16; 32 ])
  in
  let law = (Hslb.Fitting.fit_observations obs).Hslb.Fitting.law in
  List.iter
    (fun k ->
      let scaled = Array.map (fun (n, y) -> (n, Float.ldexp y k)) obs in
      let expected =
        Scaling_law.make ~a:(Float.ldexp law.Scaling_law.a k) ~b:(Float.ldexp law.Scaling_law.b k)
          ~c:law.Scaling_law.c ~d:(Float.ldexp law.Scaling_law.d k)
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "times x 2^%d" k)
        (law_bits expected)
        (law_bits (Hslb.Fitting.fit_observations scaled).Hslb.Fitting.law))
    [ -700; -300; -1; 1; 300; 700 ];
  let flat = (Hslb.Fitting.fit_observations [| (1., 1e-200); (2., 1e-200) |]).Hslb.Fitting.law in
  List.iter
    (fun n ->
      let t = Scaling_law.eval flat n in
      if Float.abs (t -. 1e-200) > 1e-12 *. 1e-200 then
        Alcotest.failf "flat 1e-200 law gives %g at %g nodes" t n)
    [ 1.; 2.; 64. ]

(* the projection against the multi-start Levenberg–Marquardt oracle
   (Lm_oracle) on seeded draws: a log-uniform in [1, 1e5]; b zero (30%)
   or log-uniform in [1e-6, 1e-2]; c uniform in [0.3, 1.5]; d zero
   (30%) or log-uniform in [1e-3, 10]; 2-9 geometric sizes up to 2^15
   nodes, 2 repetitions each, 5% noise. The fit's sum of squared
   relative residuals is never above the oracle's, up to rounding. *)
let test_fit_never_worse_than_oracle () =
  let draws = 2_000 in
  let strictly_better = ref 0 in
  for seed = 1 to draws do
    let rng = Numerics.Rng.create seed in
    let log_uniform lo hi = exp (Numerics.Rng.uniform rng ~lo:(log lo) ~hi:(log hi)) in
    let a = log_uniform 1. 1e5 in
    let b = if Numerics.Rng.float rng 1. < 0.3 then 0. else log_uniform 1e-6 1e-2 in
    let c = Numerics.Rng.uniform rng ~lo:0.3 ~hi:1.5 in
    let d = if Numerics.Rng.float rng 1. < 0.3 then 0. else log_uniform 1e-3 10. in
    let truth = Scaling_law.make ~a ~b ~c ~d in
    let points = 2 + Numerics.Rng.int rng 8 in
    let sizes = Hslb.Fitting.recommended_sizes ~n_min:1 ~n_max:32768 ~points in
    let obs =
      Array.of_list
        (List.concat_map
           (fun n ->
             List.init 2 (fun _ ->
                 ( float_of_int n,
                   Scaling_law.eval_int truth n *. Numerics.Rng.lognormal rng ~mu:0. ~sigma:0.05 )))
           sizes)
    in
    let mine = ssr (Hslb.Fitting.fit_observations obs).Hslb.Fitting.law obs in
    let oracle = ssr (Lm_oracle.fit_law ~rng obs) obs in
    if mine > (oracle *. (1. +. 1e-9)) +. 1e-15 then
      Alcotest.failf "seed %d: projection %.17g above the oracle's %.17g" seed mine oracle;
    if mine < oracle *. (1. -. 1e-9) then incr strictly_better
  done;
  Printf.printf "projection strictly better than the oracle on %d of %d draws\n" !strictly_better
    draws

let test_fit_nonneg_params () =
  (* even with noise pulling toward negative coefficients the fit stays
     in the box (the paper constrains a,b,c,d >= 0) *)
  let obs = [| (1., 10.); (2., 5.5); (4., 2.4); (8., 1.6); (16., 0.6) |] in
  let fit = Hslb.Fitting.fit_observations obs in
  let p = coeffs fit.Hslb.Fitting.law in
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

(* ---------- Fitting.update ---------- *)

(* a stale law, then samples of a 2x slower truth at five node counts:
   they pin all four coefficients, and the refit from them alone lands
   on the new curve *)
let test_online_tracks_drift () =
  let stale = Scaling_law.make ~a:100. ~b:0.001 ~c:1. ~d:0.5 in
  let truth = Scaling_law.make ~a:200. ~b:0.001 ~c:1. ~d:0.5 in
  let err law =
    List.fold_left
      (fun acc n ->
        let y = Scaling_law.eval_int truth n in
        Float.max acc (Float.abs (Scaling_law.eval_int law n -. y) /. y))
      0. [ 2; 4; 8; 16; 32 ]
  in
  let before = err stale in
  let after = err (Hslb.Fitting.update stale (observations_of truth [ 2; 4; 8; 16; 32 ])) in
  Alcotest.(check bool) "stale law starts far off" true (before > 0.3);
  Alcotest.(check bool)
    (Printf.sprintf "tracked the drifted law (%.4f -> %.4f)" before after)
    true
    (after < 0.02)

(* on finite, positive samples of any scale, at 1-8 node counts (both
   branches), against laws of any scale, update never raises *)
let test_online_any_scale () =
  for seed = 1 to 2_000 do
    let rng = Numerics.Rng.create seed in
    let log_uniform lo hi = exp (Numerics.Rng.uniform rng ~lo:(log lo) ~hi:(log hi)) in
    let law =
      Scaling_law.make ~a:(log_uniform 1e-3 1e6)
        ~b:(if Numerics.Rng.bool rng then 0. else log_uniform 1e-9 1.)
        ~c:(Numerics.Rng.uniform rng ~lo:0. ~hi:2.)
        ~d:(if Numerics.Rng.bool rng then 0. else log_uniform 1e-4 100.)
    in
    let samples =
      Array.init
        (1 + Numerics.Rng.int rng 8)
        (fun _ -> (float_of_int (1 + Numerics.Rng.int rng 100_000), log_uniform 1e-6 1e5))
    in
    match Hslb.Fitting.update law samples with
    | (_ : Scaling_law.t) -> ()
    | exception e -> Alcotest.failf "seed %d: %s" seed (Printexc.to_string e)
  done

(* a law in seconds, then samples of 1e-198/n s: at four node counts
   the refit runs in the samples' units; at one, the factor ~1e-199 is
   read off in logs *)
let test_online_tiny_times () =
  let law = Scaling_law.make ~a:100. ~b:0.001 ~c:1. ~d:0.5 in
  let truth n = 1e-198 /. n in
  let close what law ns =
    List.iter
      (fun n ->
        let r = (Scaling_law.eval law n -. truth n) /. truth n in
        if Float.abs r > 1e-9 then Alcotest.failf "%s, at %g nodes: relative error %g" what n r)
      ns
  in
  close "refit" (Hslb.Fitting.update law (Array.map (fun n -> (n, truth n)) [| 2.; 4.; 8.; 16. |]))
    [ 2.; 4.; 8.; 16. ];
  let one = Hslb.Fitting.update law [| (8., truth 8.) |] in
  close "rescale" one [ 8. ]

(* samples of s·law at 1-3 node counts, s from 1e-150 to 1e150: the
   rescale gives back s·law, with c bit for bit *)
let test_update_rescales () =
  for seed = 1 to 500 do
    let rng = Numerics.Rng.create seed in
    let log_uniform lo hi = exp (Numerics.Rng.uniform rng ~lo:(log lo) ~hi:(log hi)) in
    let law =
      Scaling_law.make ~a:(log_uniform 1. 1e5)
        ~b:(if Numerics.Rng.bool rng then 0. else log_uniform 1e-6 1e-2)
        ~c:(Numerics.Rng.uniform rng ~lo:0. ~hi:2.)
        ~d:(if Numerics.Rng.bool rng then 0. else log_uniform 1e-3 10.)
    in
    let s = log_uniform 1e-150 1e150 in
    let sizes = List.init (1 + Numerics.Rng.int rng 3) (fun k -> 1 lsl (k * (1 + Numerics.Rng.int rng 5))) in
    let samples =
      Array.of_list
        (List.concat_map
           (fun n -> List.init (1 + Numerics.Rng.int rng 2) (fun _ -> (float_of_int n, s *. Scaling_law.eval_int law n)))
           sizes)
    in
    let got = Hslb.Fitting.update law samples in
    if Int64.bits_of_float got.c <> Int64.bits_of_float law.c then
      Alcotest.failf "seed %d: c moved from %.17g to %.17g" seed law.c got.c;
    List.iter
      (fun (what, want, v) ->
        if Float.abs (v -. want) > 1e-12 *. want then
          Alcotest.failf "seed %d (s = %g): %s = %.17g, expected %.17g" seed s what v want)
      [ ("a", s *. law.a, got.a); ("b", s *. law.b, got.b); ("d", s *. law.d, got.d) ]
  done

(* at 4 or more distinct node counts the samples are refit alone: the
   stored law does not matter, and the result is fit_observations' law
   bit for bit *)
let test_update_refits () =
  let truth = Scaling_law.make ~a:200. ~b:0.004 ~c:0.95 ~d:1.5 in
  List.iter
    (fun sizes ->
      let obs =
        Array.mapi (fun i (n, y) -> (n, y *. (1. +. (0.03 *. float_of_int ((i mod 3) - 1)))))
          (observations_of truth sizes)
      in
      let want = law_bits (Hslb.Fitting.fit_observations obs).Hslb.Fitting.law in
      List.iter
        (fun stored ->
          Alcotest.(check (array int64))
            (Printf.sprintf "%d sizes" (List.length sizes))
            want
            (law_bits (Hslb.Fitting.update stored obs)))
        [ truth; Scaling_law.make ~a:1e-3 ~b:0. ~c:2. ~d:0. ])
    [ [ 1; 2; 4; 8 ]; [ 1; 2; 4; 8; 16; 32 ]; [ 3; 3; 5; 7; 11; 11 ] ];
  let law = Scaling_law.make ~a:100. ~b:0.001 ~c:1. ~d:0.5 in
  Alcotest.(check (array int64)) "no samples, same law" (law_bits law)
    (law_bits (Hslb.Fitting.update law [||]))

(* each refusal is an Invalid_argument with its exact message *)
let test_update_refusals () =
  let law = Scaling_law.make ~a:100. ~b:0.001 ~c:1. ~d:0.5 in
  let refuses what msg law samples =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Hslb.Fitting.update law samples : Scaling_law.t))
  in
  let unweighable shown =
    Printf.sprintf
      "Fitting.update: invalid observation %s: nodes must be finite and >= 1, seconds finite \
       and > 0"
      shown
  in
  refuses "zero time" (unweighable "(4, 0)") law [| (2., 50.); (4., 0.) |];
  refuses "nan time" (unweighable "(4, nan)") law [| (4., Float.nan) |];
  refuses "infinite time" (unweighable "(4, inf)") law [| (2., 50.); (4., Float.infinity); (8., 12.); (16., 7.) |];
  refuses "times 1e-200 s to 1e200 s"
    "Fitting.update: times from 1e-200 s to 1e+200 s span too many orders of magnitude to \
     weigh their relative residuals"
    law [| (2., 1e-200); (4., 1e200) |];
  refuses "an all-zero law"
    "Fitting.update: the law predicts 0 s at 8 nodes, where a sample sits, so no factor scales \
     it onto the samples"
    (Scaling_law.make ~a:0. ~b:0. ~c:1. ~d:0.)
    [| (8., 26.016) |];
  refuses "a factor past the float range"
    "Fitting.update: scaling the law by inf to meet the samples leaves the float range"
    (Scaling_law.make ~a:1e-300 ~b:0. ~c:1. ~d:0.)
    [| (1., 1e10) |]

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
  let fitted = Hslb.Classes.gather_and_fit ~sizes:[ 1; 2; 4; 8; 32 ] ~reps:1 [ cls ] in
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
  List.hd (Hslb.Classes.gather_and_fit ~sizes:[ 1; 2; 4; 8; 16; 64 ] ~reps:1 [ cls ])

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
   it and passes the independent checker, from the specs *)
let test_solver_choice_agrees () =
  let specs = two_class_specs () in
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
          (match
             Audit.check_allocation ~objective:Hslb.Objective.Min_max ~n_total:30 specs cert
           with
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

(* 1-6 classes, counts 1 to [max_count] (1-5 by default), budgets 4 to
   budgets + 3 (4-255 by default), random boxes and, unless
   [sweet_spots] is false, sweet-spot lists: a share of the instances
   has no admissible allocation. The options draw the same numbers. *)
let random_instance ?(budgets = 252) ?(max_count = 5) ?(sweet_spots = true) rng =
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
        let allowed = if sweet_spots then allowed else None in
        spec_of_law ?n_min ?n_max ?allowed ~name:(Printf.sprintf "c%d" i)
          ~count:(1 + Numerics.Rng.int rng max_count) law)
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

(* [None] when exact and OA agree on a [random_instance] seed: both
   infeasible, or both answer, the exact answer audits and OA's makespan
   is within 1e-4 of it, never below *)
let exact_vs_oa seed =
  let n_total, specs = random_instance (Numerics.Rng.create seed) in
  let solve solver = Hslb.Alloc_model.solve ~solver ~n_total specs in
  match (solve Engine.Solver_choice.Exact, solve Engine.Solver_choice.Oa) with
  | Error Minlp.Solution.Infeasible, Error Minlp.Solution.Infeasible -> None
  | Ok exact, Ok oa -> (
    let e = exact.Hslb.Alloc_model.predicted_makespan
    and o = oa.Hslb.Alloc_model.predicted_makespan in
    match
      Audit.check_allocation ~objective:Hslb.Objective.Min_max ~n_total specs
        (Option.get exact.Hslb.Alloc_model.certificate)
    with
    | Error _ as v -> Some (Printf.sprintf "seed %d: audit: %s" seed (Audit.summary v))
    | Ok () ->
      if e <= o && e >= o /. (1. +. 1e-4) then None
      else Some (Printf.sprintf "seed %d: exact %.17g, oa %.17g" seed e o))
  | r, r' ->
    let show = function Ok _ -> "ok" | Error st -> Minlp.Solution.status_to_string st in
    Some (Printf.sprintf "seed %d: exact %s, oa %s" seed (show r) (show r'))

let prop_exact_matches_oa =
  QCheck.Test.make ~name:"exact = oa (feasibility, makespan, audit)" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match exact_vs_oa seed with None -> true | Some msg -> QCheck.Test.fail_report msg)

(* the seeds where OA once stamped [optimal] 3-4% above the exact
   optimum: its master tree pruned, as infeasible, the node LP holding
   the optimum (test_lp pins seed 842991's) *)
let test_exact_oa_recorded_seeds () =
  List.iter
    (fun seed -> Option.iter Alcotest.fail (exact_vs_oa seed))
    [ 842991; 188812; 350; 12281 ]

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

(* an instance for the walk oracle: 1-6 classes, counts 1-5, budgets up
   to 10^9, boxes and sweet spots drawn across the budget, and laws
   whose bottoms fall inside the box, past it or at its last size *)
let walk_instance rng =
  let int = Numerics.Rng.int rng and u lo hi = Numerics.Rng.uniform rng ~lo ~hi in
  let k = 1 + int 6 in
  let n_total =
    match int 3 with 0 -> 1 + int 64 | 1 -> 1 + int 100_000 | _ -> 1 + int 1_000_000_000
  in
  let specs =
    List.init k (fun i ->
        let law =
          Scaling_law.make ~a:(u 0. 1e4)
            ~b:(match int 3 with 0 -> 0. | 1 -> u 0. 1e-6 | _ -> u 0. 0.1)
            ~c:(u 0. 2.) ~d:(if int 2 = 0 then 0. else u 0. 10.)
        in
        let within () = 1 + int (Stdlib.max 1 (n_total / (1 + int 8))) in
        let n_min = if int 3 = 0 then Some (within ()) else None in
        let n_max =
          if int 3 = 0 then Some (Option.value n_min ~default:1 + within ()) else None
        in
        let allowed =
          if int 3 = 0 then Some (List.init (1 + int 8) (fun _ -> within ())) else None
        in
        spec_of_law ?n_min ?n_max ?allowed ~name:(Printf.sprintf "c%d" i) ~count:(1 + int 5) law)
  in
  (n_total, specs)

(* an answer as text, each float by its bits *)
let show_walk_answer = function
  | Error st -> Minlp.Solution.status_to_string st
  | Ok (a : Hslb.Alloc_model.allocation) ->
    let floats xs = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") xs)) in
    let cert =
      match a.certificate with
      | None -> "none"
      | Some c ->
        let evidence =
          match c.Engine.Certificate.evidence with
          | Engine.Certificate.Threshold sides ->
            String.concat ";"
              (Array.to_list
                 (Array.map
                    (function
                      | Engine.Certificate.Below n -> Printf.sprintf "below %d" n
                      | Floor n -> Printf.sprintf "floor %d" n)
                    sides))
          | e -> Engine.Certificate.evidence_to_string e
        in
        Printf.sprintf "%s %s [%s] %h %h %b %h {%s} %s" c.producer
          (Minlp.Solution.status_to_string c.claimed_status)
          (floats (Option.value c.witness ~default:[||]))
          c.claimed_obj c.claimed_bound c.minimize c.tol evidence
          (Option.value c.budget_stop ~default:"-")
    in
    Printf.sprintf "[%s] %h [%s] %s %s"
      (String.concat ";" (Array.to_list (Array.map string_of_int a.nodes_per_task)))
      a.predicted_makespan (floats a.predicted_times)
      (Minlp.Solution.status_to_string a.status)
      cert

let show_reoptimality = function
  | None -> "inadmissible"
  | Some (r : Hslb.Alloc_model.reoptimality) ->
    Printf.sprintf "%h %h %b %s" r.incumbent_makespan r.gap_rel r.keep
      (show_walk_answer (Ok r.optimum))

(* the walk on ints and float arrays answers every customized path bit
   for bit as the closure walk it replaced (Walk_oracle): allocations,
   times, threshold sides and certificates, and [reoptimality] on the
   min-sum answer (even seeds) or a random incumbent *)
let test_walk_matches_oracle () =
  let checked = ref 0 in
  for seed = 0 to 19_999 do
    let rng = Numerics.Rng.create seed in
    let n_total, specs = walk_instance rng in
    let agree what show mine theirs =
      let run f = match f () with r -> show r | exception Invalid_argument m -> "raises " ^ m in
      let mine = run mine and theirs = run theirs in
      if mine <> theirs then
        Alcotest.failf "seed %d, %s, n_total %d:\n walk   %s\n oracle %s" seed what n_total mine
          theirs
    in
    List.iter
      (fun objective ->
        agree
          (Hslb.Objective.to_string objective)
          show_walk_answer
          (fun () -> Hslb.Alloc_model.solve ~objective ~n_total specs)
          (fun () -> Walk_oracle.solve ~objective ~n_total specs))
      Hslb.Objective.[ Min_max; Max_min; Min_sum ];
    let incumbent =
      match Walk_oracle.solve ~objective:Hslb.Objective.Min_sum ~n_total specs with
      | Ok a when seed mod 2 = 0 -> a.Hslb.Alloc_model.nodes_per_task
      | Ok _ | Error _ -> Array.of_list (List.map (fun _ -> 1 + Numerics.Rng.int rng 16) specs)
    in
    agree "reoptimality" show_reoptimality
      (fun () -> Hslb.Alloc_model.reoptimality ~eps:0.01 ~n_total ~incumbent specs)
      (fun () -> Walk_oracle.reoptimality ~eps:0.01 ~n_total ~incumbent specs);
    incr checked
  done;
  Alcotest.(check int) "instances" 20_000 !checked

(* every answer of every objective passes the independent checker,
   from the specs it was solved for *)
let prop_answers_audited =
  QCheck.Test.make ~name:"every objective's answer passes check_allocation" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let n_total, specs = random_instance (Numerics.Rng.create seed) in
      List.for_all
        (fun objective ->
          match Hslb.Alloc_model.solve ~objective ~n_total specs with
          | Error _ -> true
          | Ok a -> (
            match
              Audit.check_allocation ~objective ~n_total specs
                (Option.get a.Hslb.Alloc_model.certificate)
            with
            | Ok () -> true
            | Error _ as v ->
              QCheck.Test.fail_reportf "seed %d, %s: %s" seed
                (Hslb.Objective.to_string objective)
                (Audit.summary v)))
        Hslb.Objective.[ Min_max; Max_min; Min_sum ])

(* the count-weighted total of an allocation, summed in class order *)
let min_sum_total specs nodes =
  List.fold_left
    (fun (acc, i) (s : Hslb.Alloc_model.spec) ->
      ( acc
        +. float_of_int s.fc.Hslb.Classes.cls.Hslb.Classes.count
           *. Scaling_law.eval_int s.fc.Hslb.Classes.fit.Hslb.Fitting.law nodes.(i),
        i + 1 ))
    (0., 0) specs
  |> fst

(* the min-sum greedy is never below the exact optimum, and reaches it
   when every count is 1 and no class has sweet spots: there greedy
   marginal allocation is exact (Ibaraki-Katoh). Elsewhere it is not *)
let prop_greedy_vs_dp =
  QCheck.Test.make ~name:"min-sum greedy >= dp optimum, = on unit counts" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let check ~exact (n_total, specs) =
        match
          ( Hslb.Alloc_model.solve ~objective:Hslb.Objective.Min_sum ~n_total specs,
            Alloc_oracle.min_sum_dp ~n_total specs )
        with
        | Error _, None -> true
        | Ok a, Some (opt, _) ->
          let total = min_sum_total specs a.Hslb.Alloc_model.nodes_per_task in
          if total < opt then
            QCheck.Test.fail_reportf "seed %d: greedy %.17g below the optimum %.17g" seed total
              opt
          else if exact && total > opt *. (1. +. 1e-9) then
            QCheck.Test.fail_reportf
              "seed %d: unit counts, greedy %.17g above the optimum %.17g" seed total opt
          else true
        | Ok _, None | Error _, Some _ ->
          QCheck.Test.fail_reportf "seed %d: greedy and dp disagree on feasibility" seed
      in
      check ~exact:false (random_instance (Numerics.Rng.create seed))
      && check ~exact:true
           (random_instance ~max_count:1 ~sweet_spots:false (Numerics.Rng.create seed)))

(* counts 2 and 3: from [1;1] the greedy takes A's step (2 nodes, 10 s
   saved per node) over B's (3 nodes, 9 s per node), and then B's step
   no longer fits: a total of 74, where [1;2] reaches 67 *)
let test_min_sum_dp_oracle () =
  let specs = Hslb.Model_store.specs_of_csv "A,2,20,0,1,0\nB,3,18,0,1,0" in
  (match Alloc_oracle.min_sum_dp ~n_total:8 specs with
  | None -> Alcotest.fail "dp found no allocation"
  | Some (opt, nodes) ->
    Alcotest.(check (array int)) "dp allocation" [| 1; 2 |] nodes;
    Alcotest.(check (float 1e-12)) "dp optimum" 67. opt);
  let greedy = solve_ok ~objective:Hslb.Objective.Min_sum ~n_total:8 specs in
  Alcotest.(check (array int)) "greedy allocation" [| 2; 1 |] greedy.nodes_per_task;
  Alcotest.(check (float 1e-12)) "greedy total" 74. (min_sum_total specs greedy.nodes_per_task)

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
        prop_exact_matches_oa;
        prop_answers_audited;
        prop_greedy_vs_dp;
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
          Alcotest.test_case "rejects unweighable observations" `Quick
            test_fit_rejects_unweighable;
          Alcotest.test_case "pure" `Quick test_fit_pure;
          Alcotest.test_case "recovers exactly" `Quick test_fit_recovers_exactly;
          Alcotest.test_case "faces and degenerate data" `Quick
            test_fit_faces_and_degenerate_data;
          Alcotest.test_case "lower face is +0" `Quick test_fit_lower_face_is_positive_zero;
          Alcotest.test_case "any time scale" `Quick test_fit_any_time_scale;
          Alcotest.test_case "never worse than the LM oracle" `Slow
            test_fit_never_worse_than_oracle;
          Alcotest.test_case "recommended sizes" `Quick test_recommended_sizes;
          Alcotest.test_case "recommended sizes messages" `Quick
            test_recommended_sizes_messages;
          Alcotest.test_case "online tracks drift" `Quick test_online_tracks_drift;
          Alcotest.test_case "online observes any scale" `Quick test_online_any_scale;
          Alcotest.test_case "online observes 1e-200 s" `Quick test_online_tiny_times;
          Alcotest.test_case "update rescales below four node counts" `Quick test_update_rescales;
          Alcotest.test_case "update refits at four or more node counts" `Quick test_update_refits;
          Alcotest.test_case "update refusals" `Quick test_update_refusals;
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
          Alcotest.test_case "exact = oa, recorded seeds" `Quick test_exact_oa_recorded_seeds;
          Alcotest.test_case "min-sum dp oracle" `Quick test_min_sum_dp_oracle;
          Alcotest.test_case "walk = oracle" `Quick test_walk_matches_oracle;
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
