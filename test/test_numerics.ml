(* Unit and property tests for the numerics library. *)

open Numerics

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a +. Float.abs b)

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Vec ---------- *)

let test_vec_basic () =
  let u = [| 1.; 2.; 3. |] and v = [| 4.; 5.; 6. |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 5.; 7.; 9. |] (Vec.add u v);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.; -3.; -3. |] (Vec.sub u v);
  check_float "dot" 32. (Vec.dot u v);
  check_float "norm2" (sqrt 14.) (Vec.norm2 u);
  check_float "norm_inf" 3. (Vec.norm_inf u);
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.; 9.; 12. |] (Vec.axpy 2. u v);
  check_float "sum" 6. (Vec.sum u);
  check_float "mean" 2. (Vec.mean u);
  Alcotest.(check int) "argmax" 2 (Vec.argmax u);
  Alcotest.(check int) "argmin" 0 (Vec.argmin u)

let test_vec_clamp () =
  let lo = [| 0.; 0. |] and hi = [| 1.; 1. |] in
  Alcotest.(check (array (float 1e-12)))
    "clamp" [| 0.; 1. |]
    (Vec.clamp ~lo ~hi [| -5.; 7. |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch" (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vec.add [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_kahan () =
  let n = 100_000 in
  let v = Array.make (n + 1) 1e-11 in
  v.(0) <- 1.;
  check_float ~eps:1e-12 "kahan sum" (1. +. (1e-11 *. float_of_int n)) (Vec.sum v)

(* ---------- Mat ---------- *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  Alcotest.(check bool) "mul"
    true
    (Mat.equal ~eps:1e-12 c (Mat.of_arrays [| [| 19.; 22. |]; [| 43.; 50. |] |]))

let test_mat_solve () =
  let a = Mat.of_arrays [| [| 4.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 1.; 2. |] in
  let x = Mat.solve a b in
  let ax = Mat.mul_vec a x in
  Alcotest.(check bool) "residual" true (Vec.equal ~eps:1e-10 ax b)

let test_mat_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Mat.Singular (fun () -> ignore (Mat.solve a [| 1.; 1. |]))

let test_mat_inverse () =
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 1. |] |] in
  let ainv = Mat.inverse a in
  Alcotest.(check bool) "a * a^-1 = I" true (Mat.equal ~eps:1e-10 (Mat.mul a ainv) (Mat.identity 2))

let prop_lu_roundtrip =
  QCheck.Test.make ~name:"lu solve roundtrip" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let a =
        Mat.init n n (fun i j ->
            let base = Rng.uniform rng ~lo:(-1.) ~hi:1. in
            if i = j then base +. (float_of_int n *. 2.) else base)
      in
      let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-10.) ~hi:10.) in
      let x = Mat.solve a b in
      Vec.equal ~eps:1e-6 (Mat.mul_vec a x) b)

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let a = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean a);
  check_float "variance" (32. /. 7.) (Stats.variance a);
  check_float "median" 4.5 (Stats.median a);
  check_float "q0" 2. (Stats.quantile 0. a);
  check_float "q1" 9. (Stats.quantile 1. a)

let test_r_squared () =
  let observed = [| 1.; 2.; 3.; 4. |] in
  check_float "perfect" 1. (Stats.r_squared ~observed ~predicted:observed);
  let predicted = [| 2.5; 2.5; 2.5; 2.5 |] in
  check_float "mean model" 0. (Stats.r_squared ~observed ~predicted)

let test_errors () =
  let observed = [| 1.; 2. |] and predicted = [| 2.; 4. |] in
  check_float "rmse" (sqrt 2.5) (Stats.rmse ~observed ~predicted)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a 1.) (Rng.float b 1.)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let xs = Array.init 10 (fun _ -> Rng.float a 1.) in
  let ys = Array.init 10 (fun _ -> Rng.float c 1.) in
  Alcotest.(check bool) "different" true (xs <> ys)

let test_rng_normal_moments () =
  let rng = Rng.create 1234 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng ~mu:3. ~sigma:2.) in
  check_float ~eps:0.05 "mean" 3. (Stats.mean xs);
  check_float ~eps:0.05 "stddev" 2. (Stats.stddev xs)

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int in range" ~count:200
    QCheck.(pair (int_range 1 1000) (int_range 0 100000))
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

(* ---------- Num_diff ---------- *)

let test_gradient () =
  let f x = (x.(0) *. x.(0)) +. (3. *. x.(0) *. x.(1)) in
  let g = Num_diff.gradient f [| 2.; 5. |] in
  check_float ~eps:1e-5 "df/dx" 19. g.(0);
  check_float ~eps:1e-5 "df/dy" 6. g.(1)

(* the Jacobian lives with the Levenberg–Marquardt oracle, its only user *)
let test_jacobian () =
  let f x = [| x.(0) *. x.(1); x.(0) +. x.(1) |] in
  let j = Lm_oracle.jacobian f [| 2.; 3. |] in
  check_float ~eps:1e-5 "j00" 3. (Mat.get j 0 0);
  check_float ~eps:1e-5 "j01" 2. (Mat.get j 0 1);
  check_float ~eps:1e-5 "j10" 1. (Mat.get j 1 0);
  check_float ~eps:1e-5 "j11" 1. (Mat.get j 1 1)

(* ---------- Scalar_opt ---------- *)

let test_brent_min () =
  let x, fx = Scalar_opt.brent_min (fun x -> ((x -. 1.5) ** 2.) +. 0.25) ~lo:(-10.) ~hi:10. in
  check_float ~eps:1e-6 "argmin" 1.5 x;
  check_float ~eps:1e-6 "min" 0.25 fx

let test_golden_min () =
  let x, _ = Scalar_opt.golden_min (fun x -> Float.abs (x -. 0.3)) ~lo:0. ~hi:1. in
  check_float ~eps:1e-6 "argmin" 0.3 x

(* ---------- Least_squares: the test-only Levenberg–Marquardt oracle ---------- *)

(* the paper's performance model: T(n) = a/n^c + b n + d *)
let perf_model p n = (p.(0) /. (n ** p.(2))) +. (p.(1) *. n) +. p.(3)
let synth_data params ns = Array.map (fun n -> perf_model params n) ns

let test_lm_exact_recovery () =
  let truth = [| 120.; 0.01; 0.9; 3. |] in
  let ns = [| 1.; 2.; 4.; 8.; 16.; 32.; 64. |] in
  let ys = synth_data truth ns in
  let residual p = Array.mapi (fun i n -> perf_model p n -. ys.(i)) ns in
  let lo = Array.make 4 0. and hi = Array.make 4 infinity in
  let r = Lm_oracle.fit ~residual ~lo ~hi [| 50.; 0.1; 0.5; 1. |] in
  Alcotest.(check bool) "converged" true r.converged;
  (* prediction quality matters more than parameter identity *)
  Array.iter
    (fun n -> check_float ~eps:1e-3 "prediction" (perf_model truth n) (perf_model r.params n))
    ns

let test_lm_respects_bounds () =
  let residual p = [| p.(0) +. 5. |] in
  (* unconstrained optimum is -5; box forces 0 *)
  let r = Lm_oracle.fit ~residual ~lo:[| 0. |] ~hi:[| 10. |] [| 3. |] in
  Alcotest.(check bool) "at bound" true (r.params.(0) >= 0.);
  check_float ~eps:1e-6 "clamped to zero" 0. r.params.(0)

let test_lm_multistart_beats_single () =
  let rng = Rng.create 99 in
  let truth = [| 500.; 0.001; 1.2; 10. |] in
  let ns = [| 1.; 4.; 16.; 64.; 256. |] in
  let ys = synth_data truth ns in
  let residual p = Array.mapi (fun i n -> perf_model p n -. ys.(i)) ns in
  let lo = Array.make 4 0. and hi = Array.make 4 infinity in
  let r =
    Lm_oracle.fit_multi_start ~rng ~starts:8 ~residual ~lo ~hi [| 1.; 1.; 0.1; 1. |]
  in
  Alcotest.(check bool) "good fit" true (r.residual_norm < 1e-2 *. Vec.norm2 ys)

let prop_lm_stays_in_box =
  QCheck.Test.make ~name:"LM result stays inside box" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let truth =
        [| Rng.uniform rng ~lo:10. ~hi:1000.; Rng.uniform rng ~lo:0. ~hi:0.1;
           Rng.uniform rng ~lo:0.5 ~hi:1.5; Rng.uniform rng ~lo:0. ~hi:20. |]
      in
      let ns = [| 1.; 2.; 8.; 32.; 128. |] in
      let ys = synth_data truth ns in
      let residual p = Array.mapi (fun i n -> perf_model p n -. ys.(i)) ns in
      let lo = Array.make 4 0. and hi = Array.make 4 1e6 in
      let r = Lm_oracle.fit ~residual ~lo ~hi [| 1.; 0.01; 1.; 1. |] in
      Array.for_all (fun x -> x >= 0. && x <= 1e6) r.params)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_lu_roundtrip; prop_rng_int_range; prop_lm_stays_in_box ]
  in
  Alcotest.run "numerics"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "clamp" `Quick test_vec_clamp;
          Alcotest.test_case "dim mismatch" `Quick test_vec_dim_mismatch;
          Alcotest.test_case "kahan sum" `Quick test_vec_kahan;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "solve" `Quick test_mat_solve;
          Alcotest.test_case "singular" `Quick test_mat_singular;
          Alcotest.test_case "inverse" `Quick test_mat_inverse;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats_basic;
          Alcotest.test_case "r_squared" `Quick test_r_squared;
          Alcotest.test_case "error measures" `Quick test_errors;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        ] );
      ( "num_diff",
        [
          Alcotest.test_case "gradient" `Quick test_gradient;
          Alcotest.test_case "jacobian" `Quick test_jacobian;
        ] );
      ( "scalar_opt",
        [
          Alcotest.test_case "brent min" `Quick test_brent_min;
          Alcotest.test_case "golden min" `Quick test_golden_min;
        ] );
      ( "least_squares",
        [
          Alcotest.test_case "exact recovery" `Quick test_lm_exact_recovery;
          Alcotest.test_case "respects bounds" `Quick test_lm_respects_bounds;
          Alcotest.test_case "multi-start" `Quick test_lm_multistart_beats_single;
        ] );
      ("properties", qsuite);
    ]
