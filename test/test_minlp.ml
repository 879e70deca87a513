(* Tests for the MINLP toolkit: expressions, problems, MILP B&B,
   NLP-based B&B and the LP/NLP-based (outer approximation) solver. *)

open Minlp

let check_float ?(eps = 1e-5) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let check_status msg expected (actual : Solution.status) =
  if expected <> actual then
    Alcotest.failf "%s: expected %s, got %s" msg
      (Solution.status_to_string expected)
      (Solution.status_to_string actual)

(* ---------- Expr ---------- *)

let test_expr_eval () =
  (* a/n^c + b n + d — the HSLB performance function *)
  let open Expr in
  let n = var 0 in
  let e = (const 100. / pow n 0.9) + (const 0.01 * n) + const 5. in
  let v = eval e [| 16. |] in
  check_float "perf fn" ((100. /. (16. ** 0.9)) +. 0.16 +. 5.) v

let test_expr_diff () =
  let open Expr in
  let e = pow (var 0) 3. + (const 2. * var 0 * var 1) in
  let dx = diff e 0 and dy = diff e 1 in
  check_float "d/dx" ((3. *. 4.) +. (2. *. 5.)) (eval dx [| 2.; 5. |]);
  check_float "d/dy" 4. (eval dy [| 2.; 5. |])

let test_expr_diff_div_log_exp () =
  let open Expr in
  let e = log_ (var 0) + exp_ (var 0) + (const 1. / var 0) in
  let d = diff e 0 in
  let x = 1.7 in
  check_float ~eps:1e-9 "derivative" ((1. /. x) +. exp x -. (1. /. (x *. x))) (eval d [| x |])

let test_expr_simplify () =
  let open Expr in
  Alcotest.(check bool) "x*0 = 0" true (simplify (var 0 * const 0.) = const 0.);
  Alcotest.(check bool) "x+0 = x" true (simplify (var 0 + const 0.) = var 0);
  Alcotest.(check bool) "x^1 = x" true (pow (var 0) 1. = var 0);
  Alcotest.(check bool) "const fold" true (simplify (const 2. * const 3.) = const 6.)

let test_expr_linear () =
  let open Expr in
  let e = (const 2. * var 0) + (const (-3.) * var 2) + const 7. in
  Alcotest.(check bool) "is_linear" true (is_linear e);
  let coeffs, k = linear_parts e in
  Alcotest.(check bool) "coeffs" true (coeffs = [ (0, 2.); (2, -3.) ]);
  check_float "const" 7. k;
  Alcotest.(check bool) "nonlinear detected" false (is_linear (pow (var 0) 2.))

let test_expr_vars () =
  let open Expr in
  let e = (var 3 * var 1) + pow (var 3) 2. in
  Alcotest.(check (list int)) "vars" [ 1; 3 ] (vars e);
  Alcotest.(check int) "max_var" 3 (max_var e);
  Alcotest.(check int) "const max_var" (-1) (max_var (const 4.))

let test_expr_gradient_matches_numeric () =
  let open Expr in
  let e = (const 50. / pow (var 0) 1.1) + (const 0.2 * var 1) + (var 0 * var 1) in
  let x = [| 3.; 7. |] in
  let g = gradient e x in
  let gn = Numerics.Num_diff.gradient (fun v -> eval e v) x in
  Array.iteri (fun i gi -> check_float ~eps:1e-4 (Printf.sprintf "g.(%d)" i) gn.(i) gi) g

let test_expr_linearize () =
  let open Expr in
  let e = pow (var 0) 2. in
  let v, g = linearize e [| 3. |] in
  check_float "value" 9. v;
  check_float "grad" 6. g.(0)

(* random expression generator over strictly positive points, avoiding
   domain errors: +, *, /(by positive), pow with positive base *)
let prop_diff_matches_numeric =
  QCheck.Test.make ~name:"symbolic diff matches numeric diff" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let rec gen depth =
        if depth = 0 then
          if Numerics.Rng.bool rng then Expr.var (Numerics.Rng.int rng 2)
          else Expr.const (Numerics.Rng.uniform rng ~lo:0.5 ~hi:3.)
        else
          match Numerics.Rng.int rng 5 with
          | 0 -> Expr.add [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> Expr.mul (gen (depth - 1)) (gen (depth - 1))
          | 2 -> Expr.pow (gen (depth - 1)) (Numerics.Rng.uniform rng ~lo:0.5 ~hi:2.)
          | 3 -> Expr.div (gen (depth - 1)) (Expr.const (Numerics.Rng.uniform rng ~lo:0.5 ~hi:2.))
          | _ -> Expr.log_ (Expr.add [ gen (depth - 1); Expr.const 2. ])
      in
      let e = gen 3 in
      let x = [| Numerics.Rng.uniform rng ~lo:0.5 ~hi:2.; Numerics.Rng.uniform rng ~lo:0.5 ~hi:2. |] in
      let g = Expr.gradient e x in
      let gn = Numerics.Num_diff.gradient (fun v -> Expr.eval e v) x in
      let ok = ref true in
      Array.iteri
        (fun i gi ->
          let scale = 1. +. Float.abs gn.(i) in
          if Float.abs (gi -. gn.(i)) > 1e-3 *. scale then ok := false)
        g;
      !ok)

(* ---------- closure-compiled kernels ---------- *)

(* random expression over [nv] variables, mixing every constructor the
   compiler specializes (linear sums, scaling-law leaves c·x^p, nested
   arithmetic, exp/log over safe arguments) *)
let gen_expr rng nv depth0 =
  let rec gen depth =
    if depth = 0 then
      match Numerics.Rng.int rng 3 with
      | 0 -> Expr.var (Numerics.Rng.int rng nv)
      | 1 -> Expr.const (Numerics.Rng.uniform rng ~lo:(-3.) ~hi:3.)
      | _ ->
        (* a scaling-law leaf, the fused fast path of the compiler *)
        Expr.mul
          (Expr.const (Numerics.Rng.uniform rng ~lo:0.5 ~hi:5.))
          (Expr.pow (Expr.var (Numerics.Rng.int rng nv)) (Numerics.Rng.uniform rng ~lo:0.5 ~hi:2.))
    else
      match Numerics.Rng.int rng 8 with
      | 0 ->
        Expr.add (List.init (1 + Numerics.Rng.int rng 4) (fun _ -> gen (depth - 1)))
      | 1 ->
        (* a plain linear combination, the other fast path *)
        Expr.linear
          (List.init (1 + Numerics.Rng.int rng nv) (fun _ ->
               (Numerics.Rng.int rng nv, Numerics.Rng.uniform rng ~lo:(-4.) ~hi:4.)))
      | 2 -> Expr.mul (gen (depth - 1)) (gen (depth - 1))
      | 3 -> Expr.neg (gen (depth - 1))
      | 4 -> Expr.div (gen (depth - 1)) (Expr.const (Numerics.Rng.uniform rng ~lo:0.5 ~hi:2.))
      | 5 -> Expr.pow (Expr.add [ gen (depth - 1); Expr.const 4. ]) (Numerics.Rng.uniform rng ~lo:0.5 ~hi:2.)
      | 6 -> Expr.exp_ (Expr.div (gen (depth - 1)) (Expr.const 10.))
      | _ -> Expr.log_ (Expr.add [ Expr.pow (gen (depth - 1)) 2.; Expr.const 2. ])
  in
  gen depth0

let bits = Int64.bits_of_float

(* bit-equality that also identifies NaN with NaN regardless of payload:
   both sides must compute the *same* operations, but a NaN produced by
   e.g. (-inf + inf) compares unequal to itself *)
let same_float a b = bits a = bits b || (Float.is_nan a && Float.is_nan b)

let prop_compiled_matches_interp =
  QCheck.Test.make ~name:"closure-compiled eval/grad match the interpreter bit-for-bit"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let nv = 1 + Numerics.Rng.int rng 5 in
      let e = gen_expr rng nv (1 + Numerics.Rng.int rng 3) in
      let x = Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:(-2.) ~hi:2.) in
      let p = Expr.Compiled.compile e in
      if Expr.Compiled.arity p > nv then
        QCheck.Test.fail_reportf "arity %d exceeds variable count %d" (Expr.Compiled.arity p) nv;
      let v_interp = Expr.eval e x in
      let v_comp = Expr.Compiled.eval p x in
      let v_unsafe = Expr.Compiled.unsafe_fn p x in
      if not (same_float v_interp v_comp) then
        QCheck.Test.fail_reportf "eval: interp %.17g, compiled %.17g on %s" v_interp v_comp
          (Expr.to_string e);
      if not (same_float v_comp v_unsafe) then
        QCheck.Test.fail_reportf "unsafe_fn diverges from eval: %.17g vs %.17g" v_comp v_unsafe;
      (* gradients: compiled grad_into vs the symbolic gradient *)
      let g_ref = Expr.gradient e x in
      let g = Expr.Compiled.compile_gradient e in
      let out = Array.make nv nan in
      Expr.Compiled.grad_into g x out;
      Array.iteri
        (fun j r ->
          if not (same_float r out.(j)) then
            QCheck.Test.fail_reportf "grad_into.(%d): ref %.17g, compiled %.17g on %s" j r
              out.(j) (Expr.to_string e))
        g_ref;
      (* grad_acc: acc.(j) <- (w ·. g_j) +. acc.(j), untouched elsewhere *)
      let w = Numerics.Rng.uniform rng ~lo:(-2.) ~hi:2. in
      let acc0 = Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:(-1.) ~hi:1.) in
      let acc = Array.copy acc0 in
      Expr.Compiled.grad_acc g x w acc;
      let occurring = Expr.vars e in
      Array.iteri
        (fun j a ->
          let expect =
            if List.mem j occurring then (w *. g_ref.(j)) +. acc0.(j) else acc0.(j)
          in
          if not (same_float expect a) then
            QCheck.Test.fail_reportf "grad_acc.(%d): expected %.17g, got %.17g" j expect a)
        acc;
      true)

let test_compiled_arity_guard () =
  let e = Expr.(add [ var 0; var 3 ]) in
  let p = Expr.Compiled.compile e in
  Alcotest.(check int) "arity" 4 (Expr.Compiled.arity p);
  check_float "eval at exact arity" 7. (Expr.Compiled.eval p [| 3.; 0.; 0.; 4. |]);
  Alcotest.(check bool) "short point rejected" true
    (try
       ignore (Expr.Compiled.eval p [| 1.; 2. |]);
       false
     with Invalid_argument _ -> true)

(* ---------- Problem ---------- *)

let test_builder_basic () =
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~name:"x" ~lo:0. ~hi:10. Problem.Integer in
  let y = Problem.Builder.add_var b ~name:"y" Problem.Continuous in
  Problem.Builder.set_objective b Expr.(var x + var y);
  Problem.Builder.add_constr b Expr.(var x + var y) Lp.Lp_problem.Ge 2.;
  let p = Problem.Builder.build b in
  Alcotest.(check int) "num_vars" 2 p.Problem.num_vars;
  Alcotest.(check bool) "kinds" true (p.Problem.kinds = [| Problem.Integer; Problem.Continuous |])

let test_builder_rejects_nonlinear_eq () =
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b Problem.Continuous in
  Problem.Builder.add_constr b Expr.(pow (var x) 2.) Lp.Lp_problem.Eq 4.;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Problem.Builder.build b);
       false
     with Invalid_argument _ -> true)

let test_normalize_epigraph () =
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:10. Problem.Continuous in
  Problem.Builder.set_objective b Expr.(pow (var x) 2.);
  let p = Problem.Builder.build b in
  let p', k = Problem.normalize p in
  Alcotest.(check int) "orig dim" 1 k;
  Alcotest.(check int) "new dim" 2 p'.Problem.num_vars;
  Alcotest.(check bool) "linear obj" true (Expr.is_linear p'.Problem.objective)

let test_integrality_helpers () =
  let b = Problem.Builder.create () in
  let _ = Problem.Builder.add_var b Problem.Integer in
  let _ = Problem.Builder.add_var b Problem.Continuous in
  Problem.Builder.set_objective b (Expr.var 0);
  let p = Problem.Builder.build b in
  Alcotest.(check bool) "integral" true (Problem.is_integral p [| 3.; 0.5 |]);
  Alcotest.(check bool) "fractional" false (Problem.is_integral p [| 3.4; 0.5 |]);
  Alcotest.(check (option int)) "most fractional" (Some 0)
    (Problem.most_fractional p [| 3.4; 0.5 |]);
  Alcotest.(check (array (float 1e-12))) "round" [| 3.; 0.5 |]
    (Problem.round_integral p [| 3.2; 0.5 |])

let test_violated_sos1 () =
  let b = Problem.Builder.create () in
  let z0 = Problem.Builder.add_var b Problem.Binary in
  let z1 = Problem.Builder.add_var b Problem.Binary in
  Problem.Builder.set_objective b (Expr.var z0);
  Problem.Builder.add_sos1 b [ (z0, 1.); (z1, 2.) ];
  let p = Problem.Builder.build b in
  Alcotest.(check bool) "violated" true (Problem.violated_sos1 p [| 0.5; 0.5 |] <> None);
  Alcotest.(check bool) "ok one" true (Problem.violated_sos1 p [| 1.; 0. |] = None);
  Alcotest.(check bool) "ok zero" true (Problem.violated_sos1 p [| 0.; 0. |] = None)

(* ---------- Presolve ---------- *)

let test_presolve_tightens_budget () =
  (* x + y <= 10, x,y >= 2 -> both upper bounds tighten to 8 *)
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:2. ~hi:100. Problem.Integer in
  let y = Problem.Builder.add_var b ~lo:2. ~hi:100. Problem.Integer in
  Problem.Builder.set_objective b (Expr.var x);
  Problem.Builder.add_constr b (Expr.linear [ (x, 1.); (y, 1.) ]) Lp.Lp_problem.Le 10.;
  let r = Presolve.tighten (Problem.Builder.build b) in
  Alcotest.(check bool) "not infeasible" false r.Presolve.infeasible;
  Alcotest.(check bool) "tightened" true (r.Presolve.tightened >= 2);
  check_float "x hi" 8. r.Presolve.problem.Problem.hi.(0);
  check_float "y hi" 8. r.Presolve.problem.Problem.hi.(1)

let test_presolve_detects_infeasible () =
  (* x >= 5 via row but hi = 3 *)
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:3. Problem.Integer in
  Problem.Builder.set_objective b (Expr.var x);
  Problem.Builder.add_constr b (Expr.linear [ (x, 1.) ]) Lp.Lp_problem.Ge 5.;
  let r = Presolve.tighten (Problem.Builder.build b) in
  Alcotest.(check bool) "infeasible" true r.Presolve.infeasible

let test_presolve_integer_rounding () =
  (* 2x <= 7 -> x <= 3 for integer x (3.5 floored) *)
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:100. Problem.Integer in
  Problem.Builder.set_objective b (Expr.var x);
  Problem.Builder.add_constr b (Expr.linear [ (x, 2.) ]) Lp.Lp_problem.Le 7.;
  let r = Presolve.tighten (Problem.Builder.build b) in
  check_float "floored" 3. r.Presolve.problem.Problem.hi.(0)

let test_presolve_equality_propagates_both_ways () =
  (* x + y = 6, x in [0,10], y in [0,2] -> x in [4,6] *)
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:10. Problem.Continuous in
  let y = Problem.Builder.add_var b ~lo:0. ~hi:2. Problem.Continuous in
  Problem.Builder.set_objective b (Expr.var x);
  Problem.Builder.add_constr b (Expr.linear [ (x, 1.); (y, 1.) ]) Lp.Lp_problem.Eq 6.;
  let r = Presolve.tighten (Problem.Builder.build b) in
  check_float "x lo" 4. r.Presolve.problem.Problem.lo.(0);
  check_float "x hi" 6. r.Presolve.problem.Problem.hi.(0)

let test_presolve_leaves_infinite_activities_alone () =
  (* a free variable in the row poisons the activity; no tightening *)
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b Problem.Continuous in
  let y = Problem.Builder.add_var b ~lo:0. ~hi:5. Problem.Continuous in
  Problem.Builder.set_objective b (Expr.var y);
  Problem.Builder.add_constr b (Expr.linear [ (x, 1.); (y, 1.) ]) Lp.Lp_problem.Le 10.;
  let r = Presolve.tighten (Problem.Builder.build b) in
  check_float "y hi unchanged" 5. r.Presolve.problem.Problem.hi.(1)

(* ---------- MILP ---------- *)

let knapsack_problem () =
  (* max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> a=1,c=1 (17)
     vs b=1,c=1 (20): 4+2=6 ok -> optimum 20 *)
  let b = Problem.Builder.create ~minimize:false () in
  let va = Problem.Builder.add_var b ~name:"a" Problem.Binary in
  let vb = Problem.Builder.add_var b ~name:"b" Problem.Binary in
  let vc = Problem.Builder.add_var b ~name:"c" Problem.Binary in
  Problem.Builder.set_objective b
    (Expr.linear [ (va, 10.); (vb, 13.); (vc, 7.) ]);
  Problem.Builder.add_constr b
    (Expr.linear [ (va, 3.); (vb, 4.); (vc, 2.) ])
    Lp.Lp_problem.Le 6.;
  Problem.Builder.build b

let test_milp_knapsack () =
  let s = Milp.run (knapsack_problem ()) in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float "obj" 20. s.Solution.obj;
  check_float "b chosen" 1. s.Solution.x.(1);
  check_float "c chosen" 1. s.Solution.x.(2)

let test_milp_integer_general () =
  (* min 2x + 3y st x + y >= 5.5, x,y int >= 0 -> x=6,y=0? obj 12; or x=5,y=1 -> 13. opt 11? x+y>=5.5 -> x+y>=6 integral. 2x+3y min with x+y>=6: all x -> x=6 obj 12.  *)
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b Problem.Integer in
  let y = Problem.Builder.add_var b Problem.Integer in
  Problem.Builder.set_objective b (Expr.linear [ (x, 2.); (y, 3.) ]);
  Problem.Builder.add_constr b (Expr.linear [ (x, 1.); (y, 1.) ]) Lp.Lp_problem.Ge 5.5;
  let s = Milp.run (Problem.Builder.build b) in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float "obj" 12. s.Solution.obj

let test_milp_infeasible () =
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:1. Problem.Integer in
  Problem.Builder.set_objective b (Expr.var x);
  Problem.Builder.add_constr b (Expr.linear [ (x, 2.) ]) Lp.Lp_problem.Eq 1.;
  let s = Milp.run (Problem.Builder.build b) in
  check_status "status" Solution.Infeasible s.Solution.status

let test_milp_sos1_selection () =
  (* pick exactly one allocation from {2,4,8,16}; cost 100/alloc; budget alloc <= 10
     -> best is 8 with cost 12.5 *)
  let b = Problem.Builder.create () in
  let opts = [| 2.; 4.; 8.; 16. |] in
  let zs = Array.map (fun _ -> Problem.Builder.add_var b Problem.Binary) opts in
  let n = Problem.Builder.add_var b ~name:"n" ~lo:0. ~hi:1e6 Problem.Continuous in
  Problem.Builder.set_objective b
    (Expr.linear (Array.to_list (Array.mapi (fun i z -> (z, 100. /. opts.(i))) zs)));
  Problem.Builder.add_constr b
    (Expr.linear (Array.to_list (Array.map (fun z -> (z, 1.)) zs)))
    Lp.Lp_problem.Eq 1.;
  Problem.Builder.add_constr b
    (Expr.add
       (Expr.var n :: Array.to_list (Array.mapi (fun i z -> Expr.scale (-.opts.(i)) (Expr.var z)) zs)))
    Lp.Lp_problem.Eq 0.;
  Problem.Builder.add_constr b (Expr.var n) Lp.Lp_problem.Le 10.;
  Problem.Builder.add_sos1 b (Array.to_list (Array.mapi (fun i z -> (z, opts.(i))) zs));
  let s = Milp.run (Problem.Builder.build b) in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float "obj" 12.5 s.Solution.obj;
  check_float "n" 8. s.Solution.x.(Array.length opts)

let test_milp_sos_branching_off_still_correct () =
  let p = knapsack_problem () in
  let options = { Milp.default_options with branch_sos_first = false } in
  let s = Milp.run ~options p in
  check_float "same optimum" 20. s.Solution.obj

let test_milp_branching_rules_agree () =
  let b = Problem.Builder.create () in
  let xs = List.init 6 (fun _ -> Problem.Builder.add_var b ~lo:0. ~hi:7. Problem.Integer) in
  Problem.Builder.set_objective b
    (Expr.linear (List.mapi (fun i x -> (x, float_of_int (i + 1))) xs));
  Problem.Builder.add_constr b
    (Expr.linear (List.map (fun x -> (x, 1.)) xs))
    Lp.Lp_problem.Ge 10.5;
  Problem.Builder.add_constr b
    (Expr.linear (List.mapi (fun i x -> (x, float_of_int ((i mod 3) + 1))) xs))
    Lp.Lp_problem.Ge 7.5;
  let p = Problem.Builder.build b in
  let solve rule = Milp.run ~options:{ Milp.default_options with branching = rule } p in
  let a = solve Milp.Most_fractional and c = solve Milp.Pseudocost in
  check_status "mf optimal" Solution.Optimal a.Solution.status;
  check_status "pc optimal" Solution.Optimal c.Solution.status;
  check_float "same optimum" a.Solution.obj c.Solution.obj

(* brute force comparison on random binary problems *)
let prop_milp_matches_enumeration =
  QCheck.Test.make ~name:"milp matches brute-force on binary problems" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let n = 2 + Numerics.Rng.int rng 4 in
      let m = 1 + Numerics.Rng.int rng 3 in
      let c = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:(-5.) ~hi:5.) in
      let rows =
        Array.init m (fun _ ->
            let coeffs = List.init n (fun j -> (j, Numerics.Rng.uniform rng ~lo:(-2.) ~hi:3.)) in
            let rhs = Numerics.Rng.uniform rng ~lo:0. ~hi:(2. *. float_of_int n) in
            (coeffs, rhs))
      in
      let b = Problem.Builder.create ~minimize:false () in
      let vars = Array.init n (fun _ -> Problem.Builder.add_var b Problem.Binary) in
      Problem.Builder.set_objective b
        (Expr.linear (Array.to_list (Array.mapi (fun j v -> (v, c.(j))) vars)));
      Array.iter
        (fun (coeffs, rhs) -> Problem.Builder.add_constr b (Expr.linear coeffs) Lp.Lp_problem.Le rhs)
        rows;
      let p = Problem.Builder.build b in
      let s = Milp.run p in
      (* brute force *)
      let best = ref neg_infinity in
      for mask = 0 to (1 lsl n) - 1 do
        let x = Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1. else 0.) in
        let ok =
          Array.for_all
            (fun (coeffs, rhs) ->
              List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. coeffs <= rhs +. 1e-9)
            rows
        in
        if ok then begin
          let v = Array.fold_left ( +. ) 0. (Array.mapi (fun j xv -> c.(j) *. xv) x) in
          if v > !best then best := v
        end
      done;
      if !best = neg_infinity then s.Solution.status = Solution.Infeasible
      else
        s.Solution.status = Solution.Optimal && Float.abs (s.Solution.obj -. !best) < 1e-6)

(* ---------- Model_text (AMPL-like front end) ---------- *)

let allocation_model_text =
  {|
  # two-component allocation, paper-style
  var T >= 0;
  var n_a integer >= 1 <= 64;
  var n_b integer >= 1 <= 64;
  minimize T;
  s.t. time_a: 300 / n_a^0.9 + 0.5 - T <= 0;
  s.t. time_b: 100 / n_b^0.9 + 0.5 - T <= 0;
  s.t. budget: n_a + n_b <= 40;
|}

let test_model_text_parse_and_solve () =
  let p = Model_text.parse allocation_model_text in
  Alcotest.(check int) "vars" 3 p.Problem.num_vars;
  let s = Oa.run p in
  check_status "status" Solution.Optimal s.Solution.status;
  (* heavy component gets roughly 3x the light one's nodes *)
  Alcotest.(check bool) "proportional" true (s.Solution.x.(1) > 2. *. s.Solution.x.(2))

let test_model_text_roundtrip () =
  let p = Model_text.parse allocation_model_text in
  let text = Format.asprintf "%a" Model_text.print p in
  let p2 = Model_text.parse text in
  let s1 = Oa.run p and s2 = Oa.run p2 in
  check_float ~eps:1e-9 "same optimum after roundtrip" s1.Solution.obj s2.Solution.obj

let test_model_text_sos1 () =
  let text =
    {|
    var T >= 0;
    var n integer >= 1 <= 32;
    var z1 binary; var z2 binary; var z3 binary;
    minimize T;
    s.t. time: 100 / n - T <= 0;
    s.t. choose: z1 + z2 + z3 = 1;
    s.t. link: n - 4*z1 - 8*z2 - 16*z3 = 0;
    sos1 spots: z1:4 z2:8 z3:16;
  |}
  in
  let p = Model_text.parse text in
  Alcotest.(check int) "one sos set" 1 (List.length p.Problem.sos1);
  let s = Oa.run p in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float ~eps:1e-6 "n = 16" 16. s.Solution.x.(1)

let test_model_text_operators () =
  (* precedence: 2 + 3 * 2^2 = 14; unary minus; parens; exp/log *)
  let text =
    {|
    var x >= 0 <= 10;
    minimize (x - 3)^2 + 2 + 3 * 2^2 - 14 + log(exp(0));
  |}
  in
  let p = Model_text.parse text in
  let s = Oa.run p in
  check_float ~eps:1e-4 "argmin" 3. s.Solution.x.(0);
  check_float ~eps:1e-4 "min value" 0. s.Solution.obj

let test_model_text_errors () =
  let raises text =
    try
      ignore (Model_text.parse text);
      false
    with Model_text.Parse_error _ -> true
  in
  Alcotest.(check bool) "unknown variable" true
    (raises "var x >= 0; minimize y;");
  Alcotest.(check bool) "no objective" true (raises "var x >= 0;");
  Alcotest.(check bool) "no vars" true (raises "minimize 3;");
  Alcotest.(check bool) "bad constraint" true
    (raises "var x >= 0; minimize x; s.t. c: x + 1;");
  Alcotest.(check bool) "nonconstant exponent" true
    (raises "var x >= 1; minimize x^x;");
  Alcotest.(check bool) "duplicate var" true
    (raises "var x >= 0; var x >= 0; minimize x;")

(* ---------- BNB and OA (convex MINLP) ---------- *)

(* min x^2 + y^2 s.t. x + y >= 3.5, x integer -> x = 2, y = 1.5 *)
let convex_mix_problem () =
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:10. Problem.Integer in
  let y = Problem.Builder.add_var b ~lo:0. ~hi:10. Problem.Continuous in
  Problem.Builder.set_objective b Expr.(pow (var x) 2. + pow (var y) 2.);
  Problem.Builder.add_constr b Expr.(var x + var y) Lp.Lp_problem.Ge 3.5;
  Problem.Builder.build b

let test_bnb_convex_mix () =
  let s = Bnb.run (convex_mix_problem ()) in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float ~eps:1e-3 "obj" 6.25 s.Solution.obj;
  check_float ~eps:1e-3 "x" 2. s.Solution.x.(0);
  check_float ~eps:1e-2 "y" 1.5 s.Solution.x.(1)

(* HSLB-shaped model: min T s.t. T >= a_i/n_i + d_i, sum n_i <= N, n_i int *)
let hslb_mini_problem ?(minimize = true) n_total specs =
  ignore minimize;
  let b = Problem.Builder.create () in
  let t = Problem.Builder.add_var b ~name:"T" ~lo:0. ~hi:1e9 Problem.Continuous in
  let ns =
    List.map
      (fun (name, _, _) ->
        Problem.Builder.add_var b ~name ~lo:1. ~hi:(float_of_int n_total) Problem.Integer)
      specs
  in
  Problem.Builder.set_objective b (Expr.var t);
  List.iteri
    (fun i (_, a, d) ->
      let n = List.nth ns i in
      Problem.Builder.add_constr b
        Expr.((const a / var n) + const d - var t)
        Lp.Lp_problem.Le 0.)
    specs;
  Problem.Builder.add_constr b
    (Expr.linear (List.map (fun n -> (n, 1.)) ns))
    Lp.Lp_problem.Le (float_of_int n_total);
  Problem.Builder.build b

let brute_force_hslb n_total specs =
  (* exhaustive over allocations for 2 components *)
  match specs with
  | [ (_, a1, d1); (_, a2, d2) ] ->
    let best = ref infinity in
    for n1 = 1 to n_total - 1 do
      let n2 = n_total - n1 in
      let t = Float.max ((a1 /. float_of_int n1) +. d1) ((a2 /. float_of_int n2) +. d2) in
      if t < !best then best := t
    done;
    !best
  | _ -> invalid_arg "brute_force_hslb"

let test_oa_hslb_mini () =
  let specs = [ ("n1", 100., 1.); ("n2", 300., 0.5) ] in
  let p = hslb_mini_problem 20 specs in
  let s = Oa.run p in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float ~eps:1e-4 "matches brute force" (brute_force_hslb 20 specs) s.Solution.obj

let test_bnb_hslb_mini () =
  let specs = [ ("n1", 100., 1.); ("n2", 300., 0.5) ] in
  let p = hslb_mini_problem 20 specs in
  let s = Bnb.run p in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float ~eps:1e-3 "matches brute force" (brute_force_hslb 20 specs) s.Solution.obj

let test_oa_multi_equals_oa () =
  let specs = [ ("n1", 180., 1.5); ("n2", 90., 0.7) ] in
  let p = hslb_mini_problem 24 specs in
  let single = Oa.run p in
  let multi = Oa_multi.run p in
  check_status "single" Solution.Optimal single.Solution.status;
  check_status "multi" Solution.Optimal multi.Oa_multi.solution.Solution.status;
  check_float ~eps:1e-4 "same optimum" single.Solution.obj
    multi.Oa_multi.solution.Solution.obj;
  Alcotest.(check bool) "few alternations" true (multi.Oa_multi.iterations <= 30)

let test_oa_multi_pure_milp () =
  let m = Oa_multi.run (knapsack_problem ()) in
  check_status "status" Solution.Optimal m.Oa_multi.solution.Solution.status;
  check_float "obj" 20. m.Oa_multi.solution.Solution.obj

let test_oa_equals_bnb () =
  let specs = [ ("n1", 250., 2.); ("n2", 80., 1.); ("n3", 40., 0.2) ] in
  let p = hslb_mini_problem 30 specs in
  let s1 = Oa.run p in
  let s2 = Bnb.run p in
  check_status "oa" Solution.Optimal s1.Solution.status;
  check_status "bnb" Solution.Optimal s2.Solution.status;
  check_float ~eps:1e-3 "same optimum" s2.Solution.obj s1.Solution.obj

let test_oa_nonlinear_objective () =
  (* min (x - 2.3)^2, x integer -> x = 2 *)
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:10. Problem.Integer in
  Problem.Builder.set_objective b Expr.(pow (var x - const 2.3) 2.);
  let p = Problem.Builder.build b in
  let s = Oa.run p in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float ~eps:1e-4 "x" 2. s.Solution.x.(0);
  Alcotest.(check int) "x in original space" 1 (Array.length s.Solution.x)

let test_oa_infeasible () =
  let b = Problem.Builder.create () in
  let x = Problem.Builder.add_var b ~lo:0. ~hi:5. Problem.Integer in
  Problem.Builder.set_objective b (Expr.var x);
  (* x^2 <= -1 impossible *)
  Problem.Builder.add_constr b Expr.(pow (var x) 2.) Lp.Lp_problem.Le (-1.);
  let s = Oa.run (Problem.Builder.build b) in
  check_status "status" Solution.Infeasible s.Solution.status

let test_oa_pure_milp_fallback () =
  let s = Oa.run (knapsack_problem ()) in
  check_status "status" Solution.Optimal s.Solution.status;
  check_float "obj" 20. s.Solution.obj

let test_oa_with_sos1_allocation () =
  (* ocean-style constraint: n2 restricted to {2,4,8,16} via SOS1 binaries *)
  let b = Problem.Builder.create () in
  let t = Problem.Builder.add_var b ~name:"T" ~lo:0. ~hi:1e9 Problem.Continuous in
  let n1 = Problem.Builder.add_var b ~name:"n1" ~lo:1. ~hi:32. Problem.Integer in
  let n2 = Problem.Builder.add_var b ~name:"n2" ~lo:1. ~hi:32. Problem.Continuous in
  let opts = [| 2.; 4.; 8.; 16. |] in
  let zs = Array.map (fun _ -> Problem.Builder.add_var b Problem.Binary) opts in
  Problem.Builder.set_objective b (Expr.var t);
  Problem.Builder.add_constr b Expr.((const 100. / var n1) - var t) Lp.Lp_problem.Le 0.;
  Problem.Builder.add_constr b Expr.((const 200. / var n2) - var t) Lp.Lp_problem.Le 0.;
  Problem.Builder.add_constr b (Expr.linear [ (n1, 1.); (n2, 1.) ]) Lp.Lp_problem.Le 24.;
  Problem.Builder.add_constr b
    (Expr.linear (Array.to_list (Array.map (fun z -> (z, 1.)) zs)))
    Lp.Lp_problem.Eq 1.;
  Problem.Builder.add_constr b
    (Expr.add
       (Expr.var n2 :: Array.to_list (Array.mapi (fun i z -> Expr.scale (-.opts.(i)) (Expr.var z)) zs)))
    Lp.Lp_problem.Eq 0.;
  Problem.Builder.add_sos1 b (Array.to_list (Array.mapi (fun i z -> (z, opts.(i))) zs));
  let s = Oa.run (Problem.Builder.build b) in
  check_status "status" Solution.Optimal s.Solution.status;
  (* brute force over n2 ∈ {2,4,8,16}, n1 = 24 - n2 (integer best) *)
  let best = ref infinity in
  Array.iter
    (fun n2v ->
      let n1v = 24. -. n2v in
      if n1v >= 1. then begin
        let t = Float.max (100. /. n1v) (200. /. n2v) in
        if t < !best then best := t
      end)
    opts;
  check_float ~eps:1e-4 "optimal" !best s.Solution.obj

(* Each solver's answer and work on fixed models: status, objective
   (compared as [%h], so bit for bit), nodes, LP and NLP solves, cuts
   (each generated cut once, after the root's seed cuts) and simplex
   pivots. A change to the search (branching, LP warm
   starts, pruning) shows here as a work-count delta to explain. Bnb
   sits out the sweet-spot models, as in E6b. *)
let pinned_work =
  [
    ("e6 2 classes", "oa", "optimal", 0x1.3e681b1994f39p+3, 6, 6, 3, 4, 43);
    ("e6 2 classes", "bnb", "optimal", 0x1.3e681b1994f38p+3, 4, 0, 6, 0, 1);
    ("e6 2 classes", "oa-multi", "optimal", 0x1.3e681b1994f39p+3, 8, 8, 2, 2, 53);
    ("e6 4 classes", "oa", "optimal", 0x1.1e1659ea3cbfap+4, 39, 39, 4, 12, 640);
    ("e6 4 classes", "bnb", "optimal", 0x1.1ebef3f2d45e6p+4, 18, 0, 20, 0, 8);
    ("e6 4 classes", "oa-multi", "optimal", 0x1.1e1659ea3cbf9p+4, 34, 34, 5, 16, 566);
    ("e6 2 classes, sweet spots", "oa", "optimal", 0x1.10a2e60124306p+4, 9, 9, 4, 6, 255);
    ("e6 2 classes, sweet spots", "oa-multi", "optimal", 0x1.10a2e60124303p+4, 7, 7, 5, 8, 180);
    ("e6 4 classes, sweet spots", "oa", "optimal", 0x1.c98f1be57d558p+4, 22, 22, 3, 8, 1255);
    ("e6 4 classes, sweet spots", "oa-multi", "optimal", 0x1.c98f1be57d55ap+4, 29, 29, 4, 12, 1556);
    ("e6 3 classes, min-sum", "oa", "optimal", 0x1.4a47c63fbad6p+5, 41, 41, 10, 27, 975);
    ("e6 3 classes, min-sum", "bnb", "optimal", 0x1.4a47c72348142p+5, 6, 0, 8, 0, 3);
    ("e6 3 classes, min-sum", "oa-multi", "optimal", 0x1.4a47c63fbad6p+5, 49, 49, 9, 24, 1366);
    ("allocation.mod", "oa", "optimal", 0x1.20575cdbe8ed8p+6, 12, 12, 3, 8, 168);
    ("allocation.mod", "bnb", "optimal", 0x1.2812b4639d8fep+6, 9, 0, 11, 0, 5);
    ("allocation.mod", "oa-multi", "optimal", 0x1.20575cdbe8ed8p+6, 14, 14, 3, 8, 162);
  ]

let e6_model ?allowed_count ~objective classes =
  let specs = Experiments.E6_solver.synthetic_specs ?allowed_count ~classes () in
  let p, _, _ = Hslb.Alloc_model.build_minlp ~objective ~n_total:(128 * classes) specs in
  p

let test_solver_work_pinned () =
  let models =
    [
      ("e6 2 classes", lazy (e6_model ~objective:Hslb.Objective.Min_max 2));
      ("e6 4 classes", lazy (e6_model ~objective:Hslb.Objective.Min_max 4));
      ( "e6 2 classes, sweet spots",
        lazy (e6_model ~allowed_count:10 ~objective:Hslb.Objective.Min_max 2) );
      ( "e6 4 classes, sweet spots",
        lazy (e6_model ~allowed_count:10 ~objective:Hslb.Objective.Min_max 4) );
      ("e6 3 classes, min-sum", lazy (e6_model ~objective:Hslb.Objective.Min_sum 3));
      ("allocation.mod", lazy (Model_text.parse_file "../examples/models/allocation.mod"));
    ]
  in
  List.iter
    (fun (model, solver, status, obj, nodes, lps, nlps, cuts, pivots) ->
      let p = Lazy.force (List.assoc model models) in
      let tally = Engine.Telemetry.create () in
      let s =
        match solver with
        | "oa" -> Oa.run ~tally p
        | "bnb" -> Bnb.run ~tally p
        | _ -> (Oa_multi.run ~tally p).Oa_multi.solution
      in
      let st = s.Solution.stats in
      let got =
        ( Solution.status_to_string s.Solution.status,
          Printf.sprintf "%h" s.Solution.obj,
          [ st.Solution.nodes; st.lp_solves; st.nlp_solves; st.cuts; tally.simplex_pivots ] )
      in
      Alcotest.(check (triple string string (list int)))
        (Printf.sprintf "%s, %s: status, objective, nodes/LPs/NLPs/cuts/pivots" model solver)
        (status, Printf.sprintf "%h" obj, [ nodes; lps; nlps; cuts; pivots ])
        got;
      (* the run report's [oa_cuts] counts the same cuts as the stats *)
      Alcotest.(check int)
        (Printf.sprintf "%s, %s: tally oa_cuts = stats cuts" model solver)
        st.Solution.cuts tally.oa_cuts)
    pinned_work

(* random 2-component HSLB allocations: OA matches brute force *)
let prop_oa_matches_brute_force =
  QCheck.Test.make ~name:"OA matches brute force on allocation MINLPs" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let n_total = 6 + Numerics.Rng.int rng 14 in
      let specs =
        [
          ("n1", Numerics.Rng.uniform rng ~lo:20. ~hi:400., Numerics.Rng.uniform rng ~lo:0. ~hi:3.);
          ("n2", Numerics.Rng.uniform rng ~lo:20. ~hi:400., Numerics.Rng.uniform rng ~lo:0. ~hi:3.);
        ]
      in
      let p = hslb_mini_problem n_total specs in
      let s = Oa.run p in
      s.Solution.status = Solution.Optimal
      && Float.abs (s.Solution.obj -. brute_force_hslb n_total specs)
         <= 1e-3 *. (1. +. Float.abs s.Solution.obj))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_diff_matches_numeric;
        prop_compiled_matches_interp;
        prop_milp_matches_enumeration;
        prop_oa_matches_brute_force;
      ]
  in
  Alcotest.run "minlp"
    [
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "diff" `Quick test_expr_diff;
          Alcotest.test_case "diff div/log/exp" `Quick test_expr_diff_div_log_exp;
          Alcotest.test_case "simplify" `Quick test_expr_simplify;
          Alcotest.test_case "linear parts" `Quick test_expr_linear;
          Alcotest.test_case "vars" `Quick test_expr_vars;
          Alcotest.test_case "gradient vs numeric" `Quick test_expr_gradient_matches_numeric;
          Alcotest.test_case "linearize" `Quick test_expr_linearize;
          Alcotest.test_case "compiled arity guard" `Quick test_compiled_arity_guard;
        ] );
      ( "problem",
        [
          Alcotest.test_case "builder" `Quick test_builder_basic;
          Alcotest.test_case "rejects nonlinear eq" `Quick test_builder_rejects_nonlinear_eq;
          Alcotest.test_case "epigraph normalize" `Quick test_normalize_epigraph;
          Alcotest.test_case "integrality helpers" `Quick test_integrality_helpers;
          Alcotest.test_case "violated sos1" `Quick test_violated_sos1;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "tightens budget" `Quick test_presolve_tightens_budget;
          Alcotest.test_case "detects infeasible" `Quick test_presolve_detects_infeasible;
          Alcotest.test_case "integer rounding" `Quick test_presolve_integer_rounding;
          Alcotest.test_case "equality both ways" `Quick
            test_presolve_equality_propagates_both_ways;
          Alcotest.test_case "free var poisons" `Quick
            test_presolve_leaves_infinite_activities_alone;
        ] );
      ( "model_text",
        [
          Alcotest.test_case "parse and solve" `Quick test_model_text_parse_and_solve;
          Alcotest.test_case "roundtrip" `Quick test_model_text_roundtrip;
          Alcotest.test_case "sos1" `Quick test_model_text_sos1;
          Alcotest.test_case "operators" `Quick test_model_text_operators;
          Alcotest.test_case "errors" `Quick test_model_text_errors;
        ] );
      ( "milp",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "general integer" `Quick test_milp_integer_general;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "sos1 selection" `Quick test_milp_sos1_selection;
          Alcotest.test_case "sos branching off" `Quick test_milp_sos_branching_off_still_correct;
          Alcotest.test_case "branching rules agree" `Quick test_milp_branching_rules_agree;
        ] );
      ( "convex minlp",
        [
          Alcotest.test_case "bnb convex mix" `Quick test_bnb_convex_mix;
          Alcotest.test_case "oa hslb mini" `Quick test_oa_hslb_mini;
          Alcotest.test_case "bnb hslb mini" `Quick test_bnb_hslb_mini;
          Alcotest.test_case "oa = bnb" `Quick test_oa_equals_bnb;
          Alcotest.test_case "multi-tree oa = oa" `Quick test_oa_multi_equals_oa;
          Alcotest.test_case "multi-tree pure milp" `Quick test_oa_multi_pure_milp;
          Alcotest.test_case "nonlinear objective" `Quick test_oa_nonlinear_objective;
          Alcotest.test_case "infeasible" `Quick test_oa_infeasible;
          Alcotest.test_case "pure milp fallback" `Quick test_oa_pure_milp_fallback;
          Alcotest.test_case "sos1 allocation" `Quick test_oa_with_sos1_allocation;
          Alcotest.test_case "solver work pinned" `Quick test_solver_work_pinned;
        ] );
      ("properties", qsuite);
    ]
