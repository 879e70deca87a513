(* Unit and property tests for the LP library (two-phase simplex). *)

open Lp

let feq ?(eps = 1e-7) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a +. Float.abs b)

let check_float ?(eps = 1e-7) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let status_name = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration_limit"

let check_status msg expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %s, got %s" msg (status_name expected) (status_name actual)

let le coeffs rhs = { Lp_problem.coeffs; sense = Lp_problem.Le; rhs }
let ge coeffs rhs = { Lp_problem.coeffs; sense = Lp_problem.Ge; rhs }
let eq coeffs rhs = { Lp_problem.coeffs; sense = Lp_problem.Eq; rhs }

(* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12 *)
let test_max_basic () =
  let p = Lp_problem.make ~minimize:false ~num_vars:2 () in
  let p = Lp_problem.set_objective p [| 3.; 2. |] in
  let p = Lp_problem.add_constraints p [ le [ (0, 1.); (1, 1.) ] 4.; le [ (0, 1.); (1, 3.) ] 6. ] in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  check_float "obj" 12. s.obj;
  check_float "x" 4. s.x.(0);
  check_float "y" 0. s.x.(1)

(* min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> intersection (8/5, 6/5), obj 14/5 *)
let test_min_ge () =
  let p = Lp_problem.make ~num_vars:2 () in
  let p = Lp_problem.set_objective p [| 1.; 1. |] in
  let p = Lp_problem.add_constraints p [ ge [ (0, 1.); (1, 2.) ] 4.; ge [ (0, 3.); (1, 1.) ] 6. ] in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  check_float "obj" 2.8 s.obj

let test_equality () =
  (* min 2x + 3y s.t. x + y = 10, x <= 6 -> x=6, y=4, obj 24 *)
  let p = Lp_problem.make ~num_vars:2 () in
  let p = Lp_problem.set_objective p [| 2.; 3. |] in
  let p = Lp_problem.set_bounds p 0 ~lo:0. ~hi:6. in
  let p = Lp_problem.add_constraint p (eq [ (0, 1.); (1, 1.) ] 10.) in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  check_float "obj" 24. s.obj;
  check_float "x" 6. s.x.(0);
  check_float "y" 4. s.x.(1)

let test_infeasible () =
  let p = Lp_problem.make ~num_vars:1 () in
  let p = Lp_problem.add_constraints p [ ge [ (0, 1.) ] 5.; le [ (0, 1.) ] 3. ] in
  let s = Simplex.run p in
  check_status "status" Simplex.Infeasible s.status

let test_infeasible_bounds () =
  (* bounds force x in [2,3] but constraint demands x >= 10 *)
  let p = Lp_problem.make ~num_vars:1 () in
  let p = Lp_problem.set_bounds p 0 ~lo:2. ~hi:3. in
  let p = Lp_problem.add_constraint p (ge [ (0, 1.) ] 10.) in
  let s = Simplex.run p in
  check_status "status" Simplex.Infeasible s.status

let test_unbounded () =
  let p = Lp_problem.make ~minimize:false ~num_vars:1 () in
  let p = Lp_problem.set_objective p [| 1. |] in
  let s = Simplex.run p in
  check_status "status" Simplex.Unbounded s.status

let test_free_variable () =
  (* min x with x free and x >= -7 via constraint -> x = -7 *)
  let p = Lp_problem.make ~num_vars:1 () in
  let p = Lp_problem.set_bounds p 0 ~lo:neg_infinity ~hi:infinity in
  let p = Lp_problem.set_objective p [| 1. |] in
  let p = Lp_problem.add_constraint p (ge [ (0, 1.) ] (-7.)) in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  check_float "x" (-7.) s.x.(0)

let test_negative_lower_bound () =
  (* min x + y, x in [-5, 5], y in [-2, 2], x + y >= -4 -> obj -4 *)
  let p = Lp_problem.make ~num_vars:2 () in
  let p = Lp_problem.set_bounds p 0 ~lo:(-5.) ~hi:5. in
  let p = Lp_problem.set_bounds p 1 ~lo:(-2.) ~hi:2. in
  let p = Lp_problem.set_objective p [| 1.; 1. |] in
  let p = Lp_problem.add_constraint p (ge [ (0, 1.); (1, 1.) ] (-4.)) in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  check_float "obj" (-4.) s.obj

let test_upper_bounded_only () =
  (* max x, x <= 3 via variable bound only, lo = -inf *)
  let p = Lp_problem.make ~minimize:false ~num_vars:1 () in
  let p = Lp_problem.set_bounds p 0 ~lo:neg_infinity ~hi:3. in
  let p = Lp_problem.set_objective p [| 1. |] in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  check_float "x" 3. s.x.(0)

let test_degenerate () =
  (* classic degenerate LP still terminates and finds the optimum:
     max 10x1 - 57x2 - 9x3 - 24x4 (Beale-like); bounded by x1 <= 1 row *)
  let p = Lp_problem.make ~minimize:false ~num_vars:4 () in
  let p = Lp_problem.set_objective p [| 10.; -57.; -9.; -24. |] in
  let p =
    Lp_problem.add_constraints p
      [
        le [ (0, 0.5); (1, -5.5); (2, -2.5); (3, 9.) ] 0.;
        le [ (0, 0.5); (1, -1.5); (2, -0.5); (3, 1.) ] 0.;
        le [ (0, 1.) ] 1.;
      ]
  in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  check_float "obj" 1. s.obj

let test_solution_feasibility () =
  let p = Lp_problem.make ~num_vars:3 () in
  let p = Lp_problem.set_objective p [| 1.; 2.; 3. |] in
  let p =
    Lp_problem.add_constraints p
      [ ge [ (0, 1.); (1, 1.); (2, 1.) ] 10.; le [ (0, 1.); (1, -1.) ] 4.; eq [ (2, 1.) ] 2. ]
  in
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  Alcotest.(check bool) "feasible" true (Lp_problem.feasible p s.x)

let test_bad_inputs () =
  Alcotest.check_raises "bounds crossed" (Invalid_argument "Lp_problem.set_bounds: lo > hi")
    (fun () -> ignore (Lp_problem.set_bounds (Lp_problem.make ~num_vars:1 ()) 0 ~lo:2. ~hi:1.));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Lp_problem.add_constraint: index out of range") (fun () ->
      ignore (Lp_problem.add_constraint (Lp_problem.make ~num_vars:1 ()) (le [ (3, 1.) ] 0.)))

(* ---------- an independent oracle: vertex enumeration ---------- *)

(* a random LP around a point x0 in [0, 10]^nv, which every row holds,
   with every variable boxed in [0, 100] *)
let random_lp rng nv nc =
  let x0 = Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:0. ~hi:10.) in
  let p = Lp_problem.make ~num_vars:nv () in
  let c = Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:(-5.) ~hi:5.) in
  let p = Lp_problem.set_objective p c in
  let rows =
    List.init nc (fun _ ->
        let coeffs =
          List.init nv (fun j -> (j, Numerics.Rng.uniform rng ~lo:(-3.) ~hi:3.))
        in
        let lhs = List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0. coeffs in
        match Numerics.Rng.int rng 3 with
        | 0 -> le coeffs (lhs +. Numerics.Rng.float rng 5.)
        | 1 -> ge coeffs (lhs -. Numerics.Rng.float rng 5.)
        | _ -> eq coeffs lhs)
  in
  let p = Lp_problem.add_constraints p rows in
  List.fold_left (fun p j -> Lp_problem.set_bounds p j ~lo:0. ~hi:100.) p
    (List.init nv Fun.id)

(* how far [x] breaks a row, relative to the row's own magnitude
   1 + |rhs| + sum |a_j x_j|; 0 when it holds *)
let row_violation (row : Lp_problem.constr) x =
  let lhs = Lp_problem.eval_constraint row x in
  let mag =
    List.fold_left
      (fun acc (j, a) -> acc +. Float.abs (a *. x.(j)))
      (1. +. Float.abs row.rhs) row.coeffs
  in
  let v =
    match row.sense with
    | Lp_problem.Le -> lhs -. row.rhs
    | Lp_problem.Ge -> row.rhs -. lhs
    | Lp_problem.Eq -> Float.abs (lhs -. row.rhs)
  in
  Float.max 0. v /. mag

(* the worst relative violation of any row or bound at [x] *)
let max_violation (p : Lp_problem.t) x =
  let worst = ref 0. in
  Array.iter (fun row -> worst := Float.max !worst (row_violation row x)) p.constraints;
  for j = 0 to p.num_vars - 1 do
    worst := Float.max !worst (row_violation (ge [ (j, 1.) ] p.lower.(j)) x);
    worst := Float.max !worst (row_violation (le [ (j, 1.) ] p.upper.(j)) x)
  done;
  !worst

(* the oracle's answer: the best objective over the feasible vertices *)
type verdict = Vertex of float | No_vertex

(* A boxed LP attains its optimum, when it has one, at a vertex: a point
   where n linearly independent constraints (rows or bounds) hold with
   equality. The oracle solves every choice of n of them with
   [Numerics.Mat.solve], keeps the solutions that satisfy every
   constraint to 1e-9 relative and returns the best; finding none means
   the LP is infeasible. It shares no arithmetic with the simplex, and
   it costs C(m + 2n, n) solves, so it is for n <= 4 and m <= 6. *)
let oracle (p : Lp_problem.t) =
  let n = p.num_vars in
  let unit j = Array.init n (fun k -> if k = j then 1. else 0.) in
  let dense (row : Lp_problem.constr) =
    let a = Array.make n 0. in
    List.iter (fun (j, c) -> a.(j) <- a.(j) +. c) row.coeffs;
    (a, row.rhs)
  in
  let planes =
    Array.concat
      [
        Array.map dense p.constraints;
        Array.init n (fun j -> (unit j, p.lower.(j)));
        Array.init n (fun j -> (unit j, p.upper.(j)));
      ]
  in
  let best = ref No_vertex in
  let better v = function
    | No_vertex -> true
    | Vertex b -> if p.minimize then v < b else v > b
  in
  let try_vertex chosen =
    let a = Numerics.Mat.of_arrays (Array.of_list (List.map (fun i -> fst planes.(i)) chosen)) in
    let b = Array.of_list (List.map (fun i -> snd planes.(i)) chosen) in
    match Numerics.Mat.solve a b with
    | exception Numerics.Mat.Singular -> ()
    | x ->
      if max_violation p x <= 1e-9 then begin
        let v = Lp_problem.objective_value p x in
        if better v !best then best := Vertex v
      end
  in
  (* every n-subset of the planes, in increasing index order *)
  let rec choose from k chosen =
    if k = 0 then try_vertex (List.rev chosen)
    else
      for i = from to Array.length planes - k do
        choose (i + 1) (k - 1) (i :: chosen)
      done
  in
  choose 0 n [];
  !best

(* [random_lp] with up to two arbitrary rows appended, which make some
   draws infeasible *)
let oracle_lp seed =
  let rng = Numerics.Rng.create seed in
  let nv = 1 + Numerics.Rng.int rng 4 and nc = 1 + Numerics.Rng.int rng 4 in
  let p = random_lp rng nv nc in
  let extra =
    List.init (Numerics.Rng.int rng 3) (fun _ ->
        let coeffs =
          List.init nv (fun j -> (j, Numerics.Rng.uniform rng ~lo:(-3.) ~hi:3.))
        in
        let rhs = Numerics.Rng.uniform rng ~lo:(-100.) ~hi:100. in
        match Numerics.Rng.int rng 3 with
        | 0 -> le coeffs rhs
        | 1 -> ge coeffs rhs
        | _ -> eq coeffs rhs)
  in
  Lp_problem.add_constraints p extra

(* the kernel and the oracle agree on the status and the objective, and
   the kernel's point satisfies every row and bound *)
let prop_oracle_agrees =
  QCheck.Test.make ~name:"simplex = vertex-enumeration oracle" ~count:2000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = oracle_lp seed in
      let s = Simplex.run p in
      match (oracle p, s.status) with
      | No_vertex, Simplex.Infeasible -> true
      | Vertex v, Simplex.Optimal ->
        if not (feq ~eps:1e-7 v s.obj) then
          QCheck.Test.fail_reportf "seed %d: objective %.17g, oracle %.17g" seed s.obj v;
        let viol = max_violation p s.x in
        if viol > 1e-6 then
          QCheck.Test.fail_reportf "seed %d: x breaks a row by %.3g relative" seed viol;
        true
      | verdict, st ->
        QCheck.Test.fail_reportf "seed %d: simplex %s, oracle %s" seed (status_name st)
          (match verdict with No_vertex -> "infeasible" | Vertex _ -> "optimal"))

(* ---------- phase 1 on near-parallel rows ---------- *)

(* A node LP of OA's master tree on test_hslb's [random_instance] seed
   842991, bit for bit: T (x0) over four class sizes (x1-x4), x4 a
   sweet-spot size chosen by the binaries x5-x10, and eight OA cuts, of
   which the two on x4 agree to 7 significant digits. The exact optimum
   (T = 69.6289 at sizes 26, 11, 6, 3) lies in this box and satisfies
   every row. Phase 1 stalls at 4.75e-7 here, which an absolute 1e-7
   test called infeasible, pruning the node that holds the optimum. *)
let seed_842991_node_lp () =
  let p = Lp_problem.make ~num_vars:11 () in
  let p = Lp_problem.set_objective p [| 1.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |] in
  let p =
    Lp_problem.with_bounds p
      ~lo:[| 0.; 7.; 11.; 6.; 1.; 0.; 0.; 0.; 0.; 0.; 0. |]
      ~hi:[| 0x1.d1a94a2p+39; 26.; 28.; 6.; 14.; 1.; 1.; 0.; 0.; 0.; 0. |]
  in
  Lp_problem.add_constraints p
    [
      le [ (1, 2.); (2, 4.); (3, 5.); (4, 2.) ] 133.;
      eq [ (5, 1.); (6, 1.); (7, 1.); (8, 1.); (9, 1.); (10, 1.) ] 1.;
      eq [ (4, 1.); (5, -3.); (6, -11.); (7, -62.); (8, -68.); (9, -86.); (10, -88.) ] 0.;
      le [ (0, -1.); (1, -0x1.4ae47e995ec37p+0) ] (-0x1.9c534c35f2464p+6);
      le [ (0, -1.); (2, -0x1.ef1b05c954f25p+1) ] (-0x1.b7e36b1843613p+6);
      le [ (0, -1.); (3, -0x1.a58e65bd4a77ep+3) ] (-0x1.111380b5b2879p+7);
      le [ (0, -1.); (4, -0x1.3bec9ec388463p+2) ] (-0x1.26617bddd1febp+5);
      le [ (0, -1.); (1, -0x1.a4de9f4da5149p+0) ] (-0x1.c0b230600aee6p+6);
      le [ (0, -1.); (2, -0x1.f9bb965a383fap+1) ] (-0x1.bb907f18bce66p+6);
      le [ (0, -1.); (3, -0x1.d1feb50f3441bp+2) ] (-0x1.9442e81a882fdp+6);
      le [ (0, -1.); (4, -0x1.3bec9fc3b0d4cp+2) ] (-0x1.26617c3de1343p+5);
    ]

let test_near_parallel_cuts_feasible () =
  let p = seed_842991_node_lp () in
  let optimum = [| 0x1.1683ffdbdc7b5p+6; 26.; 11.; 6.; 3.; 1.; 0.; 0.; 0.; 0.; 0. |] in
  Alcotest.(check bool) "the exact optimum satisfies every row" true
    (max_violation p optimum <= 1e-12);
  let s = Simplex.run p in
  check_status "status" Simplex.Optimal s.status;
  Alcotest.(check bool) "x satisfies every row to 1e-6 relative" true
    (max_violation p s.x <= 1e-6);
  Alcotest.(check bool) "objective at most the exact optimum's T" true
    (s.obj <= optimum.(0) +. 1e-6)

(* a row of magnitude 1e11 beside a contradiction of 1e-3 between two
   small rows: scaling the phase-1 test by one global number would let
   the big row hide the contradiction *)
let test_mixed_scale_infeasible () =
  let p = Lp_problem.make ~num_vars:2 () in
  let p =
    Lp_problem.add_constraints p [ ge [ (0, 1.) ] 1e11; ge [ (1, 1.) ] 5.; le [ (1, 1.) ] 4.999 ]
  in
  check_status "status" Simplex.Infeasible (Simplex.run p).status

(* OA's master LPs in miniature: T (x0) over one to three class sizes,
   a node budget and four or five tangent cuts T >= f(p) + f'(p)(x - p)
   of convex scaling laws f(x) = a x^-c + d. Half the cuts come with a
   twin at a point 1e-8 relative away, a near-parallel copy that agrees
   with its cut to 8 digits, as OA's cuts on one class do. Every draw is
   feasible: the integral sizes x0 with T0 = max f(x0) satisfy every
   row, since tangents lie below a convex law. *)
let near_parallel_cuts_lp seed =
  let rng = Numerics.Rng.create seed in
  let uniform lo hi = Numerics.Rng.uniform rng ~lo ~hi in
  let k = 1 + Numerics.Rng.int rng 3 in
  let laws = Array.init k (fun _ -> (uniform 1. 500., uniform 0.5 1.2, uniform 0. 5.)) in
  let f (a, c, d) x = (a *. (x ** -.c)) +. d in
  let df (a, c, _) x = -.c *. a *. (x ** (-.c -. 1.)) in
  let lo = Array.init k (fun _ -> float_of_int (1 + Numerics.Rng.int rng 8)) in
  let hi = Array.map (fun l -> l +. float_of_int (1 + Numerics.Rng.int rng 64)) lo in
  let x0 = Array.init k (fun j -> Float.round (uniform lo.(j) hi.(j))) in
  let t0 = Array.fold_left Float.max 0. (Array.mapi (fun j x -> f laws.(j) x) x0) in
  (* T >= f(p) + f'(p)(x - p)  <=>  -T + f'(p) x <= f'(p) p - f(p) *)
  let cut j pt =
    let g = df laws.(j) pt in
    le [ (0, -1.); (j + 1, g) ] ((g *. pt) -. f laws.(j) pt)
  in
  let cuts =
    List.concat
      (List.init
         (5 - Numerics.Rng.int rng 2)
         (fun _ ->
           let j = Numerics.Rng.int rng k in
           let pt = uniform lo.(j) hi.(j) in
           if Numerics.Rng.bool rng then [ cut j pt; cut j (pt *. (1. +. (1e-8 *. uniform 0.1 1.))) ]
           else [ cut j pt ]))
  in
  let cuts = List.filteri (fun i _ -> i < 5) cuts in
  let w = Array.init k (fun _ -> float_of_int (1 + Numerics.Rng.int rng 5)) in
  let used = ref 0. in
  Array.iteri (fun j x -> used := !used +. (w.(j) *. x)) x0;
  let budget =
    le (List.init k (fun j -> (j + 1, w.(j)))) (!used +. float_of_int (Numerics.Rng.int rng 3))
  in
  let p = Lp_problem.make ~num_vars:(k + 1) () in
  let p = Lp_problem.set_objective p (Array.init (k + 1) (fun j -> if j = 0 then 1. else 0.)) in
  let p = Lp_problem.add_constraints p (budget :: cuts) in
  let p =
    Lp_problem.with_bounds p ~lo:(Array.append [| 0. |] lo) ~hi:(Array.append [| 1e12 |] hi)
  in
  (p, Array.append [| t0 |] x0)

(* phase 1 must not give up on a feasible LP: at an absolute 1e-7 test
   about 1 draw in 700 came back infeasible *)
let prop_near_parallel_feasible =
  QCheck.Test.make ~name:"near-parallel cuts stay feasible" ~count:4000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p, witness = near_parallel_cuts_lp seed in
      if max_violation p witness > 1e-9 then
        QCheck.Test.fail_reportf "seed %d: the witness breaks a row" seed;
      match (oracle p, (Simplex.run p).status) with
      | Vertex _, Simplex.Optimal -> true
      | No_vertex, _ -> QCheck.Test.fail_reportf "seed %d: the oracle finds no vertex" seed
      | Vertex _, st -> QCheck.Test.fail_reportf "seed %d: simplex %s" seed (status_name st))

(* ---------- presolve ---------- *)

let bits = Int64.bits_of_float

let reduced_of msg p =
  match Presolve.reduce p with
  | `Reduced r -> r
  | `Infeasible -> Alcotest.failf "%s: unexpected `Infeasible" msg
  | `Solved _ -> Alcotest.failf "%s: unexpected `Solved" msg

let test_presolve_empty_rows () =
  (* a constant row within tolerance is dropped; a violated one is
     proof of infeasibility *)
  let p = Lp_problem.make ~num_vars:2 () in
  let p = Lp_problem.set_objective p [| 1.; 1. |] in
  let p = Lp_problem.add_constraints p [ le [] 5.; le [ (0, 1.); (1, 1.) ] 4. ] in
  let r = reduced_of "feasible empty row" p in
  Alcotest.(check int) "empty row dropped" 1 (Presolve.rows_dropped r);
  let bad = Lp_problem.add_constraint p (le [] (-3.)) in
  match Presolve.reduce bad with
  | `Infeasible -> ()
  | `Solved _ | `Reduced _ -> Alcotest.fail "violated constant row must be infeasible"

let test_presolve_singleton_tightens () =
  (* 2x <= 4 folds into the box (x <= 2) and the row disappears *)
  let p = Lp_problem.make ~minimize:false ~num_vars:2 () in
  let p = Lp_problem.set_objective p [| 1.; 1. |] in
  let p = Lp_problem.set_bounds p 1 ~lo:0. ~hi:1. in
  let p = Lp_problem.add_constraints p [ le [ (0, 2.) ] 4.; le [ (0, 1.); (1, 1.) ] 50. ] in
  let r = reduced_of "singleton" p in
  Alcotest.(check int) "singleton row dropped" 1 (Presolve.rows_dropped r);
  let s = Simplex.run (Presolve.reduced r) in
  check_status "reduced solves" Simplex.Optimal s.status;
  let x = Presolve.recover r s.x in
  check_float "x bounded by tightened box" 2. x.(0);
  check_float "recover keeps free vars" 1. x.(1)

let test_presolve_fixed_substitution () =
  (* lo = hi pins x1; its contribution moves into the rhs and the
     reduced problem has one fewer column *)
  let p = Lp_problem.make ~num_vars:3 () in
  let p = Lp_problem.set_objective p [| 1.; 5.; 1. |] in
  let p = Lp_problem.set_bounds p 1 ~lo:2. ~hi:2. in
  let p =
    Lp_problem.add_constraints p
      [ ge [ (0, 1.); (1, 1.); (2, 1.) ] 7.; le [ (0, 1.); (2, 1.) ] 100. ]
  in
  let r = reduced_of "fixed" p in
  Alcotest.(check int) "one var fixed" 1 (Presolve.vars_fixed r);
  Alcotest.(check int) "reduced dimension" 2 (Presolve.reduced r).Lp_problem.num_vars;
  let s = Simplex.run (Presolve.reduced r) in
  check_status "reduced solves" Simplex.Optimal s.status;
  let x = Presolve.recover r s.x in
  check_float "fixed var restored" 2. x.(1);
  (* x0 + x2 >= 5 after substitution, objective x0 + x2 minimal at 5 *)
  check_float "recovered point satisfies original rows" 5. (x.(0) +. x.(2));
  Alcotest.(check bool) "feasible in original space" true (Lp_problem.feasible p x)

let test_presolve_all_fixed_solved () =
  let p = Lp_problem.make ~num_vars:2 () in
  let p = Lp_problem.set_bounds p 0 ~lo:1. ~hi:1. in
  let p = Lp_problem.set_bounds p 1 ~lo:3. ~hi:3. in
  let p = Lp_problem.add_constraint p (le [ (0, 1.); (1, 1.) ] 4.) in
  (match Presolve.reduce p with
  | `Solved x ->
    check_float "x0" 1. x.(0);
    check_float "x1" 3. x.(1)
  | `Infeasible | `Reduced _ -> Alcotest.fail "fully pinned feasible LP must be `Solved");
  let p_bad = Lp_problem.set_bounds p 1 ~lo:3.5 ~hi:3.5 in
  match Presolve.reduce p_bad with
  | `Infeasible -> ()
  | `Solved _ | `Reduced _ -> Alcotest.fail "pinned point violating a row must be infeasible"

let test_presolve_scaling_exact () =
  (* power-of-two equilibration touches exponents only: scaled
     coefficients are exactly representable rescalings and the solved
     objective matches the unscaled solve to the last bit *)
  let p = Lp_problem.make ~num_vars:2 () in
  let p = Lp_problem.set_objective p [| 1.; 1. |] in
  let p =
    Lp_problem.add_constraints p
      [ ge [ (0, 1024.); (1, 512.) ] 2048.; ge [ (0, 0.125); (1, 0.25) ] 0.5 ]
  in
  let r = reduced_of "scaling" p in
  let pr = Presolve.reduced r in
  Array.iter
    (fun (row : Lp_problem.constr) ->
      let maxabs =
        List.fold_left (fun acc (_, a) -> Float.max acc (Float.abs a)) 0. row.coeffs
      in
      Alcotest.(check bool)
        (Printf.sprintf "row equilibrated (maxabs %g)" maxabs)
        true
        (maxabs >= 0.5 && maxabs < 1.))
    pr.Lp_problem.constraints;
  let s_scaled = Simplex.run pr in
  let s_plain = Simplex.run p in
  check_status "scaled status" s_plain.status s_scaled.status;
  Alcotest.(check bool) "objective bits unchanged by scaling" true
    (bits s_scaled.obj = bits s_plain.obj)

let test_with_bounds () =
  let p = Lp_problem.make ~num_vars:2 () in
  let p = Lp_problem.set_objective p [| 1.; 1. |] in
  let p = Lp_problem.add_constraint p (ge [ (0, 1.); (1, 1.) ] 1.) in
  let q = Lp_problem.with_bounds p ~lo:[| 0.5; 0. |] ~hi:[| 10.; 10. |] in
  let s = Simplex.run q in
  check_status "status" Simplex.Optimal s.status;
  check_float "obj respects swapped box" 1. s.obj;
  Alcotest.(check bool) "x0 honors replaced lower bound" true (s.x.(0) >= 0.5);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Lp_problem.with_bounds: bound length mismatch") (fun () ->
      ignore (Lp_problem.with_bounds p ~lo:[| 0. |] ~hi:[| 1.; 2. |]));
  Alcotest.check_raises "crossed bounds"
    (Invalid_argument "Lp_problem.with_bounds: lo > hi") (fun () ->
      ignore (Lp_problem.with_bounds p ~lo:[| 0.; 3. |] ~hi:[| 1.; 2. |]))

(* property: for random LPs constructed around a known feasible point x0,
   the solver returns a feasible solution at least as good as x0 *)
let prop_solver_dominates_witness =
  QCheck.Test.make ~name:"simplex dominates known feasible point" ~count:100
    QCheck.(pair (pair (int_range 1 6) (int_range 1 8)) (int_range 0 100_000))
    (fun ((nv, nc), seed) ->
      let rng = Numerics.Rng.create seed in
      let x0 = Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:0. ~hi:10.) in
      let p = Lp_problem.make ~num_vars:nv () in
      let c = Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:(-5.) ~hi:5.) in
      let p = Lp_problem.set_objective p c in
      let rows =
        List.init nc (fun _ ->
            let coeffs =
              List.init nv (fun j -> (j, Numerics.Rng.uniform rng ~lo:(-3.) ~hi:3.))
            in
            let lhs = List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0. coeffs in
            (* randomly Le with slack or Ge with slack, always satisfied by x0 *)
            if Numerics.Rng.bool rng then le coeffs (lhs +. Numerics.Rng.float rng 5.)
            else ge coeffs (lhs -. Numerics.Rng.float rng 5.))
      in
      (* keep it bounded: x_j <= 100 *)
      let p = Lp_problem.add_constraints p rows in
      let p =
        List.fold_left (fun p j -> Lp_problem.set_bounds p j ~lo:0. ~hi:100.) p
          (List.init nv Fun.id)
      in
      let s = Simplex.run p in
      match s.status with
      | Simplex.Optimal ->
        Lp_problem.feasible ~tol:1e-5 p s.x && s.obj <= Lp_problem.objective_value p x0 +. 1e-6
      | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit -> false)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_solver_dominates_witness; prop_oracle_agrees; prop_near_parallel_feasible ]
  in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "max basic" `Quick test_max_basic;
          Alcotest.test_case "min with >=" `Quick test_min_ge;
          Alcotest.test_case "equality" `Quick test_equality;
          Alcotest.test_case "infeasible rows" `Quick test_infeasible;
          Alcotest.test_case "infeasible bounds" `Quick test_infeasible_bounds;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "negative lower bound" `Quick test_negative_lower_bound;
          Alcotest.test_case "upper bound, free below" `Quick test_upper_bounded_only;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "solution feasibility" `Quick test_solution_feasibility;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
          Alcotest.test_case "near-parallel cuts, seed 842991" `Quick
            test_near_parallel_cuts_feasible;
          Alcotest.test_case "mixed-scale rows stay infeasible" `Quick
            test_mixed_scale_infeasible;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "empty rows" `Quick test_presolve_empty_rows;
          Alcotest.test_case "singleton tightening" `Quick test_presolve_singleton_tightens;
          Alcotest.test_case "fixed-variable substitution" `Quick
            test_presolve_fixed_substitution;
          Alcotest.test_case "all vars fixed" `Quick test_presolve_all_fixed_solved;
          Alcotest.test_case "power-of-two scaling is exact" `Quick
            test_presolve_scaling_exact;
          Alcotest.test_case "with_bounds" `Quick test_with_bounds;
        ] );
      ("properties", qsuite);
    ]
