(* Tests for the simulated machine and the scaling-law family. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let test_machine_make () =
  let m = Machine.make ~name:"test" ~num_nodes:100 () in
  Alcotest.(check int) "nodes" 100 m.Machine.num_nodes;
  Alcotest.(check int) "cores" 400 (Machine.cores m);
  Alcotest.check_raises "bad nodes" (Invalid_argument "Machine.make: num_nodes must be positive")
    (fun () -> ignore (Machine.make ~name:"x" ~num_nodes:0 ()))

let test_intrepid () =
  Alcotest.(check int) "intrepid nodes" 40_960 Machine.intrepid.Machine.num_nodes;
  Alcotest.(check int) "intrepid cores" 163_840 (Machine.cores Machine.intrepid)

let test_with_noise () =
  let m = Machine.with_noise Machine.intrepid 0.5 in
  check_float "noise" 0.5 m.Machine.noise_sigma;
  Alcotest.(check string) "name preserved" "intrepid" m.Machine.name

let test_law_eval () =
  let law = Scaling_law.make ~a:100. ~b:0.01 ~c:1. ~d:5. in
  check_float "n=1" 105.01 (Scaling_law.eval law 1.);
  check_float "n=10" ((100. /. 10.) +. 0.1 +. 5.) (Scaling_law.eval law 10.);
  check_float "int" (Scaling_law.eval law 4.) (Scaling_law.eval_int law 4)

let test_law_validation () =
  Alcotest.check_raises "negative a"
    (Invalid_argument "Scaling_law.make: coefficients must be non-negative") (fun () ->
      ignore (Scaling_law.make ~a:(-1.) ~b:0. ~c:1. ~d:0.));
  Alcotest.check_raises "n < 1" (Invalid_argument "Scaling_law.eval: n must be >= 1") (fun () ->
      ignore (Scaling_law.eval (Scaling_law.make ~a:1. ~b:0. ~c:1. ~d:0.) 0.5))

let test_law_monotone_when_b_zero () =
  let law = Scaling_law.make ~a:50. ~b:0. ~c:0.9 ~d:1. in
  let prev = ref infinity in
  for n = 1 to 100 do
    let t = Scaling_law.eval_int law n in
    if t > !prev +. 1e-12 then Alcotest.failf "not decreasing at n=%d" n;
    prev := t
  done

let test_optimal_nodes () =
  (* with b > 0 the curve is U-shaped; optimum where -ca/n^{c+1} + b = 0 *)
  let law = Scaling_law.make ~a:100. ~b:0.05 ~c:1. ~d:0. in
  (* 100/n² = 0.05 -> n = sqrt(2000) ≈ 44.7 *)
  let n = Scaling_law.optimal_nodes law ~max_nodes:1000. in
  check_float ~eps:1e-3 "argmin" (sqrt 2000.) n;
  (* with b = 0, more nodes always helps *)
  let law0 = Scaling_law.make ~a:100. ~b:0. ~c:1. ~d:0. in
  check_float "b=0 takes max" 1000. (Scaling_law.optimal_nodes law0 ~max_nodes:1000.)

let test_derivative () =
  let law = Scaling_law.make ~a:100. ~b:0.05 ~c:1. ~d:0. in
  let n = 10. in
  let numeric =
    (Scaling_law.eval law (n +. 1e-5) -. Scaling_law.eval law (n -. 1e-5)) /. 2e-5
  in
  check_float ~eps:1e-5 "matches numeric" numeric (Scaling_law.derivative law n)

(* ---------- Topology ---------- *)

let test_topology_basics () =
  let t = Topology.make ~x:4 ~y:4 ~z:4 in
  Alcotest.(check int) "nodes" 64 (Topology.num_nodes t);
  Alcotest.(check int) "diameter" 6 (Topology.diameter t);
  (* z-major: id 1 is (0,0,1) *)
  let x, y, z = Topology.coords t 1 in
  Alcotest.(check (list int)) "coords" [ 0; 0; 1 ] [ x; y; z ];
  Alcotest.(check int) "self distance" 0 (Topology.distance t 5 5);
  (* wraparound: (0,0,0) to (0,0,3) is 1 hop on a ring of 4 *)
  Alcotest.(check int) "wraparound" 1 (Topology.distance t 0 3)

let test_topology_for_nodes () =
  let t = Topology.for_nodes 512 in
  Alcotest.(check bool) "capacity" true (Topology.num_nodes t >= 512);
  Alcotest.check_raises "bad id" (Invalid_argument "Topology.coords: id out of range")
    (fun () -> ignore (Topology.coords t (Topology.num_nodes t)))

let test_placement_compact_beats_scattered () =
  let t = Topology.make ~x:8 ~y:8 ~z:8 in
  let sizes = List.init 8 (fun _ -> 64) in
  let dia placement =
    List.fold_left
      (fun acc g -> Stdlib.max acc (Topology.group_diameter t g))
      0
      (Topology.place t ~placement ~sizes)
  in
  let dc = dia Topology.Compact and ds = dia Topology.Scattered in
  Alcotest.(check bool) "compact tighter" true (dc < ds);
  (* 64 nodes as a 4x4x4 cuboid on rings of 8: 3 hops per axis *)
  Alcotest.(check int) "cuboid diameter" 9 dc

let test_placement_covers_all_requested () =
  let t = Topology.make ~x:4 ~y:4 ~z:4 in
  List.iter
    (fun placement ->
      let groups = Topology.place t ~placement ~sizes:[ 8; 8; 8 ] in
      let all = List.concat_map Array.to_list groups in
      Alcotest.(check int) "24 ids" 24 (List.length all);
      Alcotest.(check int) "no duplicates" 24 (List.length (List.sort_uniq compare all));
      List.iter
        (fun id -> Alcotest.(check bool) "valid id" true (id >= 0 && id < 64))
        all)
    [ Topology.Compact; Topology.Scattered ]

let test_placement_validation () =
  let t = Topology.make ~x:2 ~y:2 ~z:2 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Topology.place: more nodes requested than available") (fun () ->
      ignore (Topology.place t ~placement:Topology.Compact ~sizes:[ 9 ]))

let test_comm_factor_monotone () =
  let t = Topology.make ~x:8 ~y:8 ~z:8 in
  let singleton = Topology.comm_factor t [| 0 |] ~alpha:40. in
  Alcotest.(check (float 1e-12)) "singleton is 1" 1. singleton;
  let spread = Topology.comm_factor t [| 0; Topology.num_nodes t - 1 |] ~alpha:40. in
  Alcotest.(check bool) "spread > 1" true (spread > 1.)

let prop_optimal_is_minimum =
  QCheck.Test.make ~name:"optimal_nodes is a minimum over the integer range" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let law =
        Scaling_law.make
          ~a:(Numerics.Rng.uniform rng ~lo:10. ~hi:1000.)
          ~b:(Numerics.Rng.uniform rng ~lo:0.001 ~hi:0.1)
          ~c:(Numerics.Rng.uniform rng ~lo:0.5 ~hi:1.2)
          ~d:(Numerics.Rng.uniform rng ~lo:0. ~hi:5.)
      in
      let n_star = Scaling_law.optimal_nodes law ~max_nodes:500. in
      let t_star = Scaling_law.eval law n_star in
      (* no integer point beats the continuous optimum by more than rounding *)
      let ok = ref true in
      for n = 1 to 500 do
        if Scaling_law.eval_int law n < t_star -. 1e-6 then ok := false
      done;
      !ok)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_optimal_is_minimum ] in
  Alcotest.run "machine"
    [
      ( "machine",
        [
          Alcotest.test_case "make" `Quick test_machine_make;
          Alcotest.test_case "intrepid" `Quick test_intrepid;
          Alcotest.test_case "with_noise" `Quick test_with_noise;
        ] );
      ( "scaling_law",
        [
          Alcotest.test_case "eval" `Quick test_law_eval;
          Alcotest.test_case "validation" `Quick test_law_validation;
          Alcotest.test_case "monotone" `Quick test_law_monotone_when_b_zero;
          Alcotest.test_case "optimal nodes" `Quick test_optimal_nodes;
          Alcotest.test_case "derivative" `Quick test_derivative;
        ] );
      ( "topology",
        [
          Alcotest.test_case "basics" `Quick test_topology_basics;
          Alcotest.test_case "for_nodes" `Quick test_topology_for_nodes;
          Alcotest.test_case "compact beats scattered" `Quick
            test_placement_compact_beats_scattered;
          Alcotest.test_case "covers requested" `Quick test_placement_covers_all_requested;
          Alcotest.test_case "validation" `Quick test_placement_validation;
          Alcotest.test_case "comm factor" `Quick test_comm_factor_monotone;
        ] );
      ("properties", qsuite);
    ]
