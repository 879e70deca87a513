(* lib/place + Fmo.Comm: the communication-matrix generator, the
   topology-constrained placement model (memory knapsacks, hop-priced
   comm term), the heuristic and MINLP paths, and the placement-aware
   fingerprints that keep topology-distinct instances out of each
   other's cache entries. *)

let fragments ?(seed = 7) n =
  Fmo.Fragment.fragment
    (Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create seed) n)
    Fmo.Basis.B6_31gd

(* ---------- Fmo.Comm ---------- *)

let test_comm_shape () =
  let frags = fragments 10 in
  let c = Fmo.Comm.generate ~seed:3 frags in
  Alcotest.(check int) "size" 10 (Fmo.Comm.size c);
  for i = 0 to 9 do
    Alcotest.(check (float 0.)) "zero diagonal" 0. (Fmo.Comm.volume c i i);
    for j = 0 to 9 do
      Alcotest.(check (float 1e-12)) "symmetric" (Fmo.Comm.volume c i j) (Fmo.Comm.volume c j i);
      if i <> j then
        Alcotest.(check bool) "positive off-diagonal" true (Fmo.Comm.volume c i j > 0.)
    done
  done

let test_comm_determinism () =
  let frags = fragments 8 in
  let a = Fmo.Comm.generate ~seed:11 frags and b = Fmo.Comm.generate ~seed:11 frags in
  Alcotest.(check bool) "same seed, same matrix" true (Fmo.Comm.to_matrix a = Fmo.Comm.to_matrix b);
  let c = Fmo.Comm.generate ~seed:12 frags in
  Alcotest.(check bool) "different seed, different matrix" true
    (Fmo.Comm.to_matrix a <> Fmo.Comm.to_matrix c)

(* permuting the fragment array permutes the matrix consistently: the
   jitter is keyed on fragment ids, which travel with the fragments *)
let prop_comm_permutation =
  QCheck.Test.make ~count:30 ~name:"comm permutes with the fragments"
    QCheck.(pair (int_range 3 12) small_nat)
    (fun (n, pseed) ->
      let frags = fragments n in
      let base = Fmo.Comm.generate ~seed:5 frags in
      let perm = Array.init n Fun.id in
      Numerics.Rng.shuffle (Numerics.Rng.create (pseed + 1)) perm;
      let shuffled = Array.map (fun i -> frags.(i)) perm in
      let permuted = Fmo.Comm.generate ~seed:5 shuffled in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            Float.abs (Fmo.Comm.volume permuted i j -. Fmo.Comm.volume base perm.(i) perm.(j))
            > 1e-12
          then ok := false
        done
      done;
      !ok)

let test_comm_ndjson_roundtrip () =
  let c = Fmo.Comm.generate ~seed:2 (fragments 6) in
  match Fmo.Comm.of_ndjson (Fmo.Comm.to_ndjson c) with
  | Ok c' ->
    Alcotest.(check bool) "roundtrip" true (Fmo.Comm.to_matrix c = Fmo.Comm.to_matrix c')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_comm_ndjson_diagnostics () =
  let check_err text expected =
    match Fmo.Comm.of_ndjson ~file:"t.ndjson" text with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error e -> Alcotest.(check string) "diagnostic" expected e
  in
  check_err "" "t.ndjson:1: empty comm file";
  check_err "{\"comm\":\"hslb-comm-v1\"}" "t.ndjson:1: missing field \"n\"";
  check_err
    "{\"comm\":\"hslb-comm-v1\",\"n\":2}\n{\"row\":0,\"mb\":[0,1]}\n{\"row\":9,\"mb\":[1,0]}"
    "t.ndjson:3: expected row 1, got row 9";
  check_err
    "{\"comm\":\"hslb-comm-v1\",\"n\":2}\n{\"row\":0,\"mb\":[0,1]}\n{\"row\":1,\"mb\":[2,0]}"
    "t.ndjson:2: field \"mb\": volume (0,1) breaks symmetry"

(* ---------- the placement instance used across the suite ---------- *)

let demo ?(tasks = 8) ?(groups = 4) ?(group_size = 4) ?(torus = (4, 4, 4)) ?(seed = 7)
    ?(mem_per_node_gb = 0.5) () =
  let x, y, z = torus in
  let topology = Topology.make ~x ~y ~z in
  let frags = fragments ~seed tasks in
  let comm = Fmo.Comm.generate ~seed frags in
  let sizes = List.init groups (fun _ -> group_size) in
  let group_ids = Array.of_list (Topology.place topology ~placement:Topology.Compact ~sizes) in
  let names = Array.map (fun (f : Fmo.Fragment.t) -> Printf.sprintf "frag%d" f.Fmo.Fragment.id) frags in
  let duration_s =
    Array.map
      (fun (f : Fmo.Fragment.t) ->
        Array.make groups (Fmo.Task.scf_work_gflops f.Fmo.Fragment.nbf /. 500.))
      frags
  in
  let mem_gb =
    Array.mapi
      (fun i (f : Fmo.Fragment.t) ->
        (8e-7 *. float_of_int (f.Fmo.Fragment.nbf * f.Fmo.Fragment.nbf)) +. (0.3 +. (0.02 *. float_of_int i)))
      frags
  in
  Place.Model.make ~topology ~groups:group_ids ~names ~duration_s ~mem_gb ~mem_per_node_gb
    ~comm_mb:(Fmo.Comm.to_matrix comm) ~hop_cost_s_per_mb:0.01 ()

(* ---------- Place.Model: memory early rejection ---------- *)

let test_memory_rejection_messages () =
  let topology = Topology.make ~x:2 ~y:2 ~z:1 in
  let groups = [| [| 0; 1 |]; [| 2 |] |] in
  let base_names = [| "mono"; "dimer" |] in
  let durations = [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let comm = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let mk ~mem_gb ~mem_per_node_gb =
    Place.Model.make ~topology ~groups ~names:base_names ~duration_s:durations ~mem_gb
      ~mem_per_node_gb ~comm_mb:comm ~hop_cost_s_per_mb:0.1 ()
  in
  Alcotest.check_raises "single class over the roomiest group"
    (Invalid_argument
       "Place.Model.make: class \"dimer\" needs 3.000 GB but group 0 (2 nodes at 1.000 GB/node) \
        holds only 2.000 GB")
    (fun () -> ignore (mk ~mem_gb:[| 0.5; 3.0 |] ~mem_per_node_gb:1.0));
  Alcotest.check_raises "aggregate over the machine"
    (Invalid_argument
       "Place.Model.make: classes need 3.500 GB in total but the 2 groups hold only 3.000 GB")
    (fun () -> ignore (mk ~mem_gb:[| 1.8; 1.7 |] ~mem_per_node_gb:1.0))

(* ---------- fingerprints: topology-distinct instances never share ---------- *)

let test_fingerprint_topology_regression () =
  let a = demo ~torus:(4, 4, 4) () and b = demo ~torus:(8, 4, 2) () in
  Alcotest.(check bool) "same shape, different torus => different key" true
    (Place.Model.fingerprint a <> Place.Model.fingerprint b);
  let c = demo ~mem_per_node_gb:0.6 () in
  Alcotest.(check bool) "different memory budget => different key" true
    (Place.Model.fingerprint (demo ()) <> Place.Model.fingerprint c);
  Alcotest.(check bool) "deterministic" true
    (Place.Model.fingerprint (demo ()) = Place.Model.fingerprint (demo ()));
  Alcotest.(check bool) "base prefix separates placed from unplaced" true
    (Place.Model.fingerprint ~base:"alloc-v1|x" (demo ())
    <> Place.Model.fingerprint ~base:"alloc-v1|y" (demo ()))

(* ---------- Optimizer ---------- *)

let test_optimizer_beats_blind () =
  let inst = demo ~tasks:12 () in
  let blind = Place.Optimizer.comm_blind inst in
  let aware = Place.Optimizer.optimize inst in
  let eb = Place.Model.eval inst blind and ea = Place.Model.eval inst aware in
  Alcotest.(check bool) "memory feasible (blind)" true (Place.Model.feasible_memory inst blind);
  Alcotest.(check bool) "memory feasible (aware)" true (Place.Model.feasible_memory inst aware);
  Alcotest.(check bool) "comm-aware strictly cheaper on the wire" true
    (ea.Place.Model.comm_cost_s < eb.Place.Model.comm_cost_s);
  Alcotest.(check bool) "makespan within 5%" true
    (ea.Place.Model.makespan_s <= 1.05 *. eb.Place.Model.makespan_s +. 1e-9)

(* ---------- MINLP path ---------- *)

let small_instance () = demo ~tasks:5 ~groups:3 ~group_size:2 ~torus:(2, 2, 2) ()

let test_minlp_audited_optimal () =
  let inst = small_instance () in
  let heuristic = Place.Optimizer.optimize inst in
  match Place.Model.solve_minlp ~warm_start:heuristic inst with
  | Error st -> Alcotest.failf "solve failed: %s" (Minlp.Solution.status_to_string st)
  | Ok solved ->
    Alcotest.(check string) "proven optimal" "optimal"
      (Minlp.Solution.status_to_string solved.Place.Model.status);
    let he = Place.Model.eval inst heuristic in
    Alcotest.(check bool) "never worse than the heuristic" true
      (solved.Place.Model.evaluation.Place.Model.total_s <= he.Place.Model.total_s +. 1e-6);
    let problem, _ = Place.Model.build_milp inst in
    (match solved.Place.Model.certificate with
    | None -> Alcotest.fail "no certificate emitted"
    | Some cert -> (
      match Audit.check_minlp problem cert with
      | Ok () -> ()
      | Error _ as v -> Alcotest.failf "certificate rejected: %s" (Audit.summary v)))

let test_minlp_budget_and_warm_start () =
  let inst = small_instance () in
  (* an already-cancelled budget must come back empty-handed, not crash *)
  let cancel = Engine.Cancel.create () in
  Engine.Cancel.cancel cancel;
  let cancelled () = Engine.Budget.arm (Engine.Budget.make ~cancel ()) in
  (match Place.Model.solve_minlp ~budget:(cancelled ()) inst with
  | Ok solved ->
    Alcotest.(check bool) "cancelled run may still carry the warm incumbent" true
      (match solved.Place.Model.status with
      | Minlp.Solution.Budget_exhausted _ | Minlp.Solution.Optimal -> true
      | _ -> false)
  | Error (Minlp.Solution.Budget_exhausted _) -> ()
  | Error st -> Alcotest.failf "unexpected status: %s" (Minlp.Solution.status_to_string st));
  (* a warm start under the same cancelled budget always has an incumbent *)
  let warm = Place.Optimizer.comm_blind inst in
  match Place.Model.solve_minlp ~budget:(cancelled ()) ~warm_start:warm inst with
  | Ok _ -> ()
  | Error st ->
    Alcotest.failf "warm-started cancelled solve lost its incumbent: %s"
      (Minlp.Solution.status_to_string st)

(* tasks 7,5,4,3,3 on two 1-node groups of a 2x1x1 torus, with no
   traffic and ample memory: placement reduces to two-machine
   scheduling, whose exhaustive optimum is 11 *)
let two_group_durations = [| 7.; 5.; 4.; 3.; 3. |]

let two_group_instance () =
  let durations = two_group_durations in
  Place.Model.make ~topology:(Topology.make ~x:2 ~y:1 ~z:1) ~groups:[| [| 0 |]; [| 1 |] |]
    ~names:(Array.init 5 (Printf.sprintf "t%d"))
    ~duration_s:(Array.map (fun d -> [| d; d |]) durations)
    ~mem_gb:(Array.make 5 0.1) ~mem_per_node_gb:1.0
    ~comm_mb:(Array.make_matrix 5 5 0.) ~hop_cost_s_per_mb:0.01 ()

(* every solver reaches the exhaustive optimum, and its certificate
   names it and passes the independent checker against the model's own
   problem *)
let test_minlp_vs_brute_force () =
  let best = ref infinity in
  for mask = 0 to 31 do
    let l0 = ref 0. and l1 = ref 0. in
    Array.iteri
      (fun t d -> if mask land (1 lsl t) <> 0 then l0 := !l0 +. d else l1 := !l1 +. d)
      two_group_durations;
    best := Float.min !best (Float.max !l0 !l1)
  done;
  Alcotest.(check (float 1e-9)) "exhaustive optimum" 11. !best;
  let inst = two_group_instance () in
  let problem, _ = Place.Model.build_milp inst in
  List.iter
    (fun solver ->
      let name = Engine.Solver_choice.to_string solver in
      match Place.Model.solve_minlp ~solver inst with
      | Error st -> Alcotest.failf "%s: %s" name (Minlp.Solution.status_to_string st)
      | Ok solved -> (
        Alcotest.(check (float 1e-6)) (name ^ " makespan") !best
          solved.Place.Model.evaluation.Place.Model.makespan_s;
        match solved.Place.Model.certificate with
        | None -> Alcotest.failf "%s: no certificate" name
        | Some cert -> (
          Alcotest.(check string) "certificate names the solver" name
            cert.Engine.Certificate.producer;
          match Audit.check_minlp problem cert with
          | Ok () -> ()
          | Error _ as v -> Alcotest.failf "%s certificate rejected: %s" name (Audit.summary v))))
    Engine.Solver_choice.minlp

(* ---------- hop matrix: per-group BFS = all-pairs oracle ---------- *)

(* the definition: the least torus distance over every node pair of
   every group pair, O(nodes²) *)
let hop_matrix_all_pairs (inst : Place.Model.instance) =
  let groups = inst.Place.Model.groups in
  let ng = Array.length groups in
  Array.init ng (fun g ->
      Array.init ng (fun g' ->
          if g = g' then 0
          else
            Array.fold_left
              (fun d a ->
                Array.fold_left
                  (fun d b -> Stdlib.min d (Topology.distance inst.Place.Model.topology a b))
                  d groups.(g'))
              max_int groups.(g)))

(* small tori, axes of size 1 to 5 (1 and 2 included, where both
   neighbours on an axis coincide), random group sizes, compact and
   scattered carves; the nodes need not all be carved *)
let prop_hop_matrix_matches_all_pairs =
  QCheck.Test.make ~count:300 ~name:"hop matrix = all-pairs oracle"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let axis () = 1 + Numerics.Rng.int rng 5 in
      let topology = Topology.make ~x:(axis ()) ~y:(axis ()) ~z:(axis ()) in
      let nodes = Topology.num_nodes topology in
      let ng = 1 + Numerics.Rng.int rng (Stdlib.min nodes 9) in
      let sizes = List.init ng (fun _ -> 1 + Numerics.Rng.int rng (nodes / ng)) in
      let placement =
        if Numerics.Rng.int rng 2 = 0 then Topology.Compact else Topology.Scattered
      in
      let inst =
        Place.Model.make ~topology
          ~groups:(Array.of_list (Topology.place topology ~placement ~sizes))
          ~names:[| "t" |] ~duration_s:[| Array.make ng 1. |] ~mem_gb:[| 0.5 |]
          ~mem_per_node_gb:1. ~comm_mb:[| [| 0. |] |] ~hop_cost_s_per_mb:0.01 ()
      in
      Place.Model.hop_matrix inst = hop_matrix_all_pairs inst
      || QCheck.Test.fail_reportf "seed %d: %s" seed (Topology.placement_to_string placement))

(* a placed solve's search, its evaluation and the exact path read the
   matrix the instance's first [hop_matrix] built, not a new one *)
let test_one_hop_matrix () =
  let inst = small_instance () in
  let h = Place.Model.hop_matrix inst in
  let aware = Place.Optimizer.optimize inst in
  ignore (Place.Model.eval inst aware : Place.Model.eval);
  ignore (Place.Model.build_milp inst);
  Alcotest.(check bool) "the same matrix" true (Place.Model.hop_matrix inst == h);
  Alcotest.(check bool) "equal to the definition" true (h = hop_matrix_all_pairs inst)

(* ---------- E11 golden: byte-stable under the pinned comm seed ---------- *)

let test_e11_golden () =
  let render () =
    let buf = Buffer.create 1024 in
    let fmt = Format.formatter_of_buffer buf in
    (Experiments.Registry.find "E11_placement").Experiments.Registry.run ~quick:true fmt;
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let expected =
    "\n== E11: placement sensitivity, 64 even groups on a 3-D torus ==\nnodes  group size  compact dia/max  scattered dia/max  comm s (compact)  comm s (scattered)  overhead ratio  total slowdown\n-----  ----------  ---------------  -----------------  ----------------  ------------------  --------------  --------------\n512    8           3 / 12           12 / 12            6.55e+01          1.24e+02            1.9x            +86.5%        \nexpected shape: compact placement keeps the paper's b~0 premise at every scale; scattered placement inflates the communication term increasingly with machine size\n"
  in
  Alcotest.(check string) "pinned-seed output is byte-stable" expected (render ());
  Alcotest.(check string) "stable across renders" (render ()) (render ())

(* ---------- BENCH_place roundtrip ---------- *)

let test_place_bench_roundtrip () =
  let t = Experiments.Place_bench.run ~quick:true ~seed:42 () in
  match Experiments.Place_bench.of_json (Experiments.Place_bench.to_json t) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok t' ->
    Alcotest.(check bool) "roundtrip preserves the document" true (t = t');
    List.iter
      (fun (r : Experiments.Place_bench.row) ->
        let find s =
          List.find (fun (c : Experiments.Place_bench.cell) -> c.Experiments.Place_bench.strategy = s) r.Experiments.Place_bench.cells
        in
        let blind = find "blind" and aware = find "aware" in
        Alcotest.(check bool) "aware strictly cheaper on the wire" true
          (aware.Experiments.Place_bench.comm_cost_s < blind.Experiments.Place_bench.comm_cost_s);
        Alcotest.(check bool) "makespan within 5%" true
          (aware.Experiments.Place_bench.makespan_s
          <= (1.05 *. blind.Experiments.Place_bench.makespan_s) +. 1e-9))
      t.Experiments.Place_bench.rows;
    List.iter
      (fun (e : Experiments.Place_bench.exact) ->
        Alcotest.(check string) "exact path proves optimality" "optimal"
          e.Experiments.Place_bench.status;
        Alcotest.(check bool) "certificate audited" true e.Experiments.Place_bench.audited)
      t.Experiments.Place_bench.exact

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_comm_permutation ] in
  Alcotest.run "place"
    [
      ( "comm",
        [
          Alcotest.test_case "shape" `Quick test_comm_shape;
          Alcotest.test_case "determinism" `Quick test_comm_determinism;
          Alcotest.test_case "ndjson roundtrip" `Quick test_comm_ndjson_roundtrip;
          Alcotest.test_case "ndjson diagnostics" `Quick test_comm_ndjson_diagnostics;
        ]
        @ qsuite );
      ( "model",
        [
          Alcotest.test_case "memory rejection messages" `Quick test_memory_rejection_messages;
          Alcotest.test_case "fingerprint topology regression" `Quick
            test_fingerprint_topology_regression;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 24 |])
            prop_hop_matrix_matches_all_pairs;
          Alcotest.test_case "one hop matrix per instance" `Quick test_one_hop_matrix;
        ] );
      ("optimizer", [ Alcotest.test_case "beats blind" `Quick test_optimizer_beats_blind ]);
      ( "minlp",
        [
          Alcotest.test_case "audited optimal" `Quick test_minlp_audited_optimal;
          Alcotest.test_case "budget and warm start" `Quick test_minlp_budget_and_warm_start;
          Alcotest.test_case "every solver vs brute force" `Quick test_minlp_vs_brute_force;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E11 golden" `Quick test_e11_golden;
          Alcotest.test_case "bench roundtrip and gates" `Quick test_place_bench_roundtrip;
        ] );
    ]
