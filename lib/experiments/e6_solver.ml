(* E6 — MINLP solver cost and the SOS1-branching ablation.

   The paper: the full MINLP "for 40960 nodes took less than 60 seconds
   to solve on one core", and implementing the discrete atmosphere
   choices as a special-ordered set "improved the runtime of the MINLP
   solver by two orders of magnitude".

   Parts (a) and (b) also time the exact threshold search
   (Alloc_model's default) on the same instance, its certificate
   audited against the same model: microseconds where the MINLP
   solvers take seconds, and no solver beats its makespan.

   (a) LP/NLP-based single-tree (OA) vs the classical multi-tree OA
       alternation (Duran-Grossmann) vs NLP-based branch-and-bound on
       plain integer allocation models of growing size;
   (b) the SOS1 ablation on sweet-spotted models: branch on the special
       ordered set vs on individual binaries. The NLP-based tree is
       excluded from (b): its augmented-Lagrangian relaxations stall on
       the binary-heavy equality structure (a documented limitation —
       MINOTAUR's filterSQP does not share it). *)

let name = "E6_solver"
let describes = "Fig/Table: B&B nodes and time vs model size; SOS1 branching ablation"

let synthetic_specs ?allowed_count ~classes () =
  let rng = Workloads.rng 31 in
  List.init classes (fun i ->
      let law =
        Scaling_law.make
          ~a:(Numerics.Rng.uniform rng ~lo:50. ~hi:2000.)
          ~b:1e-6
          ~c:(Numerics.Rng.uniform rng ~lo:0.75 ~hi:0.98)
          ~d:(Numerics.Rng.uniform rng ~lo:0.1 ~hi:5.)
      in
      let cls =
        Hslb.Classes.make
          ~name:(Printf.sprintf "class%d" i)
          ~count:1
          (fun ~nodes -> Scaling_law.eval_int law nodes)
      in
      let fit_rng = Workloads.rng (100 + i) in
      let fc =
        List.hd
          (Hslb.Classes.gather_and_fit ~rng:fit_rng ~sizes:[ 1; 2; 4; 16; 64; 256 ] ~reps:1
             [ cls ])
      in
      match allowed_count with
      | None -> Hslb.Alloc_model.spec_of fc
      | Some k -> Hslb.Alloc_model.spec_of ~allowed:(List.init k (fun j -> 1 lsl j)) fc)

(* independent auditor's verdict on each solve, printed as its own
   column so the certified-status story is visible in the table itself:
   the certificate is rebuilt from the solution and re-checked against
   the raw model by lib/audit, never by the solver that produced it *)
let audited problem (sol : Minlp.Solution.t) =
  let cert =
    Minlp.Solution.certify ~producer:"e6" ~minimize:problem.Minlp.Problem.minimize sol
  in
  match Audit.check_minlp problem cert with Ok () -> "yes" | Error _ -> "REJECTED"

let row ~classes ~label ?(pivots = 0) ~problem (sol : Minlp.Solution.t) elapsed =
  [
    string_of_int classes;
    label;
    Minlp.Solution.status_to_string sol.Minlp.Solution.status;
    Table.fs sol.Minlp.Solution.obj;
    string_of_int sol.Minlp.Solution.stats.Minlp.Solution.nodes;
    string_of_int sol.Minlp.Solution.stats.Minlp.Solution.lp_solves;
    string_of_int sol.Minlp.Solution.stats.Minlp.Solution.nlp_solves;
    string_of_int sol.Minlp.Solution.stats.Minlp.Solution.cuts;
    string_of_int pivots;
    audited problem sol;
    Table.fs elapsed;
  ]

(* the threshold search: no tree, no LP, no NLP *)
let exact_row ~classes ~problem ~n_total specs =
  let t0 = Unix.gettimeofday () in
  let result = Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Exact ~n_total specs in
  let elapsed = Unix.gettimeofday () -. t0 in
  let status, objective, verdict =
    match result with
    | Error st -> (Minlp.Solution.status_to_string st, "-", "-")
    | Ok a ->
      ( Minlp.Solution.status_to_string a.Hslb.Alloc_model.status,
        Table.fs a.Hslb.Alloc_model.predicted_makespan,
        match Option.map (Audit.check_minlp problem) a.Hslb.Alloc_model.certificate with
        | Some (Ok ()) -> "yes"
        | Some (Error _) | None -> "REJECTED" )
  in
  [
    string_of_int classes; "exact threshold search"; status; objective; "0"; "0"; "0"; "0"; "0";
    verdict; Table.fs elapsed;
  ]

(* each solve gets a fresh telemetry tally so the simplex-pivot column
   is attributable per row; timing is wall clock so the numbers stay
   meaningful when cells run on parallel domains *)
let timed f =
  let tally = Engine.Telemetry.create () in
  let t0 = Unix.gettimeofday () in
  let sol = f tally in
  (sol, tally.Engine.Telemetry.simplex_pivots, Unix.gettimeofday () -. t0)

let header =
  [
    "classes"; "solver"; "status"; "objective"; "nodes"; "LPs"; "NLPs"; "cuts"; "pivots";
    "audited"; "sec";
  ]

let run ?(quick = false) fmt =
  (* part (a): OA vs NLP-based B&B, plain integer models *)
  let sizes_a = if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ] in
  (* every table cell below is an independent solve on its own synthetic
     instance, so the cells run on the worker pool (HSLB_JOBS); results
     come back in size order either way *)
  let concat_map_cells f sizes = List.concat (Runtime.Pool.map f sizes) in
  let rows_a =
    concat_map_cells
      (fun classes ->
        let specs = synthetic_specs ~classes () in
        let n_total = 128 * classes in
        let problem, _, _ =
          Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs
        in
        let exact = exact_row ~classes ~problem ~n_total specs in
        let oa, pv_oa, t_oa = timed (fun tally -> Minlp.Oa.run ~tally problem) in
        let multi, pv_multi, t_multi =
          timed (fun tally -> Minlp.Oa_multi.run ~tally problem)
        in
        let bnb, pv_bnb, t_bnb =
          timed (fun tally ->
              Minlp.Bnb.run
                ~options:{ Minlp.Bnb.default_options with max_nodes = 2_000 }
                ~tally problem)
        in
        [
          exact;
          row ~classes ~label:"LP/NLP single-tree (OA)" ~pivots:pv_oa ~problem oa t_oa;
          row ~classes
            ~label:
              (Printf.sprintf "multi-tree OA (%d alternations)"
                 multi.Minlp.Oa_multi.iterations)
            ~pivots:pv_multi ~problem multi.Minlp.Oa_multi.solution t_multi;
          row ~classes ~label:"NLP-based B&B" ~pivots:pv_bnb ~problem bnb t_bnb;
        ])
      sizes_a
  in
  Table.print fmt
    ~title:"E6a: exact threshold search vs OA vs NLP-based B&B, plain integer allocation models"
    ~header rows_a;
  Format.fprintf fmt
    "note: the NLP-based tree bounds with a first-order local solver; on the larger models \
     its result can sit a few percent above the exact optimum, which OA reaches within its \
     gap@.";
  (* part (b): SOS1 branching ablation on sweet-spotted models *)
  let sizes_b = if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ] in
  let rows_b =
    concat_map_cells
      (fun classes ->
        let specs = synthetic_specs ~allowed_count:10 ~classes () in
        let n_total = 128 * classes in
        let problem, _, _ =
          Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs
        in
        let exact = exact_row ~classes ~problem ~n_total specs in
        let solve sos =
          timed (fun tally ->
              Minlp.Oa.run
                ~options:
                  { Minlp.Oa.default_options with branch_sos_first = sos; max_nodes = 60_000 }
                ~tally problem)
        in
        let with_sos, pv1, t1 = solve true in
        let without, pv2, t2 = solve false in
        [
          exact;
          row ~classes ~label:"OA, SOS1 branching" ~pivots:pv1 ~problem with_sos t1;
          row ~classes ~label:"OA, binary branching" ~pivots:pv2 ~problem without t2;
        ])
      sizes_b
  in
  Table.print fmt
    ~title:"E6b: SOS1 ablation, 10 discrete sweet spots per class" ~header rows_b;
  (* part (c): variable-branching rule ablation inside the OA master *)
  let sizes_c = if quick then [ 4 ] else [ 8; 16 ] in
  let rows_c =
    concat_map_cells
      (fun classes ->
        let specs = synthetic_specs ~classes () in
        let n_total = 128 * classes in
        let problem, _, _ =
          Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs
        in
        let solve rule =
          timed (fun tally ->
              Minlp.Oa.run
                ~options:{ Minlp.Oa.default_options with branching = rule }
                ~tally problem)
        in
        let pc, pv1, t1 = solve Minlp.Milp.Pseudocost in
        let mf, pv2, t2 = solve Minlp.Milp.Most_fractional in
        [
          row ~classes ~label:"OA, pseudocost branching" ~pivots:pv1 ~problem pc t1;
          row ~classes ~label:"OA, most-fractional" ~pivots:pv2 ~problem mf t2;
        ])
      sizes_c
  in
  Table.print fmt ~title:"E6c: variable-branching rule ablation (plain models)" ~header rows_c;
  Format.fprintf fmt
    "expected shape: identical objectives per row pair; SOS1 branching visits far fewer \
     nodes (paper: ~2 orders of magnitude on the full atmosphere set)@."
