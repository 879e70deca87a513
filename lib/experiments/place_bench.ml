(* The comm-blind × comm-aware placement frontier behind E14 and
   BENCH_place.json.

   Every scenario is fully seeded: a water cluster is fragmented, its
   pair communication volumes generated with Fmo.Comm, durations taken
   from the machine cost model at the group size, and working sets
   derived from the basis size. The comm-blind cell is what a
   compute-only balancer would ship (LPT with memory fitting); the
   comm-aware cell runs the Place.Optimizer search under the same
   memory knapsacks and a 5% makespan leash. The exact rows push small
   instances through the full MINLP path, warm-started by the
   heuristic, and audit the optimality certificate. *)

let schema_version = "hslb-bench-place-v1"

let instance ?(seed = 42) ?(hop_cost_s_per_mb = 2.0) ~torus:(x, y, z) ~tasks ~groups () =
  let topology = Topology.make ~x ~y ~z in
  let nodes = Topology.num_nodes topology in
  if groups <= 0 || nodes mod groups <> 0 then
    invalid_arg
      (Printf.sprintf "Place_bench.instance: %d groups do not split the %dx%dx%d torus evenly"
         groups x y z);
  let size = nodes / groups in
  let frags =
    Fmo.Fragment.fragment
      (Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create seed) tasks)
      Fmo.Basis.B6_31gd
  in
  let comm = Fmo.Comm.generate ~seed frags in
  let machine = Workloads.machine ~num_nodes:nodes () in
  let group_ids =
    Array.of_list
      (Topology.place topology ~placement:Topology.Compact ~sizes:(List.init groups (fun _ -> size)))
  in
  let names =
    Array.map (fun (f : Fmo.Fragment.t) -> Printf.sprintf "frag%d" f.Fmo.Fragment.id) frags
  in
  let duration_s =
    Array.map
      (fun (f : Fmo.Fragment.t) ->
        let law =
          Fmo.Cost_model.law machine
            ~work_gflops:(Fmo.Task.scf_work_gflops f.Fmo.Fragment.nbf)
            ~nbf:f.Fmo.Fragment.nbf
        in
        Array.init groups (fun g -> Scaling_law.eval_int law (Array.length group_ids.(g))))
      frags
  in
  (* working sets sized so the per-group knapsack binds mildly: a basis
     term plus a deterministic spread keyed on the fragment id *)
  let mem_gb =
    Array.map
      (fun (f : Fmo.Fragment.t) ->
        (8e-7 *. float_of_int (f.Fmo.Fragment.nbf * f.Fmo.Fragment.nbf))
        +. 0.25
        +. (0.025 *. float_of_int (f.Fmo.Fragment.id mod 7)))
      frags
  in
  Place.Model.make ~topology ~groups:group_ids ~names ~duration_s ~mem_gb ~mem_per_node_gb:0.5
    ~comm_mb:(Fmo.Comm.to_matrix comm) ~hop_cost_s_per_mb ()

type cell = { strategy : string; makespan_s : float; comm_cost_s : float; total_s : float }
type row = { dims : int * int * int; tasks : int; groups : int; cells : cell list }

type exact = {
  solver : string;
  xtasks : int;
  xgroups : int;
  status : string;
  audited : bool;
  minlp_total_s : float;
  heuristic_total_s : float;
}

type t = { seed : int; hop_cost_s_per_mb : float; rows : row list; exact : exact list }

let cell_of strategy (e : Place.Model.eval) =
  {
    strategy;
    makespan_s = e.Place.Model.makespan_s;
    comm_cost_s = e.Place.Model.comm_cost_s;
    total_s = e.Place.Model.total_s;
  }

let run_row ~seed ~tasks ~groups dims =
  let inst = instance ~seed ~torus:dims ~tasks ~groups () in
  let blind = Place.Optimizer.comm_blind inst in
  let aware = Place.Optimizer.optimize inst in
  {
    dims;
    tasks;
    groups;
    cells =
      [
        cell_of "blind" (Place.Model.eval inst blind);
        cell_of "aware" (Place.Model.eval inst aware);
      ];
  }

let run_exact ~seed ~tasks ~groups solver =
  let inst = instance ~seed ~torus:(2, 2, 2) ~tasks ~groups () in
  let heuristic = Place.Optimizer.optimize inst in
  let he = Place.Model.eval inst heuristic in
  match Place.Model.solve_minlp ~solver ~warm_start:heuristic inst with
  | Error st ->
    {
      solver = Engine.Solver_choice.to_string solver;
      xtasks = tasks;
      xgroups = groups;
      status = Minlp.Solution.status_to_string st;
      audited = false;
      minlp_total_s = Float.nan;
      heuristic_total_s = he.Place.Model.total_s;
    }
  | Ok solved ->
    let audited =
      match solved.Place.Model.certificate with
      | None -> false
      | Some cert -> (
        let problem, _ = Place.Model.build_milp inst in
        match Audit.check_minlp problem cert with Ok () -> true | Error _ -> false)
    in
    {
      solver = Engine.Solver_choice.to_string solver;
      xtasks = tasks;
      xgroups = groups;
      status = Minlp.Solution.status_to_string solved.Place.Model.status;
      audited;
      minlp_total_s = solved.Place.Model.evaluation.Place.Model.total_s;
      heuristic_total_s = he.Place.Model.total_s;
    }

let run ?(quick = false) ~seed () =
  let hop_cost_s_per_mb = 2.0 in
  let toruses = if quick then [ (4, 4, 4); (6, 6, 6) ] else [ (4, 4, 4); (6, 6, 6); (8, 8, 8) ] in
  let exact_solvers =
    if quick then [ Engine.Solver_choice.Oa ]
    else [ Engine.Solver_choice.Oa; Engine.Solver_choice.Bnb ]
  in
  {
    seed;
    hop_cost_s_per_mb;
    rows = List.map (run_row ~seed ~tasks:24 ~groups:8) toruses;
    exact = List.map (run_exact ~seed ~tasks:6 ~groups:4) exact_solvers;
  }

(* --- JSON ----------------------------------------------------------- *)

let to_json t =
  let open Obs.Json in
  let cell_json c =
    Obj
      [
        ("strategy", Str c.strategy);
        ("makespan_s", Num c.makespan_s);
        ("comm_cost_s", Num c.comm_cost_s);
        ("total_s", Num c.total_s);
      ]
  in
  let row_json r =
    let x, y, z = r.dims in
    Obj
      [
        ("dim_x", Num (float_of_int x));
        ("dim_y", Num (float_of_int y));
        ("dim_z", Num (float_of_int z));
        ("tasks", Num (float_of_int r.tasks));
        ("groups", Num (float_of_int r.groups));
        ("cells", Arr (List.map cell_json r.cells));
      ]
  in
  let exact_json e =
    Obj
      [
        ("solver", Str e.solver);
        ("tasks", Num (float_of_int e.xtasks));
        ("groups", Num (float_of_int e.xgroups));
        ("status", Str e.status);
        ("audited", Bool e.audited);
        ("minlp_total_s", Num e.minlp_total_s);
        ("heuristic_total_s", Num e.heuristic_total_s);
      ]
  in
  Obj
    [
      ("schema", Str schema_version);
      ("seed", Num (float_of_int t.seed));
      ("hop_cost_s_per_mb", Num t.hop_cost_s_per_mb);
      ("rows", Arr (List.map row_json t.rows));
      ("exact", Arr (List.map exact_json t.exact));
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let* schema = str_field "schema" j in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported schema %S (expected %S)" schema schema_version)
  else
    let* seed = int_field "seed" j in
    let* hop_cost_s_per_mb = num_field "hop_cost_s_per_mb" j in
    let parse_cell c =
      let* strategy = str_field "strategy" c in
      let* makespan_s = num_field "makespan_s" c in
      let* comm_cost_s = num_field "comm_cost_s" c in
      let* total_s = num_field "total_s" c in
      Ok { strategy; makespan_s; comm_cost_s; total_s }
    in
    let parse_row r =
      let* x = int_field "dim_x" r in
      let* y = int_field "dim_y" r in
      let* z = int_field "dim_z" r in
      let* tasks = int_field "tasks" r in
      let* groups = int_field "groups" r in
      let* cells = list_field "cells" parse_cell r in
      Ok { dims = (x, y, z); tasks; groups; cells }
    in
    let parse_exact e =
      let* solver = str_field "solver" e in
      let* xtasks = int_field "tasks" e in
      let* xgroups = int_field "groups" e in
      let* status = str_field "status" e in
      let* audited = bool_field "audited" e in
      let* minlp_total_s = num_field "minlp_total_s" e in
      let* heuristic_total_s = num_field "heuristic_total_s" e in
      Ok { solver; xtasks; xgroups; status; audited; minlp_total_s; heuristic_total_s }
    in
    let* rows = list_field "rows" parse_row j in
    let* exact = list_field "exact" parse_exact j in
    Ok { seed; hop_cost_s_per_mb; rows; exact }

(* aware's [f] over blind's in row [r]; NaN (a failing gate) when
   either strategy is absent *)
let aware_over_blind f r =
  let get s =
    match List.find_opt (fun c -> c.strategy = s) r.cells with
    | Some c -> f c
    | None -> Float.nan
  in
  get "aware" /. get "blind"

let gates =
  let open Obs.Gate in
  let cells t = List.concat_map (fun r -> r.cells) t.rows in
  [
    gate "scenarios" Ge 1. (fun t -> length t.rows);
    gate "exact_rows" Ge 1. (fun t -> length t.exact);
    gate "missing_strategies" Eq 0. (fun t ->
        sum_of
          (fun r ->
            count
              (fun s -> not (List.exists (fun c -> c.strategy = s) r.cells))
              [ "blind"; "aware" ])
          t.rows);
    gate "min_makespan_s" Gt 0. (fun t -> min_of (fun c -> c.makespan_s) (cells t));
    gate "min_comm_cost_s" Ge 0. (fun t -> min_of (fun c -> c.comm_cost_s) (cells t));
    (* the E14 claims: comm-aware strictly cheaper on the wire in every
       scenario within the 5% makespan leash *)
    gate "aware_over_blind_comm" Lt 1. (fun t ->
        max_of (aware_over_blind (fun c -> c.comm_cost_s)) t.rows);
    gate "aware_over_blind_makespan" Le 1.05 (fun t ->
        max_of (aware_over_blind (fun c -> c.makespan_s)) t.rows);
    gate "exact_not_optimal" Eq 0. (fun t -> count (fun e -> e.status <> "optimal") t.exact);
    gate "exact_unaudited" Eq 0. (fun t -> count (fun e -> not e.audited) t.exact);
    gate "exact_minlp_minus_heuristic_s" Le 1e-6 (fun t ->
        max_of (fun e -> e.minlp_total_s -. e.heuristic_total_s) t.exact);
  ]

let write_bench path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (to_json t));
      Out_channel.output_char oc '\n')

let pp fmt t =
  let open Format in
  fprintf fmt "@[<v>placement frontier (hop cost %.2f s/MB, seed %d)@," t.hop_cost_s_per_mb t.seed;
  fprintf fmt "%-10s %-6s %-7s" "torus" "tasks" "groups";
  List.iter (fun c -> fprintf fmt " %26s" c.strategy) (List.hd t.rows).cells;
  fprintf fmt "@,";
  List.iter
    (fun r ->
      let x, y, z = r.dims in
      fprintf fmt "%-10s %-6d %-7d" (sprintf "%dx%dx%d" x y z) r.tasks r.groups;
      List.iter
        (fun c ->
          fprintf fmt " %26s" (sprintf "mk %.2f comm %.4f" c.makespan_s c.comm_cost_s))
        r.cells;
      fprintf fmt "@,")
    t.rows;
  List.iter
    (fun e ->
      fprintf fmt "exact %s: %d tasks / %d groups -> %s%s, total %.4f (heuristic %.4f)@,"
        e.solver e.xtasks e.xgroups e.status
        (if e.audited then " (audited)" else "")
        e.minlp_total_s e.heuristic_total_s)
    t.exact;
  fprintf fmt "@]"
