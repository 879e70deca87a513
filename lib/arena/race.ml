module Json = Obs.Json

type cell = {
  scheduler : string;
  total_makespan_s : float;
  mean_utilization : float;
  regret_vs_dynamic : float;
}

type row = {
  scenario : string;
  cls : Scenario.cls;
  cells : cell list;
  winner : string;
}

type t = {
  seed : int;
  phases : int;
  tasks_per_phase : int;
  groups : int;
  nodes_per_group : int;
  schedulers : string list;
  rows : row list;
}

let schema_version = "hslb-bench-arena-v1"

let phase_hist =
  lazy (Obs.Metrics.histogram ~lo:1e-4 ~hi:1e4 "arena_phase_makespan_s")

(* the first cell of minimal regret: the row's winner *)
let argmin cells =
  List.fold_left
    (fun best c ->
      match best with
      | Some b when b.regret_vs_dynamic <= c.regret_vs_dynamic -> best
      | _ -> Some c)
    None cells

let run ?(phases = 8) ?(tasks_per_phase = 48) ?(groups = 8) ?(nodes_per_group = 4)
    ?(balancers = Balancer.all) ~seed classes =
  if not (List.mem Balancer.Dynamic balancers) then
    invalid_arg "Race.run: balancers must include Dynamic (the regret baseline)";
  let race_row cls =
    let sc =
      Scenario.generate ~phases ~tasks_per_phase ~groups ~nodes_per_group cls ~seed
    in
    let outcomes =
      List.map
        (fun b ->
          let bname = Balancer.name b in
          let on_phase _ (r : Gddi.Sim.result) =
            Obs.Metrics.Histogram.observe (Lazy.force phase_hist) r.Gddi.Sim.makespan
          in
          let o =
            Obs.Span.with_span ~cat:"arena"
              ~args:[ ("scenario", sc.Scenario.name); ("scheduler", bname) ]
              ("arena." ^ bname)
              (fun () -> Balancer.run ~on_phase sc b)
          in
          (bname, o))
        balancers
    in
    let dyn =
      (List.assoc (Balancer.name Balancer.Dynamic) outcomes).Balancer.total_makespan
    in
    let cells =
      List.map
        (fun (bname, (o : Balancer.outcome)) ->
          {
            scheduler = bname;
            total_makespan_s = o.Balancer.total_makespan;
            mean_utilization = o.Balancer.mean_utilization;
            regret_vs_dynamic =
              (if dyn > 0.0 then (o.Balancer.total_makespan -. dyn) /. dyn else 0.0);
          })
        outcomes
    in
    let winner = Option.get (argmin cells) in
    { scenario = sc.Scenario.name; cls; cells; winner = winner.scheduler }
  in
  {
    seed;
    phases;
    tasks_per_phase;
    groups;
    nodes_per_group;
    schedulers = List.map Balancer.name balancers;
    rows = List.map race_row classes;
  }

(* --- JSON ----------------------------------------------------------- *)

let to_json t =
  let cell_json c =
    Json.Obj
      [
        ("scheduler", Json.Str c.scheduler);
        ("total_makespan_s", Json.Num c.total_makespan_s);
        ("mean_utilization", Json.Num c.mean_utilization);
        ("regret_vs_dynamic", Json.Num c.regret_vs_dynamic);
      ]
  in
  let row_json r =
    Json.Obj
      [
        ("scenario", Json.Str r.scenario);
        ("class", Json.Str (Scenario.class_to_string r.cls));
        ("winner", Json.Str r.winner);
        ("cells", Json.Arr (List.map cell_json r.cells));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("seed", Json.Num (float_of_int t.seed));
      ("phases", Json.Num (float_of_int t.phases));
      ("tasks_per_phase", Json.Num (float_of_int t.tasks_per_phase));
      ("groups", Json.Num (float_of_int t.groups));
      ("nodes_per_group", Json.Num (float_of_int t.nodes_per_group));
      ("schedulers", Json.Arr (List.map (fun s -> Json.Str s) t.schedulers));
      ("rows", Json.Arr (List.map row_json t.rows));
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let* schema = Json.str_field "schema" j in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported schema %S (expected %S)" schema schema_version)
  else
    let* seed = Json.int_field "seed" j in
    let* phases = Json.int_field "phases" j in
    let* tasks_per_phase = Json.int_field "tasks_per_phase" j in
    let* groups = Json.int_field "groups" j in
    let* nodes_per_group = Json.int_field "nodes_per_group" j in
    let* schedulers =
      Json.list_field "schedulers"
        (fun v -> Option.to_result ~none:"expected a string" (Json.str v))
        j
    in
    let parse_cell c =
      let* scheduler = Json.str_field "scheduler" c in
      let* total_makespan_s = Json.num_field "total_makespan_s" c in
      let* mean_utilization = Json.num_field "mean_utilization" c in
      let* regret_vs_dynamic = Json.num_field "regret_vs_dynamic" c in
      Ok { scheduler; total_makespan_s; mean_utilization; regret_vs_dynamic }
    in
    let parse_row r =
      let* scenario = Json.str_field "scenario" r in
      let* cls_s = Json.str_field "class" r in
      let* cls = Scenario.class_of_string cls_s in
      let* winner = Json.str_field "winner" r in
      let* cells = Json.list_field "cells" parse_cell r in
      Ok { scenario; cls; cells; winner }
    in
    let* rows = Json.list_field "rows" parse_row j in
    Ok { seed; phases; tasks_per_phase; groups; nodes_per_group; schedulers; rows }

let regret r scheduler =
  match List.find_opt (fun c -> c.scheduler = scheduler) r.cells with
  | Some c -> c.regret_vs_dynamic
  | None -> Float.nan

let gates =
  let open Obs.Gate in
  let families = [ "dynamic"; "static"; "stealing"; "hybrid"; "diffusive" ] in
  [
    gate "missing_families" Eq 0. (fun t ->
        count (fun s -> not (List.mem s t.schedulers)) families);
    gate "classes" Ge 3. (fun t -> length t.rows);
    gate "rows_off_roster" Eq 0. (fun t ->
        count (fun r -> List.map (fun c -> c.scheduler) r.cells <> t.schedulers) t.rows);
    gate "dynamic_abs_regret" Le 1e-9 (fun t ->
        max_of
          (fun c -> if c.scheduler = "dynamic" then Float.abs c.regret_vs_dynamic else 0.)
          (List.concat_map (fun r -> r.cells) t.rows));
    gate "winners_not_argmin" Eq 0. (fun t ->
        count
          (fun r ->
            match argmin r.cells with Some b -> b.scheduler <> r.winner | None -> true)
          t.rows);
    (* the E13 claim: when group speeds decay mid-run, rebalancing
       beats the stale static map *)
    gate "drifting_hybrid_minus_static_regret" Lt 0. (fun t ->
        match List.find_opt (fun r -> r.cls = Scenario.Drifting) t.rows with
        | Some r -> regret r "hybrid" -. regret r "static"
        | None -> Float.nan);
  ]

let write_bench path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json t));
      Out_channel.output_char oc '\n')

let pp fmt t =
  let open Format in
  fprintf fmt "@[<v>regret vs dynamic (negative = beats dynamic; * = winner)@,";
  fprintf fmt "%-14s" "class";
  List.iter (fun s -> fprintf fmt " %12s" s) t.schedulers;
  fprintf fmt "@,";
  List.iter
    (fun r ->
      fprintf fmt "%-14s" (Scenario.class_to_string r.cls);
      List.iter
        (fun c ->
          let star = if c.scheduler = r.winner then "*" else "" in
          fprintf fmt " %12s" (sprintf "%+.3f%s" c.regret_vs_dynamic star))
        r.cells;
      fprintf fmt "@,")
    t.rows;
  fprintf fmt "@]"
