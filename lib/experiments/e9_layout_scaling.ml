(* E9 — predicted scaling of the three component layouts.

   Reproduces the layout-comparison figure: predicted total time vs
   node budget for layouts 1–3, plus simulated "actual" points for
   layout 1 (the figure's `1exp` series, which matched prediction with
   R² = 1.0). Expected shape: layouts 1 and 2 close, layout 3 clearly
   worst. *)

let name = "E9_cesm_layouts"
let describes = "Fig: predicted total time vs nodes for layouts 1-3 (+ layout-1 actual)"

let run ?(quick = false) fmt =
  let node_counts = if quick then [ 64; 256 ] else [ 64; 128; 256; 512; 1024; 2048 ] in
  let inputs = E8_cesm_table3.fit_components ~resolution:Layouts.Cesm_data.Deg1 ~n_max:2048 in
  let sim_rng = Workloads.rng 55 in
  (* two passes: the three deterministic layout solves per node budget
     run on the worker pool, then the RNG-backed "actual" simulations
     replay sequentially over the shared stream — the draw order (and so
     the output) is identical at any HSLB_JOBS *)
  let solved =
    Runtime.Pool.map
      (fun n_total ->
        let config = Layouts.Layout_model.default_config ~n_total in
        let solve l =
          match Layouts.Layout_model.solve l config inputs with
          | Ok a -> a
          | Error st ->
            failwith
              (Printf.sprintf "E9: layout solve failed on %d nodes: %s" n_total
                 (Minlp.Solution.status_to_string st))
        in
        ( solve Layouts.Layout_model.Hybrid,
          solve Layouts.Layout_model.Sequential_group,
          solve Layouts.Layout_model.Fully_sequential ))
      node_counts
  in
  let rows =
    List.map2
      (fun n_total (a1, a2, a3) ->
        (* layout-1 actual: simulate each component at its allocation *)
        let actual w =
          Layouts.Cesm_data.simulate_component ~rng:sim_rng Layouts.Cesm_data.Deg1 w
            ~nodes:(List.assoc w a1.Layouts.Layout_model.nodes)
        in
        let actual1 =
          Layouts.Layout_model.layout_total Layouts.Layout_model.Hybrid ~ice:(actual "ice")
            ~lnd:(actual "lnd") ~atm:(actual "atm") ~ocn:(actual "ocn")
        in
        ( [
            string_of_int n_total;
            Table.fs a1.Layouts.Layout_model.total;
            Table.fs actual1;
            Table.fs a2.Layouts.Layout_model.total;
            Table.fs a3.Layouts.Layout_model.total;
          ],
          (a1.Layouts.Layout_model.total, actual1) ))
      node_counts solved
  in
  Table.print fmt ~title:"E9: layout scaling (1 deg components)"
    ~header:[ "nodes"; "layout1 pred"; "layout1 actual"; "layout2 pred"; "layout3 pred" ]
    (List.map fst rows);
  List.iter2
    (fun n_total (a1, a2, a3) ->
      List.iteri
        (fun i a ->
          E8_cesm_table3.note_status fmt
            ~what:(Printf.sprintf "layout %d, %d nodes" (i + 1) n_total)
            a)
        [ a1; a2; a3 ])
    node_counts solved;
  let series_of idx marker label =
    {
      Chart.label;
      marker;
      points =
        List.map2
          (fun n (cells, _) -> (float_of_int n, float_of_string (List.nth cells idx)))
          node_counts rows;
    }
  in
  Chart.plot fmt ~title:"E9 figure: predicted total vs nodes per layout"
    [
      series_of 1 '1' "layout 1 (hybrid)";
      series_of 3 '2' "layout 2 (sequential group)";
      series_of 4 '3' "layout 3 (fully sequential)";
    ];
  (* the figure reports R² between layout-1 prediction and experiment *)
  let preds = Array.of_list (List.map (fun (_, (p, _)) -> p) rows) in
  let acts = Array.of_list (List.map (fun (_, (_, a)) -> a) rows) in
  Format.fprintf fmt "R2 between layout-1 predicted and actual: %.4f (published: 1.0)@."
    (Numerics.Stats.r_squared ~observed:acts ~predicted:preds)
