(* E8 — extension suite: the coupled-component (CESM-style) comparison,
   reproducing the shape of the follow-up paper's Table III: manual
   expert allocation vs HSLB (predicted and actual) for the hybrid
   layout, at two budgets per resolution, with and without the
   hard-coded ocean node restriction at high resolution. *)

let name = "E8_cesm_table3"
let describes = "Table III: manual vs HSLB allocations for coupled components"

let component_order = [ "lnd"; "ice"; "atm"; "ocn" ]

let fit_components ~resolution ~n_max =
  let rng = Workloads.rng 77 in
  let classes = Layouts.Cesm_data.benchmark_classes ~rng resolution in
  let sizes = Hslb.Fitting.recommended_sizes ~n_min:8 ~n_max ~points:6 in
  let fits = Hslb.Classes.gather_and_fit ~sizes ~reps:2 classes in
  let comp name =
    Layouts.Component.of_fit ~name
      (List.find
         (fun (fc : Hslb.Classes.fitted) -> fc.Hslb.Classes.cls.Hslb.Classes.name = name)
         fits)
        .Hslb.Classes.fit
  in
  {
    Layouts.Layout_model.ice = comp "ice";
    lnd = comp "lnd";
    atm = comp "atm";
    ocn = comp "ocn";
  }

(* a layout solve that stopped short of a proof shows a best incumbent,
   not HSLB's optimum: the table says so under its rows *)
let note_status fmt ~what (a : Layouts.Layout_model.alloc) =
  match a.Layouts.Layout_model.status with
  | Minlp.Solution.Optimal -> ()
  | st ->
    Format.fprintf fmt "%s: layout solve %s after %d nodes, not proven optimal@." what
      (Minlp.Solution.status_to_string st) a.Layouts.Layout_model.stats.Minlp.Solution.nodes

let scenario fmt ~resolution ~inputs ~n_total ~constrain_ocean =
  let res_name =
    match resolution with Layouts.Cesm_data.Deg1 -> "1 deg" | Layouts.Cesm_data.Deg1_8 -> "1/8 deg"
  in
  let config =
    {
      (Layouts.Layout_model.default_config ~n_total) with
      Layouts.Layout_model.ocn_allowed =
        (if constrain_ocean then Some (Layouts.Cesm_data.ocean_sweet_spots resolution)
         else None);
    }
  in
  let hslb =
    match Layouts.Layout_model.solve Layouts.Layout_model.Hybrid config inputs with
    | Ok a -> a
    | Error st ->
      failwith
        (Printf.sprintf "E8: layout solve failed: %s"
           (Minlp.Solution.status_to_string st))
  in
  let mi, ml, ma, mo = Layouts.Cesm_data.manual_allocation resolution ~n_total in
  let manual_nodes = [ ("lnd", ml); ("ice", mi); ("atm", ma); ("ocn", mo) ] in
  let sim_rng = Workloads.rng 123 in
  let actual which ~nodes =
    Layouts.Cesm_data.simulate_component ~rng:sim_rng resolution which ~nodes
  in
  let manual_times =
    List.map (fun (w, n) -> (w, actual w ~nodes:n)) manual_nodes
  in
  let hslb_actual =
    List.map
      (fun (w, n) -> (w, actual w ~nodes:n))
      (List.map (fun w -> (w, List.assoc w hslb.Layouts.Layout_model.nodes)) component_order)
  in
  let total times =
    Layouts.Layout_model.layout_total Layouts.Layout_model.Hybrid
      ~ice:(List.assoc "ice" times) ~lnd:(List.assoc "lnd" times)
      ~atm:(List.assoc "atm" times) ~ocn:(List.assoc "ocn" times)
  in
  let rows =
    List.map
      (fun w ->
        [
          w;
          string_of_int (List.assoc w manual_nodes);
          Table.fs (List.assoc w manual_times);
          string_of_int (List.assoc w hslb.Layouts.Layout_model.nodes);
          Table.fs (List.assoc w hslb.Layouts.Layout_model.times);
          Table.fs (List.assoc w hslb_actual);
        ])
      component_order
    @ [
        [
          "Total time";
          "";
          Table.fs (total manual_times);
          "";
          Table.fs hslb.Layouts.Layout_model.total;
          Table.fs (total hslb_actual);
        ];
      ]
  in
  Table.print fmt
    ~title:
      (Printf.sprintf "E8: %s, %d nodes%s" res_name n_total
         (if constrain_ocean then "" else ", unconstrained ocean nodes"))
    ~header:
      [ "component"; "manual #"; "manual s"; "HSLB #"; "HSLB pred s"; "HSLB actual s" ]
    rows;
  note_status fmt ~what:"HSLB" hslb;
  let gain = 100. *. (total manual_times -. total hslb_actual) /. total manual_times in
  Format.fprintf fmt "HSLB actual vs manual: %s@." (Table.pct gain)

let run ?(quick = false) fmt =
  let inputs1 = fit_components ~resolution:Layouts.Cesm_data.Deg1 ~n_max:2048 in
  scenario fmt ~resolution:Layouts.Cesm_data.Deg1 ~inputs:inputs1 ~n_total:128
    ~constrain_ocean:true;
  if not quick then begin
    scenario fmt ~resolution:Layouts.Cesm_data.Deg1 ~inputs:inputs1 ~n_total:2048
      ~constrain_ocean:true;
    let inputs8 = fit_components ~resolution:Layouts.Cesm_data.Deg1_8 ~n_max:32768 in
    List.iter
      (fun (n_total, constrain_ocean) ->
        scenario fmt ~resolution:Layouts.Cesm_data.Deg1_8 ~inputs:inputs8 ~n_total
          ~constrain_ocean)
      [ (8192, true); (32768, true); (8192, false); (32768, false) ];
    Format.fprintf fmt
      "expected shape: lifting the ocean restriction at 32768 nodes cuts the total by \
       ~20-40%% (published: predicted 1593->1129 s, actual 1612->1256 s)@."
  end
