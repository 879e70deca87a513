(* Coupled-component layout optimization (the CESM-style extension).

   Runs the full HSLB pipeline on synthetic coupled-climate components:
   benchmark each component, fit scaling curves, then solve the three
   layout MINLPs of the follow-up application and compare against the
   manual expert allocation. *)

let solve_ok layout config inputs =
  match Layouts.Layout_model.solve layout config inputs with
  | Ok a -> a
  | Error st ->
    failwith ("layout solve failed: " ^ Minlp.Solution.status_to_string st)

let () =
  let n_total = 512 in
  let resolution = Layouts.Cesm_data.Deg1 in
  let rng = Numerics.Rng.create 77 in
  (* steps 1+2: benchmark and fit each component *)
  let classes = Layouts.Cesm_data.benchmark_classes ~rng resolution in
  let fits =
    Hslb.Classes.gather_and_fit
      ~sizes:(Hslb.Fitting.recommended_sizes ~n_min:8 ~n_max:2048 ~points:6)
      ~reps:2 classes
  in
  Format.printf "fitted components:@.";
  List.iter
    (fun (fc : Hslb.Classes.fitted) ->
      Format.printf "  %-4s R2=%.4f  T(n) = %a@." fc.Hslb.Classes.cls.Hslb.Classes.name
        fc.Hslb.Classes.fit.Hslb.Fitting.r2 Scaling_law.pp fc.Hslb.Classes.fit.Hslb.Fitting.law)
    fits;
  let comp name =
    Layouts.Component.of_fit ~name
      (List.find
         (fun (fc : Hslb.Classes.fitted) -> fc.Hslb.Classes.cls.Hslb.Classes.name = name)
         fits)
        .Hslb.Classes.fit
  in
  let inputs =
    { Layouts.Layout_model.ice = comp "ice"; lnd = comp "lnd"; atm = comp "atm"; ocn = comp "ocn" }
  in
  (* step 3: the three layout models *)
  let config =
    {
      (Layouts.Layout_model.default_config ~n_total) with
      Layouts.Layout_model.ocn_allowed = Some (Layouts.Cesm_data.ocean_sweet_spots resolution);
    }
  in
  Format.printf "@.layout optimization on %d nodes:@." n_total;
  List.iter
    (fun layout ->
      let a = solve_ok layout config inputs in
      Format.printf "  %-22s total %8.2f s  [" (Layouts.Layout_model.layout_name layout)
        a.Layouts.Layout_model.total;
      List.iter (fun (n, v) -> Format.printf " %s:%d" n v) a.Layouts.Layout_model.nodes;
      Format.printf " ]@.")
    [
      Layouts.Layout_model.Hybrid;
      Layouts.Layout_model.Sequential_group;
      Layouts.Layout_model.Fully_sequential;
    ];
  (* compare the hybrid solution against the manual expert baseline *)
  let mi, ml, ma, mo = Layouts.Cesm_data.manual_allocation resolution ~n_total in
  let t name n = Layouts.Component.time (comp name) n in
  let manual_total =
    Layouts.Layout_model.layout_total Layouts.Layout_model.Hybrid ~ice:(t "ice" mi)
      ~lnd:(t "lnd" ml) ~atm:(t "atm" ma) ~ocn:(t "ocn" mo)
  in
  let hslb = solve_ok Layouts.Layout_model.Hybrid config inputs in
  Format.printf "@.manual expert allocation [ice:%d lnd:%d atm:%d ocn:%d]: %.2f s@." mi ml ma mo
    manual_total;
  Format.printf "HSLB improvement over manual: %.1f%%@."
    (100. *. (manual_total -. hslb.Layouts.Layout_model.total) /. manual_total)
