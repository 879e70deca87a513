type t = {
  id : string;
  describes : string;
  run : ?quick:bool -> Format.formatter -> unit;
}

let all =
  [
    { id = E1_fit_quality.name; describes = E1_fit_quality.describes; run = E1_fit_quality.run };
    { id = E2_objectives.name; describes = E2_objectives.describes; run = E2_objectives.run };
    {
      id = E3_pred_vs_actual.name;
      describes = E3_pred_vs_actual.describes;
      run = E3_pred_vs_actual.run;
    };
    { id = E4_scaling.name; describes = E4_scaling.describes; run = E4_scaling.run };
    { id = E5_protein.name; describes = E5_protein.describes; run = E5_protein.run };
    { id = E6_solver.name; describes = E6_solver.describes; run = E6_solver.run };
    { id = E7_samples.name; describes = E7_samples.describes; run = E7_samples.run };
    { id = E8_cesm_table3.name; describes = E8_cesm_table3.describes; run = E8_cesm_table3.run };
    {
      id = E9_layout_scaling.name;
      describes = E9_layout_scaling.describes;
      run = E9_layout_scaling.run;
    };
    {
      id = E10_scheduler_ablation.name;
      describes = E10_scheduler_ablation.describes;
      run = E10_scheduler_ablation.run;
    };
    { id = E11_placement.name; describes = E11_placement.describes; run = E11_placement.run };
    { id = E12_resolve.name; describes = E12_resolve.describes; run = E12_resolve.run };
    { id = E13_arena.name; describes = E13_arena.describes; run = E13_arena.run };
    { id = E14_place.name; describes = E14_place.describes; run = E14_place.run };
  ]

let ids () = List.map (fun e -> e.id) all

let find_result id =
  let prefix_matches e =
    String.length id <= String.length e.id && String.sub e.id 0 (String.length id) = id
  in
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> Ok e
  | None -> (
    match List.filter prefix_matches all with
    | [ e ] -> Ok e
    | [] ->
      Error
        (Printf.sprintf "unknown experiment %S; valid ids: %s" id
           (String.concat ", " (ids ())))
    | ms ->
      Error
        (Printf.sprintf "ambiguous experiment %S: matches %s" id
           (String.concat ", " (List.map (fun e -> e.id) ms))))

let find id = match find_result id with Ok e -> e | Error _ -> raise Not_found

let run_all ?quick ?jobs fmt =
  let jobs = match jobs with Some j -> j | None -> Runtime.Config.jobs () in
  if jobs <= 1 then
    (* the sequential path is kept verbatim (Sys.time and all) so that
       [--jobs 1] output stays byte-identical to the historical runner *)
    List.iter
      (fun e ->
        Format.fprintf fmt "@.########## %s — %s ##########@." e.id e.describes;
        let t0 = Sys.time () in
        e.run ?quick fmt;
        Format.fprintf fmt "[%s finished in %.1f s]@." e.id (Sys.time () -. t0))
      all
  else
    (* shard experiments over a bounded pool; each renders into its own
       buffer and the chunks are emitted in registry order, so output
       stays deterministic while the work overlaps. Parallel runs report
       per-experiment wall clock ([Sys.time] is process-wide CPU and
       would be meaningless across domains). The pool starts the longest
       experiment first (longest processing time first): E14 is most of
       a quick run's work and of a full one's, and started last, in
       registry order, it ran alone once the rest were done. *)
    let longest, rest = List.partition (fun e -> e.id = E14_place.name) all in
    let order = longest @ rest in
    let chunks =
      Runtime.Pool.map ~jobs
        (fun e ->
          let buf = Buffer.create 4096 in
          let bfmt = Format.formatter_of_buffer buf in
          Format.fprintf bfmt "@.########## %s — %s ##########@." e.id e.describes;
          let t0 = Unix.gettimeofday () in
          e.run ?quick bfmt;
          Format.fprintf bfmt "[%s finished in %.1f s]@." e.id (Unix.gettimeofday () -. t0);
          Format.pp_print_flush bfmt ();
          (e.id, Buffer.contents buf))
        order
    in
    List.iter (fun e -> Format.pp_print_string fmt (List.assoc e.id chunks)) all;
    Format.pp_print_flush fmt ()
