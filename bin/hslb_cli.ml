(* hslb — command-line front end.

   Subcommands:
     fit        fit the performance model T(n) = a/n^c + b·n + d to
                (nodes, seconds) observations from a CSV file
     solve      solve the allocation MINLP for fitted classes read from
                a CSV file (name,count,a,b,c,d)
     fmo        run the simulated FMO comparison (dynamic / even / HSLB)
     layouts    solve a component-layout model (CESM-style extension)
     audit      fault-injection stress sweep over the MINLP solvers with
                independent certificate checking (the CI soundness gate)
     obs        validate observability artifacts (Chrome traces,
                Prometheus expositions) — the CI artifact gate
     arena      race the scheduler families over the workload-scenario
                zoo and print the regret-vs-dynamic matrix (E13)
     experiment regenerate one or all of the paper's tables/figures
     list       list available experiments

   Shared flags (--report, --audit, budget knobs) live in
   Cli_common so they parse identically here and in bench/main.exe. *)

open Cmdliner

(* ---------- shared helpers ---------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* a bad input file is a usage error: its message on stderr, exit 2 *)
let usage_error cmd msg =
  Format.eprintf "hslb %s: %s@." cmd msg;
  exit 2

(* the REASON of a [Sys_error] about [path]: its message less the
   "PATH: " the runtime puts in front when the open failed *)
let sys_reason path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix) (String.length msg - String.length prefix)
  else msg

(* a file named by [flag] that [cmd] could not [verb] ("open",
   "write"): "hslb CMD: FLAG: cannot VERB PATH: REASON" on stderr *)
let file_error cmd flag verb path msg =
  Format.eprintf "hslb %s: %s: cannot %s %s: %s@." cmd flag verb path (sys_reason path msg)

(* [write ()] writes the file [path] named by [flag]; when it cannot,
   [file_error] and exit 1 *)
let write_or_exit cmd flag path write =
  try write ()
  with Sys_error msg ->
    file_error cmd flag "write" path msg;
    exit 1

(* ---------- fit ---------- *)

(* "nodes,seconds" lines; line numbers are 1-based over the raw text,
   comments and blanks included, as Model_store numbers them *)
let parse_observations text =
  let number lineno line what s =
    match float_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "line %d: %s is not a number: %S: %s" lineno what s line)
  in
  let ( let* ) = Result.bind in
  let rec go lineno acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (lineno + 1) acc rest
      else
        match List.map String.trim (String.split_on_char ',' line) with
        | [ n; t ] ->
          let* n = number lineno line "nodes" n in
          let* t = number lineno line "seconds" t in
          go (lineno + 1) ((n, t) :: acc) rest
        | fields ->
          Error
            (Printf.sprintf "line %d: expected 2 comma-separated fields (nodes,seconds), got %d: %s"
               lineno (List.length fields) line))
  in
  go 1 [] (String.split_on_char '\n' text)

let fit_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CSV" ~doc:"Observations file: one \"nodes,seconds\" pair per line.")
  in
  let save_class =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-class" ] ~docv:"FILE:NAME:COUNT"
          ~doc:
            "Append the fitted model as a class line (name,count,a,b,c,d) to FILE, creating \
             it if needed — the input format of the solve subcommand.")
  in
  let run file save_class =
    let fit =
      match parse_observations (read_file file) with
      | Error msg -> usage_error "fit" msg
      | Ok obs -> (
        try Hslb.Fitting.fit_observations obs with Invalid_argument msg -> usage_error "fit" msg)
    in
    Format.printf "T(n) = %a@." Scaling_law.pp fit.Hslb.Fitting.law;
    Format.printf "R2 = %.6f, RMSE = %.6g over %d observations@." fit.Hslb.Fitting.r2
      fit.Hslb.Fitting.rmse (Array.length fit.Hslb.Fitting.observations);
    match save_class with
    | None -> ()
    | Some spec -> (
      match String.split_on_char ':' spec with
      | [ path; name; count ] ->
        let law = fit.Hslb.Fitting.law in
        write_or_exit "fit" "--save-class" path (fun () ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
            Printf.fprintf oc "%s,%s,%.17g,%.17g,%.17g,%.17g\n"
              (Hslb.Model_store.csv_name name)
              count law.Scaling_law.a law.Scaling_law.b law.Scaling_law.c law.Scaling_law.d;
            close_out oc);
        Format.printf "appended class %s (count %s) to %s@." name count path
      | _ -> usage_error "fit" "--save-class expects FILE:NAME:COUNT")
  in
  Cmd.v
    (Cmd.info "fit" ~doc:"Fit the HSLB performance model to benchmark observations.")
    Term.(const run $ file $ save_class)

(* ---------- solve ---------- *)

(* converters and budget/report/audit flags shared with bench/main.exe *)
let objective_conv = Cli_common.objective_conv
let solver_conv = Cli_common.solver_conv
let deadline_ms_arg = Cli_common.deadline_ms_arg
let max_nodes_arg = Cli_common.max_nodes_arg
let report_arg = Cli_common.report_arg
let audit_arg = Cli_common.audit_arg
let arm_budget = Cli_common.arm_budget

let solve_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CSV" ~doc:"Classes file: \"name,count,a,b,c,d\" per line.")
  in
  let nodes =
    Arg.(required & opt (some int) None & info [ "nodes"; "n" ] ~doc:"Total node budget.")
  in
  let objective =
    Arg.(
      value
      & opt objective_conv Hslb.Objective.Min_max
      & info [ "objective" ] ~doc:"min-max | max-min | min-sum.")
  in
  let solver =
    Arg.(
      value
      & opt solver_conv Hslb.Alloc_model.default_solver
      & info [ "solver" ]
          ~doc:
            "exact (default; threshold search, min-max only) | oa | bnb | oa-multi. \
             max-min and min-sum always use their own exact paths.")
  in
  let repeat =
    Arg.(
      value
      & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Solve the same instance N times through a shared solve cache (a \
             service-traffic demo: the first solve is computed, later ones are memoized \
             when the result is proven optimal).")
  in
  let run file nodes objective solver repeat deadline_ms max_nodes report audit =
    let specs =
      try Hslb.Model_store.specs_of_csv (read_file file)
      with Failure msg -> usage_error "solve" msg
    in
    let repeat = Stdlib.max 1 repeat in
    let cache = Runtime.Cache.create () in
    let tally = Engine.Telemetry.create () in
    let last = ref None in
    for i = 1 to repeat do
      let budget = arm_budget deadline_ms max_nodes in
      let hits0 = Runtime.Cache.hits cache in
      let result =
        try
          Hslb.Alloc_model.solve ~solver ~objective ~budget ~trace:tally ~cache ~n_total:nodes
            specs
        with Invalid_argument msg -> usage_error "solve" msg
      in
      let wall_s = Engine.Budget.elapsed_s budget in
      let cache_hit = Runtime.Cache.hits cache > hits0 in
      if repeat > 1 then
        Format.printf "solve %d/%d: %.2f ms%s@." i repeat (wall_s *. 1000.)
          (if cache_hit then " (cache hit)" else "");
      last := Some (result, wall_s, cache_hit)
    done;
    let result, wall_s, cache_hit =
      match !last with Some v -> v | None -> assert false
    in
    let status =
      match result with
      | Ok alloc -> alloc.Hslb.Alloc_model.status
      | Error st -> st
    in
    (* independent re-verification of the certificate the solve
       carried, from the specs it was solved for *)
    let audit_verdict =
      if not audit then None
      else
        Some
          (match result with
          | Error st ->
            Error ("audit: nothing to audit: " ^ Minlp.Solution.status_to_string st)
          | Ok alloc ->
            Cli_common.audit_with
              (Audit.check_allocation ~objective ~n_total:nodes specs)
              alloc.Hslb.Alloc_model.certificate)
    in
    (match report with
    | None -> ()
    | Some path ->
      (* the value of the objective that was solved, as its
         certificate claims it *)
      let objective_value =
        match result with
        | Error _ -> None
        | Ok alloc -> (
          let times = alloc.Hslb.Alloc_model.predicted_times in
          match objective with
          | Hslb.Objective.Min_max -> Some alloc.Hslb.Alloc_model.predicted_makespan
          | Hslb.Objective.Max_min -> Some (Array.fold_left Float.min infinity times)
          | Hslb.Objective.Min_sum ->
            Some
              (List.fold_left2
                 (fun acc (spec : Hslb.Alloc_model.spec) t ->
                   acc +. (float_of_int spec.fc.Hslb.Classes.cls.Hslb.Classes.count *. t))
                 0. specs (Array.to_list times)))
      in
      let certificate =
        match result with
        | Ok alloc -> alloc.Hslb.Alloc_model.certificate
        | Error _ -> None
      in
      write_or_exit "solve" "--report" path (fun () ->
          Engine.Run_report.write_json path
            (Engine.Run_report.make
               ~solver:(Engine.Solver_choice.to_string solver)
               ~status:(Minlp.Solution.status_to_string status)
               ?objective:objective_value ~cache_hit ?certificate
               ?audit:(Option.map Cli_common.audit_outcome_string audit_verdict)
               ~wall_s tally));
      Format.printf "run report written to %s@." path);
    let finish () =
      match audit_verdict with
      | None | Some (Ok _) ->
        (match audit_verdict with
        | Some (Ok line) -> Format.printf "%s@." line
        | None | Some (Error _) -> ())
      | Some (Error line) ->
        Format.eprintf "%s@." line;
        exit 1
    in
    match result with
    | Ok alloc ->
      (match status with
      | Minlp.Solution.Optimal -> ()
      | st ->
        Format.printf "status: %s — best incumbent shown@."
          (Minlp.Solution.status_to_string st));
      Format.printf "predicted makespan: %.4f s@." alloc.Hslb.Alloc_model.predicted_makespan;
      List.iteri
        (fun i spec ->
          Format.printf "  %-20s count=%-4d nodes/task=%-6d predicted=%.4f s@."
            spec.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.name
            spec.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.count
            alloc.Hslb.Alloc_model.nodes_per_task.(i)
            alloc.Hslb.Alloc_model.predicted_times.(i))
        specs;
      finish ()
    | Error st ->
      Format.printf "no allocation: %s@." (Minlp.Solution.status_to_string st);
      exit 1
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve the allocation MINLP for fitted task classes.")
    Term.(
      const run $ file $ nodes $ objective $ solver $ repeat $ deadline_ms_arg
      $ max_nodes_arg $ report_arg $ audit_arg)

(* ---------- fmo ---------- *)

let fmo_cmd =
  let molecules =
    Arg.(value & opt int 32 & info [ "molecules"; "m" ] ~doc:"Water molecules in the cluster.")
  in
  let residues =
    Arg.(
      value
      & opt (some int) None
      & info [ "peptide" ] ~doc:"Use a random peptide with this many residues instead.")
  in
  let nodes = Arg.(value & opt int 512 & info [ "nodes"; "n" ] ~doc:"Total node budget.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Simulation seed.") in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PREFIX"
          ~doc:"Write Gantt CSVs of the HSLB run: PREFIX-sweep0.csv and PREFIX-dimer.csv.")
  in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Print ASCII Gantt charts.") in
  let run molecules residues nodes seed trace gantt =
    let machine = Machine.make ~name:"intrepid-slice" ~num_nodes:nodes () in
    let plan =
      match residues with
      | Some r ->
        Fmo.Task.fmo2_plan
          (Fmo.Fragment.fragment
             (Fmo.Molecule.random_peptide ~rng:(Numerics.Rng.create 2) r)
             Fmo.Basis.B6_31gd)
      | None ->
        Fmo.Task.fmo2_plan
          (Fmo.Fragment.fragment
             (Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 1) molecules)
             Fmo.Basis.B6_31gd)
    in
    Format.printf "%d fragments, %d SCF dimers, %d ES dimers@."
      (Array.length plan.Fmo.Task.fragments)
      (Array.length plan.Fmo.Task.scf_dimers)
      (Array.length plan.Fmo.Task.es_dimers);
    let dyn = Hslb.Fmo_app.run_dynamic ~rng:(Numerics.Rng.create seed) machine plan ~n_total:nodes () in
    let even =
      Hslb.Fmo_app.run_static_even ~rng:(Numerics.Rng.create seed) machine plan ~n_total:nodes ()
    in
    let hp, hslb =
      Hslb.Fmo_app.run_hslb ~rng:(Numerics.Rng.create seed) machine plan ~n_total:nodes
        Hslb.Fmo_app.default_config
    in
    let report label (r : Fmo.Fmo_run.result) =
      Format.printf "%-14s total %8.2f s (monomer %8.2f, dimer %8.2f, utilization %5.1f%%)@."
        label r.Fmo.Fmo_run.total_time r.Fmo.Fmo_run.monomer_time r.Fmo.Fmo_run.dimer_time
        (100. *. r.Fmo.Fmo_run.utilization)
    in
    report "dynamic" dyn;
    report "even-static" even;
    report "HSLB" hslb;
    Format.printf "HSLB predicted %.2f s; speedup over dynamic %.2fx@."
      hp.Hslb.Fmo_app.predicted_total
      (dyn.Fmo.Fmo_run.total_time /. hslb.Fmo.Fmo_run.total_time);
    (match trace with
    | None -> ()
    | Some prefix ->
      Gddi.Trace.write_csv (prefix ^ "-sweep0.csv") (List.hd hslb.Fmo.Fmo_run.sweeps);
      Gddi.Trace.write_csv (prefix ^ "-dimer.csv") hslb.Fmo.Fmo_run.dimer;
      Format.printf "traces written to %s-sweep0.csv and %s-dimer.csv@." prefix prefix);
    if gantt then begin
      Format.printf "@.HSLB monomer sweep 0:@.";
      Gddi.Trace.pp_gantt Format.std_formatter ~width:72 hp.Hslb.Fmo_app.partition
        (List.hd hslb.Fmo.Fmo_run.sweeps);
      Format.printf "@.HSLB dimer phase:@.";
      Gddi.Trace.pp_gantt Format.std_formatter ~width:72 hp.Hslb.Fmo_app.dimer_partition
        hslb.Fmo.Fmo_run.dimer
    end
  in
  Cmd.v
    (Cmd.info "fmo" ~doc:"Run the simulated FMO scheduler comparison.")
    Term.(const run $ molecules $ residues $ nodes $ seed $ trace $ gantt)

(* ---------- layouts ---------- *)

let layouts_cmd =
  let nodes = Arg.(value & opt int 128 & info [ "nodes"; "n" ] ~doc:"Total node budget.") in
  let resolution =
    let res_conv =
      Arg.conv
        ( (function
          | "1" -> Ok Layouts.Cesm_data.Deg1
          | "1/8" -> Ok Layouts.Cesm_data.Deg1_8
          | s -> Error (`Msg ("unknown resolution: " ^ s))),
          fun fmt r ->
            Format.pp_print_string fmt
              (match r with Layouts.Cesm_data.Deg1 -> "1" | Layouts.Cesm_data.Deg1_8 -> "1/8")
        )
    in
    Arg.(value & opt res_conv Layouts.Cesm_data.Deg1 & info [ "resolution" ] ~doc:"1 or 1/8.")
  in
  let layout =
    let layout_conv =
      Arg.conv
        ( (function
          | "1" -> Ok Layouts.Layout_model.Hybrid
          | "2" -> Ok Layouts.Layout_model.Sequential_group
          | "3" -> Ok Layouts.Layout_model.Fully_sequential
          | s -> Error (`Msg ("unknown layout: " ^ s))),
          fun fmt l -> Format.pp_print_string fmt (Layouts.Layout_model.layout_name l) )
    in
    Arg.(value & opt layout_conv Layouts.Layout_model.Hybrid & info [ "layout" ] ~doc:"1, 2 or 3.")
  in
  let free_ocean =
    Arg.(value & flag & info [ "free-ocean" ] ~doc:"Lift the ocean sweet-spot restriction.")
  in
  let run nodes resolution layout free_ocean =
    let rng = Numerics.Rng.create 77 in
    let classes = Layouts.Cesm_data.benchmark_classes ~rng resolution in
    let n_max = Stdlib.max 512 nodes in
    let fits =
      Hslb.Classes.gather_and_fit
        ~sizes:(Hslb.Fitting.recommended_sizes ~n_min:8 ~n_max ~points:6)
        ~reps:2 classes
    in
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
    let config =
      {
        (Layouts.Layout_model.default_config ~n_total:nodes) with
        Layouts.Layout_model.ocn_allowed =
          (if free_ocean then None else Some (Layouts.Cesm_data.ocean_sweet_spots resolution));
      }
    in
    let a =
      match Layouts.Layout_model.solve layout config inputs with
      | Ok a -> a
      | Error st ->
        Format.eprintf "layout solve failed: %s@." (Minlp.Solution.status_to_string st);
        exit 1
    in
    Format.printf "layout %s on %d nodes: predicted total %.2f s (status: %s)@."
      (Layouts.Layout_model.layout_name layout) nodes a.Layouts.Layout_model.total
      (Minlp.Solution.status_to_string a.Layouts.Layout_model.status);
    List.iter
      (fun (name, n) ->
        Format.printf "  %-4s %6d nodes  %10.2f s@." name n
          (List.assoc name a.Layouts.Layout_model.times))
      a.Layouts.Layout_model.nodes
  in
  Cmd.v
    (Cmd.info "layouts" ~doc:"Solve a coupled-component layout model (extension).")
    Term.(const run $ nodes $ resolution $ layout $ free_ocean)

(* ---------- minlp: solve a model file ---------- *)

let minlp_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MODEL" ~doc:"Model file in the AMPL-like language (see Minlp.Model_text).")
  in
  let solver =
    Arg.(
      value
      & opt solver_conv Engine.Solver_choice.Oa
      & info [ "solver" ]
          ~doc:"oa (default) | bnb | oa-multi (alias: multi); exact is refused.")
  in
  let run file solver deadline_ms max_nodes report audit =
    let p = Minlp.Model_text.parse_file file in
    let budget = arm_budget deadline_ms max_nodes in
    let tally = Engine.Telemetry.create () in
    let sol, certificate =
      try Minlp.Solver.run ~budget ~tally solver p
      with Invalid_argument msg ->
        Format.eprintf "hslb minlp: %s@." msg;
        exit 2
    in
    let wall_s = Engine.Budget.elapsed_s budget in
    let audit_verdict =
      if audit then Some (Cli_common.audit_with (Audit.check_minlp p) (Some certificate))
      else None
    in
    (match report with
    | None -> ()
    | Some path ->
      write_or_exit "minlp" "--report" path (fun () ->
          Engine.Run_report.write_json path
            (Engine.Run_report.make
               ~solver:(Engine.Solver_choice.to_string solver)
               ~status:(Minlp.Solution.status_to_string sol.Minlp.Solution.status)
               ~objective:sol.Minlp.Solution.obj ~bound:sol.Minlp.Solution.bound ~certificate
               ?audit:(Option.map Cli_common.audit_outcome_string audit_verdict)
               ~wall_s tally));
      Format.printf "run report written to %s@." path);
    Format.printf "status: %s@." (Minlp.Solution.status_to_string sol.Minlp.Solution.status);
    if Minlp.Solution.has_incumbent sol then begin
      Format.printf "objective: %.6g (bound %.6g)@." sol.Minlp.Solution.obj
        sol.Minlp.Solution.bound;
      Array.iteri
        (fun j v -> Format.printf "  %-16s = %.6g@." p.Minlp.Problem.names.(j) v)
        sol.Minlp.Solution.x
    end;
    Format.printf "stats: %d nodes, %d LPs, %d NLPs, %d cuts@."
      sol.Minlp.Solution.stats.Minlp.Solution.nodes sol.Minlp.Solution.stats.Minlp.Solution.lp_solves
      sol.Minlp.Solution.stats.Minlp.Solution.nlp_solves sol.Minlp.Solution.stats.Minlp.Solution.cuts;
    match audit_verdict with
    | None | Some (Ok _) ->
      (match audit_verdict with
      | Some (Ok line) -> Format.printf "%s@." line
      | None | Some (Error _) -> ())
    | Some (Error line) ->
      Format.eprintf "%s@." line;
      exit 1
  in
  Cmd.v
    (Cmd.info "minlp" ~doc:"Solve a convex MINLP written in the AMPL-like model language.")
    Term.(
      const run $ file $ solver $ deadline_ms_arg $ max_nodes_arg $ report_arg $ audit_arg)

(* ---------- serve: long-lived NDJSON solve service ---------- *)

(* shared with route/loadgen via Cli_common so the flags parse
   identically across the three commands *)
let listen_arg =
  Arg.(
    value
    & opt (some Cli_common.addr_conv) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Serve over a socket instead of stdin/stdout: $(b,unix:PATH) or \
           $(b,tcp:HOST:PORT) (port 0 picks a free port; the bound address is \
           announced with a $(i,listening) event line on stdout). Many concurrent \
           connections, same NDJSON framing per connection.")

(* a [Unix_error] out of [Service.run]: the [--listen] address would
   not bind, or stdin could not be read *)
let listen_failed cmd listen e arg =
  Format.eprintf "hslb %s: cannot listen on %s: %s %s@." cmd
    (Option.fold ~none:"stdio" ~some:Serve.Transport_socket.addr_to_string listen)
    (Unix.error_message e) arg

let serve_cmd =
  let jobs = Cli_common.jobs_arg in
  let queue_limit = Cli_common.queue_limit_arg in
  let cache_capacity = Cli_common.cache_capacity_arg in
  let drain_grace_ms = Cli_common.drain_grace_ms_arg in
  let telemetry =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per finished request (queue wait, solve wall, cache \
             hit) to FILE — a replayable request trace.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Periodically rewrite FILE with a Prometheus text exposition of the \
             server's metrics (queue-wait and solve-latency histograms plus the \
             process-wide registry); written atomically via rename, with a final \
             flush after drain.")
  in
  let metrics_interval_ms =
    Arg.(
      value
      & opt float 1000.
      & info [ "metrics-interval-ms" ] ~docv:"MS"
          ~doc:"Flush period for $(b,--metrics-out) (must be positive).")
  in
  let run jobs queue_limit cache_capacity drain_grace_ms telemetry metrics_out
      metrics_interval_ms listen report =
    (match jobs with Some j -> Runtime.Config.set_jobs j | None -> ());
    if metrics_interval_ms <= 0. then begin
      Format.eprintf "hslb serve: --metrics-interval-ms must be positive@.";
      exit 2
    end;
    let cfg =
      {
        Serve.Server.jobs = Runtime.Config.jobs ();
        queue_limit;
        cache_capacity;
        drain_grace_s = drain_grace_ms /. 1000.;
      }
    in
    let telemetry_oc =
      Option.map
        (fun p ->
          try open_out_gen [ Open_append; Open_creat ] 0o644 p
          with Sys_error msg ->
            file_error "serve" "--telemetry" "open" p msg;
            exit 2)
        telemetry
    in
    let telemetry =
      Option.map
        (fun oc line ->
          output_string oc line;
          output_char oc '\n';
          flush oc)
        telemetry_oc
    in
    let server = Serve.Server.create ?telemetry cfg ~emit:Serve.Service.stdout_line in
    match
      Serve.Service.run ?report_path:report ?metrics_out
        ~metrics_interval_s:(metrics_interval_ms /. 1000.)
        ~listen
        (Serve.Service.core_of_server server)
    with
    | _report -> Option.iter close_out telemetry_oc
    | exception Serve.Service.Report_unwritable (path, msg) ->
      (* every request was answered and the drained event is out *)
      file_error "serve" "--report" "write" path msg;
      exit 1
    | exception Serve.Service.Metrics_unwritable (path, msg) ->
      (* refused before serving *)
      file_error "serve" "--metrics-out" "write" path msg;
      exit 2
    | exception Unix.Unix_error (e, _, arg) ->
      listen_failed "serve" listen e arg;
      exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve allocation solves as a long-lived service: newline-delimited JSON \
          requests on stdin (or over $(b,--listen)), one response line per request \
          (see docs/SERVE.md). Per-request deadlines map onto the engine budget, the \
          queue rejects past its high-water mark, every answer is audited, proven \
          optima are cached, and SIGTERM drains gracefully.")
    Term.(
      const run $ jobs $ queue_limit $ cache_capacity $ drain_grace_ms $ telemetry
      $ metrics_out $ metrics_interval_ms $ listen_arg $ report_arg)

(* ---------- arena: scheduler race over the workload-scenario zoo ---------- *)

let arena_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario generator seed.") in
  let quick =
    Arg.(
      value
      & flag
      & info [ "quick" ] ~doc:"Reduced sizes: 4 phases of 24 tasks instead of 8 of 48.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the regret matrix as a BENCH_arena.json artifact (schema \
             $(i,hslb-bench-arena-v1)) — the file $(b,hslb obs --bench) checks.")
  in
  let classes_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "class" ] ~docv:"CLASS"
          ~doc:
            "Race only this scenario class (repeatable): steady | bursty | \
             multi-tenant | heavy-tailed | drifting | failure. Default: all six.")
  in
  let run seed quick out classes =
    let classes =
      match classes with
      | [] -> Arena.Scenario.all_classes
      | specs ->
        List.map
          (fun s ->
            match Arena.Scenario.class_of_string s with
            | Ok c -> c
            | Error msg ->
              Format.eprintf "hslb arena: %s@." msg;
              exit 2)
          specs
    in
    let phases = if quick then 4 else 8 in
    let tasks_per_phase = if quick then 24 else 48 in
    let t = Arena.Race.run ~phases ~tasks_per_phase ~seed classes in
    Format.printf "%a@." Arena.Race.pp t;
    match out with
    | None -> ()
    | Some path -> (
      match Arena.Race.write_bench path t with
      | () -> Format.printf "arena benchmark written to %s@." path
      | exception Sys_error msg ->
        file_error "arena" "--out" "write" path msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "arena"
       ~doc:
         "Race every scheduler family (dynamic, static LPT, work stealing, hybrid \
          rebalancing, diffusive exchange) over the seeded workload-scenario zoo and \
          print the regret-vs-dynamic matrix (experiment E13).")
    Term.(const run $ seed $ quick $ out $ classes_arg)

(* ---------- route: fingerprint-sharded solve fleet ---------- *)

let route_cmd =
  let backends =
    Arg.(
      value
      & opt int 2
      & info [ "backends" ] ~docv:"N"
          ~doc:"Backend $(b,hslb serve) processes to spawn and shard across.")
  in
  let listen =
    Arg.(
      required
      & opt (some Cli_common.addr_conv) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Front-end address clients connect to: $(b,unix:PATH) or \
             $(b,tcp:HOST:PORT) (port 0 picks a free port; announced with a \
             $(i,listening) event line).")
  in
  let sock_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "sock-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the backend Unix sockets (default: a fresh directory under \
             the system temp dir).")
  in
  let vnodes =
    Arg.(
      value
      & opt int 64
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Consistent-hash ring points per backend (balance vs ring size).")
  in
  let run backends listen sock_dir vnodes jobs queue_limit cache_capacity
      drain_grace_ms metrics_out report =
    if backends < 1 then begin
      Format.eprintf "hslb route: --backends must be >= 1@.";
      exit 2
    end;
    let dir =
      match sock_dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "hslb-route-%d" (Unix.getpid ()))
    in
    (match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let backend_args =
      [
        "serve";
        "--jobs";
        string_of_int (match jobs with Some j -> j | None -> Runtime.Config.jobs ());
        "--queue-limit";
        string_of_int queue_limit;
        "--cache-capacity";
        string_of_int cache_capacity;
        "--drain-grace-ms";
        Printf.sprintf "%g" drain_grace_ms;
      ]
    in
    let cfg =
      {
        (Serve.Router.default_config ()) with
        Serve.Router.vnodes;
        (* the fleet grace outlives the backends' own, so their
           budget-cancelled answers still come home *)
        drain_grace_s = (drain_grace_ms /. 1000.) +. 3.;
      }
    in
    let router =
      try
        Serve.Router.create ~cfg
          (Serve.Router.spawn_targets ~prog:Sys.executable_name ~args:backend_args
             ~dir ~count:backends)
      with Failure msg ->
        Format.eprintf "hslb route: %s@." msg;
        exit 1
    in
    match
      Serve.Service.run ?report_path:report ?metrics_out
        ~listening:[ ("backends", Serve.Json.Num (float_of_int backends)) ]
        ~listen:(Some listen) (Serve.Router.core router)
    with
    | _report -> ()
    | exception Serve.Service.Report_unwritable (path, msg) ->
      file_error "route" "--report" "write" path msg;
      exit 1
    | exception Serve.Service.Metrics_unwritable (path, msg) ->
      file_error "route" "--metrics-out" "write" path msg;
      Serve.Router.initiate_drain router;
      ignore (Serve.Router.await_drain router : Engine.Run_report.t);
      exit 2
    | exception Unix.Unix_error (e, _, arg) ->
      listen_failed "route" (Some listen) e arg;
      Serve.Router.initiate_drain router;
      ignore (Serve.Router.await_drain router : Engine.Run_report.t);
      exit 1
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Front a fleet of $(b,hslb serve) backends: spawn and supervise N solve \
          processes over Unix sockets, consistent-hash each solve request's instance \
          fingerprint to its shard (so per-backend caches stay hot), fan \
          ping/stats/drain out to every backend, respawn dead backends, and drain the \
          whole fleet gracefully on SIGTERM or a drain op.")
    Term.(
      const run $ backends $ listen $ sock_dir $ vnodes $ Cli_common.jobs_arg
      $ Cli_common.queue_limit_arg $ Cli_common.cache_capacity_arg
      $ Cli_common.drain_grace_ms_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "metrics-out" ] ~docv:"FILE"
              ~doc:"Periodic Prometheus exposition of the router's metrics.")
      $ Cli_common.report_arg)

(* ---------- loadgen: trace replay + fleet benchmark ---------- *)

let loadgen_cmd =
  let connect =
    Arg.(
      value
      & opt (some Cli_common.addr_conv) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Replay against a running server/router at $(b,unix:PATH) or \
                $(b,tcp:HOST:PORT).")
  in
  let bench_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:
            "Fleet benchmark mode: replay the trace against a 1-backend and an \
             N-backend fleet (spawned internally over Unix sockets) and write the \
             throughput/latency comparison to FILE (BENCH_fleet.json).")
  in
  let backends =
    Arg.(
      value
      & opt int 2
      & info [ "backends" ] ~docv:"N" ~doc:"Fleet size for $(b,--bench-out).")
  in
  let requests =
    Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N" ~doc:"Trace length.")
  in
  let distinct =
    Arg.(
      value
      & opt int 48
      & info [ "distinct" ] ~docv:"K"
          ~doc:
            "Distinct solve instances cycled through the trace. Pick K above a \
             backend's $(b,--cache-capacity) to make a single backend thrash its LRU \
             while the sharded fleet stays cache-resident.")
  in
  let classes =
    Arg.(value & opt int 3 & info [ "classes" ] ~docv:"C" ~doc:"Fragment classes per instance.")
  in
  let nodes =
    Arg.(value & opt int 16 & info [ "nodes" ] ~docv:"N" ~doc:"Node budget per instance.")
  in
  let sleep_every =
    Arg.(
      value
      & opt int 0
      & info [ "sleep-every" ] ~docv:"K"
          ~doc:"Every K-th request is a sleep op (0: never).")
  in
  let sleep_ms =
    Arg.(value & opt float 5. & info [ "sleep-ms" ] ~docv:"MS" ~doc:"Sleep op duration.")
  in
  let expire_every =
    Arg.(
      value
      & opt int 0
      & info [ "expire-every" ] ~docv:"K"
          ~doc:
            "Every K-th solve carries a near-zero deadline, provoking outcome \
             $(b,expired) (0: never).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Trace generator seed.") in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Target send rate (default: as fast as the window allows).")
  in
  let window =
    Arg.(
      value
      & opt int 16
      & info [ "window" ] ~docv:"N" ~doc:"Max requests in flight at once.")
  in
  let drain =
    Arg.(
      value
      & flag
      & info [ "drain" ]
          ~doc:"Send a drain op after the trace and wait for the fleet-wide ack.")
  in
  let label =
    Arg.(value & opt string "run" & info [ "label" ] ~doc:"Label in the emitted result.")
  in
  let run connect bench_out backends requests distinct classes nodes sleep_every
      sleep_ms expire_every seed rate window drain label deadline_ms jobs
      queue_limit cache_capacity =
    let spec =
      {
        (Serve.Loadgen.default_spec ()) with
        Serve.Loadgen.requests;
        distinct;
        classes;
        nodes;
        sleep_every;
        sleep_ms;
        expire_every;
        deadline_ms;
        seed;
      }
    in
    match (connect, bench_out) with
    | Some _, Some _ | None, None ->
      Format.eprintf "hslb loadgen: pass exactly one of --connect or --bench-out@.";
      exit 2
    | Some addr, None ->
      let trace = Serve.Loadgen.make_trace spec in
      let r =
        try
          Serve.Loadgen.run ~label ?rate_rps:rate ~window ~drain_at_end:drain
            (Serve.Loadgen.Net addr) trace
        with Unix.Unix_error (e, _, _) ->
          Format.eprintf "hslb loadgen: cannot connect to %s: %s@."
            (Serve.Transport_socket.addr_to_string addr)
            (Unix.error_message e);
          exit 1
      in
      Format.printf "%s@." (Serve.Json.to_string (Serve.Loadgen.result_json r));
      if r.Serve.Loadgen.answered < r.Serve.Loadgen.requests then begin
        Format.eprintf "hslb loadgen: %d of %d requests unanswered@."
          (r.Serve.Loadgen.requests - r.Serve.Loadgen.answered)
          r.Serve.Loadgen.requests;
        exit 1
      end
    | None, Some path ->
      if backends < 2 then begin
        Format.eprintf "hslb loadgen: --backends must be >= 2 for --bench-out@.";
        exit 2
      end;
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "hslb-loadgen-%d" (Unix.getpid ()))
      in
      (match Unix.mkdir dir 0o755 with
      | () -> ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let backend_args =
        [
          "serve";
          "--jobs";
          string_of_int (match jobs with Some j -> j | None -> 1);
          "--queue-limit";
          string_of_int queue_limit;
          "--cache-capacity";
          string_of_int cache_capacity;
        ]
      in
      let b =
        Serve.Loadgen.fleet_bench ~spec ?rate_rps:rate ~window
          ~prog:Sys.executable_name ~backend_args ~dir ~backends ()
      in
      Serve.Loadgen.write_bench path b;
      Format.printf
        "single: %.1f req/s (p99 %.2f ms)  fleet(%d): %.1f req/s (p99 %.2f ms)  speedup %.2fx@."
        b.Serve.Loadgen.single.Serve.Loadgen.throughput_rps
        b.Serve.Loadgen.single.Serve.Loadgen.latency.Obs.Metrics.Histogram.p99
        b.Serve.Loadgen.backends b.Serve.Loadgen.fleet.Serve.Loadgen.throughput_rps
        b.Serve.Loadgen.fleet.Serve.Loadgen.latency.Obs.Metrics.Histogram.p99
        b.Serve.Loadgen.speedup;
      Format.printf "wrote %s@." path
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a deterministic mixed solve/sleep/expire trace against a server or \
          fleet at a target rate, reporting throughput, outcome counts and \
          p50/p90/p99 latency; or, with $(b,--bench-out), benchmark a 1-backend vs \
          N-backend fleet on the same trace and write BENCH_fleet.json.")
    Term.(
      const run $ connect $ bench_out $ backends $ requests $ distinct $ classes
      $ nodes $ sleep_every $ sleep_ms $ expire_every $ seed $ rate
      $ window $ drain $ label $ Cli_common.deadline_ms_arg $ Cli_common.jobs_arg
      $ Cli_common.queue_limit_arg $ Cli_common.cache_capacity_arg)

(* ---------- obs: validate observability artifacts ---------- *)

let obs_cmd =
  let chrome_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Validate FILE as a Chrome trace_event document (the artifact \
             $(b,bench --trace) writes): parse it with the built-in JSON decoder and \
             check every event's required fields.")
  in
  let prometheus =
    Arg.(
      value
      & opt (some string) None
      & info [ "prometheus" ] ~docv:"FILE"
          ~doc:
            "Validate FILE as Prometheus text exposition (the artifact \
             $(b,serve --metrics-out) writes): every sample line must carry a legal \
             metric name and numeric value.")
  in
  let bench =
    Arg.(
      value
      & opt_all string []
      & info [ "bench" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Check FILE, a BENCH_*.json artifact, against the gates its schema \
                declares (%s): print one $(i,gate SCHEMA NAME: VALUE OP BOUND ok|FAIL) \
                line per gate. Repeatable."
               (String.concat ", "
                  (List.map
                     (fun (c : Obs.Gate.checker) -> c.Obs.Gate.schema)
                     Experiments.Bench_gates.checkers))))
  in
  let run chrome_trace prometheus bench =
    if chrome_trace = None && prometheus = None && bench = [] then begin
      Format.eprintf
        "hslb obs: nothing to validate (pass --chrome-trace, --prometheus or --bench)@.";
      exit 2
    end;
    let ok = ref true in
    (* [check path f] runs [f] on the file's text; a file that cannot be
       read fails the run, and the other artifacts are still checked *)
    let check path f =
      match read_file path with
      | text -> f text
      | exception Sys_error msg ->
        Format.eprintf "%s: cannot read: %s@." path (sys_reason path msg);
        ok := false
    in
    Option.iter
      (fun path ->
        check path (fun text ->
            match Obs.Json.parse text with
            | Error msg ->
              Format.eprintf "%s: JSON parse error %s@." path msg;
              ok := false
            | Ok json -> (
              match Obs.Export.check_chrome_trace json with
              | Ok n -> Format.printf "%s: valid chrome trace, %d events@." path n
              | Error msg ->
                Format.eprintf "%s: invalid chrome trace: %s@." path msg;
                ok := false)))
      chrome_trace;
    Option.iter
      (fun path ->
        check path (fun text ->
            match Obs.Export.check_prometheus text with
            | Ok n -> Format.printf "%s: valid prometheus exposition, %d samples@." path n
            | Error msg ->
              Format.eprintf "%s: invalid prometheus exposition: %s@." path msg;
              ok := false))
      prometheus;
    List.iter
      (fun path ->
        check path @@ fun text ->
        match
          Result.bind (Obs.Json.parse text) (Obs.Gate.check Experiments.Bench_gates.checkers)
        with
        | Error msg ->
          Format.eprintf "%s: invalid bench artifact: %s@." path msg;
          ok := false
        | Ok (schema, verdicts) ->
          List.iter (fun v -> Format.printf "%s@." (Obs.Gate.line ~schema v)) verdicts;
          let failed =
            List.filter (fun (v : Obs.Gate.verdict) -> not v.Obs.Gate.ok) verdicts
          in
          if failed = [] then
            Format.printf "%s: %s, %d gates ok@." path schema (List.length verdicts)
          else begin
            Format.eprintf "%s: %d of %d gates failed@." path (List.length failed)
              (List.length verdicts);
            ok := false
          end)
      bench;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Validate observability artifacts — Chrome trace_event JSON from \
          $(b,bench --trace), Prometheus text exposition from \
          $(b,serve --metrics-out) — and check BENCH_*.json artifacts against \
          their declared gates. Exits 1 if any artifact cannot be read or is \
          invalid, or any gate fails.")
    Term.(const run $ chrome_trace $ prometheus $ bench)

(* ---------- place: topology-aware placement ---------- *)

let place_cmd =
  let torus =
    Arg.(
      value
      & opt string "4x4x4"
      & info [ "torus" ] ~docv:"XxYxZ"
          ~doc:"3-D torus shape, e.g. $(b,4x4x4); carved into --groups even compact groups.")
  in
  let tasks =
    Arg.(
      value
      & opt int 24
      & info [ "tasks" ] ~docv:"N"
          ~doc:"Number of placement tasks (seeded water-cluster fragments).")
  in
  let groups =
    Arg.(
      value
      & opt int 8
      & info [ "groups" ] ~docv:"G" ~doc:"Node groups; must divide the torus evenly.")
  in
  let seed =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~doc:"Seed for the fragment set and the comm-matrix jitter.")
  in
  let hop_cost =
    Arg.(
      value
      & opt float 2.0
      & info [ "hop-cost" ] ~docv:"S"
          ~doc:"Seconds of modeled latency per MB per torus hop.")
  in
  let minlp =
    Arg.(
      value
      & flag
      & info [ "minlp" ]
          ~doc:
            "Also push the instance through the exact placement MILP (warm-started \
             by the heuristic) and audit its optimality certificate.")
  in
  let solver =
    Arg.(
      value
      & opt solver_conv Engine.Solver_choice.Oa
      & info [ "solver" ] ~doc:"MINLP solver for $(b,--minlp): oa (default) | bnb | oa-multi.")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE"
          ~doc:"Write the generated fragment-pair communication matrix as NDJSON to FILE.")
  in
  let run torus tasks groups seed hop_cost minlp solver export deadline_ms max_nodes =
    let dims =
      try Scanf.sscanf torus "%dx%dx%d%!" (fun x y z -> (x, y, z))
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        Format.eprintf "hslb place: --torus expects XxYxZ (e.g. 4x4x4), got %S@." torus;
        exit 1
    in
    let inst =
      try
        Experiments.Place_bench.instance ~seed ~hop_cost_s_per_mb:hop_cost ~torus:dims
          ~tasks ~groups ()
      with Invalid_argument msg ->
        Format.eprintf "hslb place: %s@." msg;
        exit 1
    in
    (match export with
    | None -> ()
    | Some path ->
      Fmo.Comm.write_file path (Fmo.Comm.of_matrix inst.Place.Model.comm_mb);
      Format.printf "wrote comm matrix (%d tasks) to %s@." tasks path);
    let x, y, z = dims in
    let show name assignment =
      let e = Place.Model.eval inst assignment in
      Format.printf "%-6s makespan %9.4f s  comm %9.4f s  total %9.4f s  [%s]@." name
        e.Place.Model.makespan_s e.Place.Model.comm_cost_s e.Place.Model.total_s
        (String.concat " " (Array.to_list (Array.map string_of_int assignment)));
      e
    in
    (try
       Format.printf "place: %d tasks on a %dx%dx%d torus, %d groups, seed %d@." tasks x
         y z groups seed;
       let blind = Place.Optimizer.comm_blind inst in
       let aware = Place.Optimizer.optimize inst in
       let eb = show "blind" blind in
       let ea = show "aware" aware in
       Format.printf "comm saved: %.4f s (%.1f%%), makespan ratio %.3fx@."
         (eb.Place.Model.comm_cost_s -. ea.Place.Model.comm_cost_s)
         (100.
         *. (eb.Place.Model.comm_cost_s -. ea.Place.Model.comm_cost_s)
         /. Float.max eb.Place.Model.comm_cost_s 1e-12)
         (ea.Place.Model.makespan_s /. Float.max eb.Place.Model.makespan_s 1e-12);
       if minlp then begin
         let budget = arm_budget deadline_ms max_nodes in
         match Place.Model.solve_minlp ~solver ~budget ~warm_start:aware inst with
         | exception Invalid_argument msg ->
           Format.eprintf "hslb place: %s@." msg;
           exit 2
         | Error st ->
           Format.eprintf "place minlp: no usable incumbent (%s)@."
             (Minlp.Solution.status_to_string st);
           exit 1
         | Ok solved ->
           ignore (show "minlp" solved.Place.Model.assignment : Place.Model.eval);
           Format.printf "minlp status: %s@."
             (Minlp.Solution.status_to_string solved.Place.Model.status);
           (match solved.Place.Model.certificate with
           | None -> Format.printf "minlp certificate: none@."
           | Some cert ->
             let problem, _ = Place.Model.build_milp inst in
             let verdict = Audit.check_minlp problem cert in
             Format.printf "minlp certificate: %s@." (Audit.summary verdict);
             if Result.is_error verdict then exit 1)
       end
     with Place.Optimizer.No_feasible msg ->
       Format.eprintf "hslb place: %s@." msg;
       exit 1)
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Topology-aware placement of a seeded fragment set: carve a 3-D torus into \
          even compact groups, generate the fragment-pair communication matrix, and \
          compare the comm-blind LPT baseline against the comm-aware heuristic \
          (optionally against the exact, certificate-audited MILP).")
    Term.(
      const run $ torus $ tasks $ groups $ seed $ hop_cost $ minlp $ solver $ export
      $ Cli_common.deadline_ms_arg $ Cli_common.max_nodes_arg)

(* ---------- audit: fault-injection stress sweep ---------- *)

let audit_cmd =
  let stress =
    Arg.(
      value
      & flag
      & info [ "stress" ]
          ~doc:
            "Run the fault-injected budget stress sweep with cross-solver differential \
             checks. Currently the only audit mode, so this flag is implied.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base seed for the deterministic sweep.")
  in
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~doc:"Number of fault-injected trials.")
  in
  let quiet =
    Arg.(
      value & flag & info [ "quiet" ] ~doc:"Only print the final summary line and verdict.")
  in
  let run _stress seed trials quiet =
    let log line = if not quiet then Format.printf "%s@." line in
    let outcome = Audit.Stress.run ~log ~seed ~trials () in
    Format.printf "%a@." Audit.Stress.pp outcome;
    if Audit.Stress.clean outcome then Format.printf "audit: clean@."
    else begin
      Format.eprintf "audit: FAILED@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Hunt unsound solver claims: seeded fault-injected budget exhaustion plus \
          cross-solver differential checks, every certificate re-verified by the \
          independent auditor. Exits non-zero on any violation.")
    Term.(const run $ stress $ seed $ trials $ quiet)

(* ---------- experiments ---------- *)

let experiment_cmd =
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (e.g. E4).")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced problem sizes.") in
  let jobs =
    Arg.(
      value
      & opt (some Cli_common.jobs_conv) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the experiment runner and for parallel cells inside \
             experiments (default: $(b,HSLB_JOBS) from the environment, else 1 — \
             sequential, byte-identical to the historical runner).")
  in
  let run id quick jobs =
    (match jobs with Some j -> Runtime.Config.set_jobs j | None -> ());
    let fmt = Format.std_formatter in
    match id with
    | None -> Experiments.Registry.run_all ~quick fmt
    | Some id -> (
      match Experiments.Registry.find_result id with
      | Ok e -> e.Experiments.Registry.run ~quick fmt
      | Error msg ->
        Format.eprintf "%s@." msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one or all of the paper's tables/figures.")
    Term.(const run $ id $ quick $ jobs)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-20s %s@." e.Experiments.Registry.id e.Experiments.Registry.describes)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.") Term.(const run $ const ())

let () =
  let doc = "heuristic static load balancing (HSLB) toolkit" in
  let info = Cmd.info "hslb_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fit_cmd;
            solve_cmd;
            serve_cmd;
            route_cmd;
            loadgen_cmd;
            arena_cmd;
            minlp_cmd;
            fmo_cmd;
            layouts_cmd;
            place_cmd;
            obs_cmd;
            audit_cmd;
            experiment_cmd;
            list_cmd;
          ]))
