(* fmo_water32_n512: the paper's pipeline in-process — Gather, Fit and
   Solve (Hslb.Fmo_app.plan_hslb), then Execute (Fmo.Fmo_run.run_plan) —
   on a 32-molecule water cluster (6-31G(d), the geometry `hslb fmo`
   builds) with a 512-node budget. One op plans and executes one corpus
   instance. *)

let n_total = 512
let molecules = 32
let builds_per_gap = 4

let build () =
  let machine = Machine.make ~name:"intrepid-slice" ~num_nodes:n_total () in
  let frags =
    Fmo.Fragment.fragment
      (Fmo.Molecule.water_cluster ~rng:(Numerics.Rng.create 1) molecules)
      Fmo.Basis.B6_31gd
  in
  (machine, Fmo.Task.fmo2_plan frags)

type op = {
  inst : Gen.fmo_instance;
  wall_s : float;
  plan : Hslb.Fmo_app.hslb_plan;
  sim_s : float;  (** simulated FMO2 wall under the plan *)
  verdict : (unit, string) result;
  alloc_mb : float;
  majors : float;
}

let with_span traced name op f =
  if traced then Obs.Span.with_span ~cat:"perfbench" ~args:[ ("op", string_of_int op) ] name f
  else f ()

let run_op ~traced ~machine ~plan ~id (inst : Gen.fmo_instance) =
  let g0 = Gc.quick_stat () in
  let t0 = Obs.Clock.now_s () in
  let hp, run =
    with_span traced "fmo.op" id (fun () ->
        let hp =
          with_span traced "hslb.plan" id (fun () ->
              Hslb.Fmo_app.plan_hslb
                ~rng:(Numerics.Rng.create inst.Gen.gather_seed)
                machine plan ~n_total Hslb.Fmo_app.default_config)
        in
        let run =
          with_span traced "gddi.execute" id (fun () ->
              Fmo.Fmo_run.run_plan
                ~rng:(Numerics.Rng.create inst.Gen.exec_seed)
                machine plan
                ~monomer:
                  {
                    Fmo.Fmo_run.partition = hp.Hslb.Fmo_app.partition;
                    schedule = Gddi.Sim.Static hp.Hslb.Fmo_app.monomer_assignment;
                  }
                ~dimer:
                  {
                    Fmo.Fmo_run.partition = hp.Hslb.Fmo_app.dimer_partition;
                    schedule = Gddi.Sim.Static hp.Hslb.Fmo_app.dimer_assignment;
                  })
        in
        (hp, run))
  in
  let t1 = Obs.Clock.now_s () in
  let g1 = Gc.quick_stat () in
  let alloc_mb, majors = Report.gc_delta g0 g1 in
  {
    inst;
    wall_s = t1 -. t0;
    plan = hp;
    sim_s = run.Fmo.Fmo_run.total_time;
    verdict = Check.fmo_plan ~n_total hp;
    alloc_mb;
    majors;
  }

(* Whole passes over the corpus, so every run times the same op mix: a
   further pass starts only if the last one fits in the time left.
   [calibrate] runs before every op and after the last. *)
let measure ~traced ~seconds ~calibrate ~machine ~plan insts =
  let start = Obs.Clock.now_s () in
  let rec passes acc =
    let p0 = Obs.Clock.now_s () in
    let ops =
      List.mapi
        (fun i inst ->
          calibrate ();
          run_op ~traced ~machine ~plan ~id:(List.length acc + i) inst)
        insts
    in
    let acc = acc @ ops in
    let now = Obs.Clock.now_s () in
    if now -. start +. (now -. p0) <= seconds then passes acc
    else begin
      calibrate ();
      acc
    end
  in
  passes []

let wall_ms ops = Array.of_list (List.map (fun o -> o.wall_s *. 1000.) ops)

let failures ops =
  List.filter_map
    (fun o ->
      match o.verdict with
      | Ok () -> None
      | Error e -> Some (Printf.sprintf "gather seed %d: %s" o.inst.Gen.gather_seed e))
    ops

let notes insts ops =
  List.map
    (fun (inst : Gen.fmo_instance) ->
      let mine = List.filter (fun o -> o.inst = inst) ops in
      let o = List.hd mine in
      let alloc = o.plan.Hslb.Fmo_app.allocation in
      let st = alloc.Hslb.Alloc_model.stats in
      Printf.sprintf
        "instance gather-seed=%d exec-seed=%d: plan+execute %s s; monomer solve: B&B nodes %d, LP solves %d, NLP solves %d, OA cuts %d; sim %.3f s, %s"
        inst.Gen.gather_seed inst.Gen.exec_seed
        (String.concat "/" (List.map (fun o -> Printf.sprintf "%.3f" o.wall_s) mine))
        st.Minlp.Solution.nodes st.Minlp.Solution.lp_solves st.Minlp.Solution.nlp_solves
        st.Minlp.Solution.cuts o.sim_s
        (match o.verdict with Ok () -> "optimal, audit ok" | Error e -> e))
    insts

let digest ~seed insts =
  Gen.digest
    (Printf.sprintf "fmo water%d n%d seed %d" molecules n_total seed
    :: List.map
         (fun (i : Gen.fmo_instance) ->
           Printf.sprintf "gather %d exec %d" i.Gen.gather_seed i.Gen.exec_seed)
         insts)

(* Set-up: the machine and the fragment/task plan, which every corpus
   instance shares (they differ only in their Gather and Execute
   seeds). One build takes ~0.1 ms, so builds made back to back all
   fall in one moment of the host's load: medians of 51 such builds
   read 64-258 us in five runs. The run therefore times
   [builds_per_gap] builds at its start and after every calibration
   sample, and setup_s is the median of them all. The first build is
   the one the run uses. *)
let timed_build builds =
  let t0 = Obs.Clock.now_s () in
  let b = build () in
  Stats.Buf.push builds (Obs.Clock.now_s () -. t0);
  b

let more_builds builds =
  for _ = 1 to builds_per_gap do
    ignore (timed_build builds)
  done

let run ~seed ~seconds ~traced =
  let insts = Gen.fmo_instances ~seed in
  let builds = Stats.Buf.create () in
  let machine, plan = timed_build builds in
  more_builds builds;
  let k = List.length insts in
  let calib = Calib.create () in
  let calibrate () =
    Calib.sample calib;
    more_builds builds
  in
  (* a traced run times one untraced pass, then one traced pass *)
  let ops =
    measure ~traced:false ~seconds:(if traced then 0. else seconds) ~calibrate ~machine ~plan insts
  in
  let builds = Stats.Buf.to_array builds in
  let setup_s = Stats.median builds in
  let failed = failures ops in
  let base = Printf.sprintf "n=%d ops, %d instances" (List.length ops) k in
  (* A run's 15-19 ops are too few for a p99 with samples beyond it, and
     their max is one op that one burst of host load sets. The tail here
     is the slowest corpus instance: the largest of the instances'
     median walls. *)
  let tail ops =
    List.fold_left
      (fun acc (inst : Gen.fmo_instance) ->
        Float.max acc (Stats.median (wall_ms (List.filter (fun o -> o.inst = inst) ops))))
      0. insts
  in
  let throughput ops =
    float_of_int (List.length ops) /. List.fold_left (fun a o -> a +. o.wall_s) 0. ops
  in
  let p50 = Stats.median (wall_ms ops) and p99 = tail ops and thr = throughput ops in
  if not traced then begin
    (* op j ran between calibration samples j and j + 1 *)
    let at_ref = List.mapi (fun j o -> { o with wall_s = o.wall_s *. Calib.between calib j }) ops in
    let metrics =
      [
        Report.m "setup_s" "s" (setup_s *. Calib.scale calib)
          (Printf.sprintf "median of %d set-ups over the run, at reference speed"
             (Array.length builds));
        Report.m "latency_p50_ms" "ms" (Stats.median (wall_ms at_ref)) (base ^ ", at reference speed");
        Report.m "latency_p99_ms" "ms" (tail at_ref)
          (base ^ ", slowest instance's median, at reference speed");
        Report.m "throughput_per_s" "1/s" (throughput at_ref) (base ^ ", at reference speed");
        Report.m "ok_frac" "ratio"
          (float_of_int (List.length ops - List.length failed) /. float_of_int (List.length ops))
          base;
        Report.m "peak_rss_mb" "MiB" (Report.peak_rss_mb "self") "VmHWM of this process";
        Report.m "sim_makespan_s" "s"
          (Stats.mean (Array.of_list (List.map (fun o -> o.sim_s) ops)))
          (base ^ ", simulated FMO2 wall");
      ]
    in
    {
      Report.workload = "fmo_water32_n512";
      seed;
      traced;
      digest = digest ~seed insts;
      notes =
        notes insts ops
        @ [
            Calib.note calib;
            Printf.sprintf "as measured: setup %.6f s, p50 %.3f ms, p99 %.3f ms, %.4f ops/s"
              setup_s p50 p99 thr;
          ];
      metrics = Report.complete "end_to_end" metrics;
      attempted = List.length ops;
      failed = List.length failed;
      failures = failed;
    }
  end
  else begin
    (* the traced pass: same corpus, Obs on, the benchmark's spans
       around each call plus the engine.phase spans below them *)
    Obs.Span.clear ();
    let tops =
      Obs.Control.with_enabled (fun () ->
          measure ~traced:true ~seconds:0. ~calibrate:(fun () -> Calib.sample calib) ~machine ~plan
            insts)
    in
    let spans = Obs.Span.drain () in
    let trace_note = Tracer.write ~workload:"fmo_water32_n512" spans in
    let selfs = Tracer.self_times spans in
    let nops = float_of_int (List.length tops) in
    let per_op x = x /. nops in
    (* exact work counters: the monomer allocation re-solved with a tally *)
    let tally = Engine.Telemetry.create () in
    List.iter
      (fun o ->
        let specs =
          List.map (fun fc -> Hslb.Alloc_model.spec_of fc) o.plan.Hslb.Fmo_app.monomer_fits
        in
        match
          Hslb.Alloc_model.solve ~solver:Hslb.Fmo_app.default_config.Hslb.Fmo_app.solver
            ~objective:Hslb.Fmo_app.default_config.Hslb.Fmo_app.objective ~trace:tally ~n_total
            specs
        with
        | Ok _ -> ()
        | Error st -> failwith ("counter re-solve: " ^ Minlp.Solution.status_to_string st))
      tops;
    (* fit: the fitted classes' stored observations fitted again *)
    let fit_s =
      List.fold_left
        (fun acc o ->
          let t0 = Obs.Clock.now_s () in
          List.iteri
            (fun i (fc : Hslb.Classes.fitted) ->
              ignore
                (Hslb.Fitting.fit_observations ~rng:(Numerics.Rng.create i)
                   fc.Hslb.Classes.fit.Hslb.Fitting.observations))
            (o.plan.Hslb.Fmo_app.monomer_fits @ o.plan.Hslb.Fmo_app.dimer_fits);
          acc +. (Obs.Clock.now_s () -. t0))
        0. tops
    in
    let audit_s =
      List.fold_left
        (fun acc o ->
          let t0 = Obs.Clock.now_s () in
          ignore (Check.fmo_plan ~n_total o.plan);
          acc +. (Obs.Clock.now_s () -. t0))
        0. tops
    in
    let tfailed = failures tops in
    let f = float_of_int in
    let basis = Printf.sprintf "per op, %d traced ops" (List.length tops) in
    let corpus = Printf.sprintf "total over the %d-instance corpus (exact)" k in
    let metrics =
      [
        Report.m "fmo.build_ms" "ms" (Stats.median builds *. 1000.)
          (Printf.sprintf "median of %d builds" (Array.length builds));
        Report.m "hslb.plan_s" "s" (per_op (Tracer.total_dur spans "hslb.plan")) basis;
        Report.m "hslb.plan_self_s" "s" (per_op (Tracer.self_total selfs "hslb.plan"))
          (basis ^ ", minus engine phases");
        Report.m "hslb.fit_s" "s" (per_op fit_s) basis;
        Report.m "hslb.classes" "count"
          (f (List.length (List.hd tops).plan.Hslb.Fmo_app.monomer_fits))
          "monomer classes";
        Report.m "engine.master_s" "s" (per_op (Tracer.self_total selfs "master")) basis;
        Report.m "engine.root_nlp_s" "s" (per_op (Tracer.self_total selfs "root-nlp")) basis;
        Report.m "engine.presolve_s" "s" (per_op (Tracer.self_total selfs "presolve")) basis;
        Report.m "minlp.nodes_expanded" "count" (f tally.nodes_expanded) corpus;
        Report.m "minlp.nodes_pruned" "count" (f tally.nodes_pruned) corpus;
        Report.m "minlp.oa_cuts" "count" (f tally.oa_cuts) corpus;
        Report.m "lp.solves" "count" (f tally.lp_solves) corpus;
        Report.m "lp.pivots" "count" (f tally.simplex_pivots) corpus;
        Report.m "lp.pivots_per_node" "ratio"
          (f tally.simplex_pivots /. f (max 1 tally.nodes_expanded))
          corpus;
        Report.m "nlp.solves" "count" (f tally.nlp_solves) corpus;
        Report.m "nlp.iterations" "count" (f tally.nlp_iterations) corpus;
        Report.m "nlp.line_search_steps" "count" (f tally.line_search_steps) corpus;
        Report.m "gddi.execute_ms" "ms" (per_op (Tracer.total_dur spans "gddi.execute") *. 1000.)
          basis;
        Report.m "gc.alloc_mb" "MiB" (per_op (List.fold_left (fun a o -> a +. o.alloc_mb) 0. tops))
          basis;
        Report.m "gc.major_collections" "count"
          (per_op (List.fold_left (fun a o -> a +. o.majors) 0. tops))
          basis;
        Report.m "audit.check_us" "us" (per_op audit_s *. 1e6) (basis ^ ", build_minlp + check_minlp");
        Report.m "obs.tracing_overhead" "ratio"
          (Stats.median (wall_ms tops) /. p50)
          "traced p50 / untraced p50, same process";
      ]
    in
    {
      Report.workload = "fmo_water32_n512";
      seed;
      traced;
      digest = digest ~seed insts;
      notes =
        notes insts tops
        @ [
            Printf.sprintf "untraced pass: p50 %.3f ms over %d ops; traced pass: p50 %.3f ms"
              p50 (List.length ops) (Stats.median (wall_ms tops));
            Calib.note calib ^ " (per-layer times are as measured)";
            trace_note;
          ];
      metrics = Report.complete "per_layer" metrics;
      attempted = List.length ops + List.length tops;
      failed = List.length failed + List.length tfailed;
      failures = failed @ tfailed;
    }
  end
