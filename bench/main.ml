(* Benchmark harness.

   Regenerates every table and figure of the evaluation (experiments
   E1–E14 from DESIGN.md) by running the full pipelines and printing
   the paper-style tables. Pass [--quick] for reduced sizes, [--only
   E4] to regenerate a single experiment, [--trace FILE] to write a
   Chrome trace of the run.

   Pass [--report FILE] to additionally run each MINLP solver once on
   the E6-style sweet-spotted allocation model with full engine
   telemetry attached and write the structured run reports (JSON array
   of Engine.Run_report) to FILE. Each report carries the solver's
   certificate and the independent auditor's verdict on it.

   Pass [--audit] to audit every solver's certificate on the E6-style
   model and run a short seeded fault-injection stress sweep
   ([--seed N], [--trials N] to override); any certificate rejection
   or soundness violation makes the executable exit non-zero.

   [--runtime FILE], [--kernels FILE], [--obs-bench FILE],
   [--resolve FILE] and [--place FILE] each write one BENCH artifact
   and exit; `hslb obs --bench FILE` checks it against its gates. The
   flag spellings are shared with the hslb CLI via [Cli_common.Argv],
   which rejects anything else with exit 2. *)

let fitted_specs =
  lazy
    (let rng = Numerics.Rng.create 5 in
     List.init 4 (fun i ->
         let law =
           Scaling_law.make ~a:(100. +. (50. *. float_of_int i)) ~b:1e-6 ~c:0.9 ~d:1.
         in
         let cls =
           Hslb.Classes.make ~name:(Printf.sprintf "k%d" i) ~count:1 (fun ~nodes ->
               Scaling_law.eval_int law nodes)
         in
         Hslb.Alloc_model.spec_of
           (List.hd (Hslb.Classes.gather_and_fit ~rng ~sizes:[ 1; 4; 16; 64 ] ~reps:1 [ cls ]))))

(* the E6-style sweet-spotted instance (alloc4_sweet_n64) *)
let e6_specs () =
  List.map
    (fun s -> { s with Hslb.Alloc_model.allowed = Some [ 1; 2; 4; 8; 16; 32 ] })
    (Lazy.force fitted_specs)

let e6_problem () =
  let problem, _, _ =
    Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total:64 (e6_specs ())
  in
  problem

(* one E6-style run per solver, certified and independently audited;
   returns the report plus the audit verdict so callers can both
   serialize and gate on it *)
let solver_report problem choice =
  let tally = Engine.Telemetry.create () in
  let budget = Engine.Budget.arm Engine.Budget.unlimited in
  let sol, certificate = Minlp.Solver.run ~budget ~tally choice problem in
  let verdict = Cli_common.audit_minlp problem (Some certificate) in
  let report =
    Engine.Run_report.make
      ~solver:(Engine.Solver_choice.to_string choice)
      ~status:(Minlp.Solution.status_to_string sol.Minlp.Solution.status)
      ~objective:sol.Minlp.Solution.obj ~bound:sol.Minlp.Solution.bound ~certificate
      ~audit:(Cli_common.audit_outcome_string verdict)
      ~wall_s:(Engine.Budget.elapsed_s budget) tally
  in
  (report, verdict)

let write_solver_reports path =
  let problem = e6_problem () in
  let reports = List.map (fun c -> fst (solver_report problem c)) Engine.Solver_choice.minlp in
  Engine.Run_report.write_json_list path reports;
  Format.printf "solver run reports written to %s@." path

(* [--audit]: certify-and-check every solver on the E6 model, then a
   seeded fault-injection sweep; false on any rejection *)
let run_bench_audit ~seed ~trials =
  let problem = e6_problem () in
  let solver_ok =
    List.fold_left
      (fun acc choice ->
        let report, verdict = solver_report problem choice in
        Format.printf "%s [%s]: %s@." report.Engine.Run_report.solver
          report.Engine.Run_report.status
          (Cli_common.audit_outcome_string verdict);
        acc && Result.is_ok verdict)
      true Engine.Solver_choice.minlp
  in
  let outcome =
    Audit.Stress.run ~log:(fun line -> Format.printf "  %s@." line) ~seed ~trials ()
  in
  Format.printf "%a@." Audit.Stress.pp outcome;
  solver_ok && Audit.Stress.clean outcome

(* ---------- runtime benchmark (BENCH_runtime.json) ---------- *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let json_num x = if Float.is_nan x then "null" else Printf.sprintf "%.6f" x

(* A cold-vs-hit solve-cache measurement and the quick registry at
   jobs=1 vs parallel — the machine-readable evidence behind
   docs/RUNTIME.md. *)
let write_runtime_bench path =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"schema\": %S,\n" Experiments.Bench_gates.runtime_schema);
  (* cache: same instance solved cold then memoized; oa, whose solves
     the cache exists to save (an exact solve costs about a lookup) *)
  let cache = Runtime.Cache.create () in
  let cache_specs = e6_specs () in
  let solve () =
    Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa ~cache ~n_total:64 cache_specs
  in
  let _, cold = wall solve in
  let _, hit = wall solve in
  Buffer.add_string b
    (Printf.sprintf
       "  \"cache\": {\"instance\": \"alloc4_sweet_n64\", \"cold_wall_s\": %s, \
        \"hit_wall_s\": %s, \"hits\": %d, \"misses\": %d},\n"
       (json_num cold) (json_num hit) (Runtime.Cache.hits cache)
       (Runtime.Cache.misses cache));
  (* sharded experiment runner: quick registry, sequential vs pool.
     The registry is CPU-bound, so the pool clamps the requested width
     to the physical cores (sequential fallback at one core); record
     requested vs effective width so the artifact shows the clamp
     doing its job rather than a mysterious slowdown. *)
  let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let cores = Runtime.Config.cores () in
  let (), seq_w =
    wall (fun () -> Experiments.Registry.run_all ~quick:true ~jobs:1 null_fmt)
  in
  let requested_jobs = Stdlib.max 2 (Stdlib.min 4 (Runtime.Config.recommended ())) in
  let effective_jobs = Stdlib.min requested_jobs cores in
  let (), par_w =
    wall (fun () -> Experiments.Registry.run_all ~quick:true ~jobs:requested_jobs null_fmt)
  in
  Buffer.add_string b
    (Printf.sprintf
       "  \"registry_quick\": {\"cores\": %d, \"sequential_wall_s\": %s, \
        \"requested_jobs\": %d, \"effective_jobs\": %d, \"clamped\": %b, \
        \"parallel_wall_s\": %s, \"speedup\": %s, \"core_starved\": %b}\n}\n"
       cores (json_num seq_w) requested_jobs effective_jobs
       (effective_jobs < requested_jobs) (json_num par_w)
       (json_num (seq_w /. par_w))
       (effective_jobs > cores));
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Format.printf "runtime benchmark written to %s@." path

(* ---------- hot-path kernel benchmark (BENCH_kernels.json) ---------- *)

(* Each kernel pits the pre-optimization implementation of a hot path
   against the one the solvers now run, on identical inputs, and
   re-verifies the bit-identity contract the optimization claims
   (checked by `hslb obs --bench`).  Speedups are machine-dependent;
   the gates read the identity bits and sane timings, not a
   magnitude. *)
let write_kernels_bench path =
  let results = Buffer.create 2048 in
  let first = ref true in
  let record ~name ~baseline ~candidate ~reps ~base_s ~cand_s ~identical =
    if not !first then Buffer.add_string results ",\n";
    first := false;
    Buffer.add_string results
      (Printf.sprintf
         "    {\"name\": %S, \"baseline\": %S, \"candidate\": %S, \"reps\": %d,\n\
         \     \"baseline_wall_s\": %s, \"candidate_wall_s\": %s, \"speedup\": %s, \
          \"identical\": %b}"
         name baseline candidate reps (json_num base_s) (json_num cand_s)
         (json_num (base_s /. cand_s))
         identical);
    Format.printf "kernel %-22s %8.4fs -> %8.4fs (%.2fx, identical=%b)@." name base_s
      cand_s (base_s /. cand_s) identical
  in
  let bits = Int64.bits_of_float in
  (* lp/simplex_dense: the reference Array.make_matrix tableau vs the
     flat float-array kernel, over a batch of random dense-ish LPs *)
  (let lps =
     List.init 16 (fun seed ->
         let rng = Numerics.Rng.create (1000 + seed) in
         let nv = 8 and nc = 12 in
         let x0 = Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:0. ~hi:10.) in
         let p = Lp.Lp_problem.make ~num_vars:nv () in
         let p =
           Lp.Lp_problem.set_objective p
             (Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:(-5.) ~hi:5.))
         in
         let rows =
           List.init nc (fun _ ->
               let coeffs =
                 List.init nv (fun j -> (j, Numerics.Rng.uniform rng ~lo:(-3.) ~hi:3.))
               in
               let lhs =
                 List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0. coeffs
               in
               if Numerics.Rng.bool rng then
                 { Lp.Lp_problem.coeffs; sense = Lp.Lp_problem.Le;
                   rhs = lhs +. Numerics.Rng.float rng 5. }
               else
                 { Lp.Lp_problem.coeffs; sense = Lp.Lp_problem.Ge;
                   rhs = lhs -. Numerics.Rng.float rng 5. })
         in
         let p = Lp.Lp_problem.add_constraints p rows in
         List.fold_left
           (fun p j -> Lp.Lp_problem.set_bounds p j ~lo:0. ~hi:100.)
           p (List.init nv Fun.id))
   in
   let reps = 40 in
   let identical =
     List.for_all
       (fun p ->
         let a = Lp.Simplex.run p and b = Lp.Simplex_reference.run p in
         a.Lp.Simplex.status = b.Lp.Simplex.status
         && bits a.Lp.Simplex.obj = bits b.Lp.Simplex.obj)
       lps
   in
   let (), base_s =
     wall (fun () ->
         for _ = 1 to reps do
           List.iter (fun p -> ignore (Lp.Simplex_reference.run p)) lps
         done)
   in
   let (), cand_s =
     wall (fun () ->
         for _ = 1 to reps do
           List.iter (fun p -> ignore (Lp.Simplex.run p)) lps
         done)
   in
   record ~name:"lp/simplex_dense" ~baseline:"matrix_reference" ~candidate:"flat_tableau"
     ~reps:(reps * List.length lps) ~base_s ~cand_s ~identical);
  (* minlp/expr_eval + expr_grad: the interpreted AST walk vs the
     closure-compiled program, on a scaling-law objective like the
     allocation relaxations evaluate millions of times *)
  let nv = 8 in
  let e =
    Minlp.Expr.add
      (List.init nv (fun i ->
           Minlp.Expr.mul
             (Minlp.Expr.const (50. +. (10. *. float_of_int i)))
             (Minlp.Expr.pow (Minlp.Expr.var i) (-0.9)))
      @ [ Minlp.Expr.linear (List.init nv (fun i -> (i, 0.01 *. float_of_int (i + 1)))) ])
  in
  let points =
    Array.init 64 (fun k ->
        let rng = Numerics.Rng.create (2000 + k) in
        Array.init nv (fun _ -> Numerics.Rng.uniform rng ~lo:1. ~hi:256.))
  in
  let prog = Minlp.Expr.Compiled.compile e in
  let fn = Minlp.Expr.Compiled.unsafe_fn prog in
  (let identical =
     Array.for_all (fun x -> bits (Minlp.Expr.eval e x) = bits (Minlp.Expr.Compiled.eval prog x)) points
   in
   let sweeps = 20_000 in
   let sink = ref 0. in
   let (), base_s =
     wall (fun () ->
         for _ = 1 to sweeps do
           Array.iter (fun x -> sink := !sink +. Minlp.Expr.eval e x) points
         done)
   in
   let (), cand_s =
     wall (fun () ->
         for _ = 1 to sweeps do
           Array.iter (fun x -> sink := !sink +. fn x) points
         done)
   in
   ignore !sink;
   record ~name:"minlp/expr_eval" ~baseline:"ast_interpreter" ~candidate:"closure_compiled"
     ~reps:(sweeps * Array.length points) ~base_s ~cand_s ~identical);
  (let grad_ref = Minlp.Expr.compile_gradient e in
   let cgrad = Minlp.Expr.Compiled.compile_gradient e in
   let out = Array.make nv 0. in
   let identical =
     Array.for_all
       (fun x ->
         let g = grad_ref x in
         Minlp.Expr.Compiled.grad_into cgrad x out;
         let ok = ref true in
         Array.iteri (fun j v -> if bits v <> bits out.(j) then ok := false) g;
         !ok)
       points
   in
   let sweeps = 4_000 in
   let (), base_s =
     wall (fun () ->
         for _ = 1 to sweeps do
           Array.iter (fun x -> ignore (grad_ref x)) points
         done)
   in
   let (), cand_s =
     wall (fun () ->
         for _ = 1 to sweeps do
           Array.iter (fun x -> Minlp.Expr.Compiled.grad_into cgrad x out) points
         done)
   in
   record ~name:"minlp/expr_grad" ~baseline:"symbolic_eval_alloc" ~candidate:"grad_into"
     ~reps:(sweeps * Array.length points) ~base_s ~cand_s ~identical);
  (* nlp/spg_bounded: the allocating ?grad interface vs the fused
     ?grad_into the AL kernels now wire *)
  (let f x =
     let a = 1. -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
     (a *. a) +. (100. *. b *. b)
   in
   let gx x =
     [|
       (-2. *. (1. -. x.(0))) -. (400. *. x.(0) *. (x.(1) -. (x.(0) *. x.(0))));
       200. *. (x.(1) -. (x.(0) *. x.(0)));
     |]
   in
   let g_into x out =
     out.(0) <- (-2. *. (1. -. x.(0))) -. (400. *. x.(0) *. (x.(1) -. (x.(0) *. x.(0))));
     out.(1) <- 200. *. (x.(1) -. (x.(0) *. x.(0)))
   in
   let lo = [| -5.; -5. |] and hi = [| 5.; 5. |] in
   let run_grad () = Nlp.Bounded.minimize ~max_iter:20_000 ~grad:gx ~f ~lo ~hi [| -1.2; 1. |] in
   let run_into () =
     Nlp.Bounded.minimize ~max_iter:20_000 ~grad_into:g_into ~f ~lo ~hi [| -1.2; 1. |]
   in
   let ra = run_grad () and rb = run_into () in
   let identical =
     ra.Nlp.Bounded.iterations = rb.Nlp.Bounded.iterations
     && bits ra.Nlp.Bounded.f = bits rb.Nlp.Bounded.f
     && Array.for_all2 (fun a c -> bits a = bits c) ra.Nlp.Bounded.x rb.Nlp.Bounded.x
   in
   let reps = 30 in
   let (), base_s = wall (fun () -> for _ = 1 to reps do ignore (run_grad ()) done) in
   let (), cand_s = wall (fun () -> for _ = 1 to reps do ignore (run_into ()) done) in
   record ~name:"nlp/spg_bounded" ~baseline:"grad_alloc" ~candidate:"grad_into"
     ~reps ~base_s ~cand_s ~identical);
  (* minlp/node_relax: per-node recompilation (the one-shot entry) vs
     the per-run compiled context the Bnb node loop uses *)
  (let p = e6_problem () in
   let lo = Array.copy p.Minlp.Problem.lo and hi = Array.copy p.Minlp.Problem.hi in
   let start = Minlp.Relax.midpoint lo hi in
   let ctx = Minlp.Relax.context p in
   let one_shot () = Minlp.Relax.solve_nlp p ~lo ~hi ~start in
   let with_ctx () = Minlp.Relax.solve_nlp_ctx ctx ~lo ~hi ~start in
   let ra = one_shot () and rb = with_ctx () in
   let identical =
     bits ra.Minlp.Relax.obj = bits rb.Minlp.Relax.obj
     && Array.for_all2 (fun a c -> bits a = bits c) ra.Minlp.Relax.x rb.Minlp.Relax.x
   in
   let reps = 8 in
   let (), base_s = wall (fun () -> for _ = 1 to reps do ignore (one_shot ()) done) in
   let (), cand_s = wall (fun () -> for _ = 1 to reps do ignore (with_ctx ()) done) in
   record ~name:"minlp/node_relax" ~baseline:"compile_per_node" ~candidate:"shared_context"
     ~reps ~base_s ~cand_s ~identical);
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"schema\": %S,\n  \"cores\": %d,\n  \"kernels\": [\n%s\n  ]\n}\n"
    Experiments.Bench_gates.kernels_schema (Runtime.Config.cores ())
    (Buffer.contents results);
  close_out oc;
  Format.printf "kernel benchmark written to %s@." path

(* ---------- observability overhead benchmark (BENCH_obs.json) ---------- *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

(* The acceptance gate behind docs/OBSERVABILITY.md: the disabled path
   is the pre-observability baseline (every instrumentation site hides
   behind the single [Obs.Control] atomic flag), so enabled-vs-disabled
   medians of the same deterministic solve measure exactly what the
   subsystem costs — and what "disabled is effectively free" means. *)
let write_obs_bench path =
  let specs = e6_specs () in
  let solve () =
    ignore (Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa ~n_total:64 specs)
  in
  let reps = 9 in
  let time_reps () =
    List.init reps (fun _ ->
        let w = snd (wall solve) in
        Obs.Span.clear ();
        w)
  in
  solve ();
  (* measurement order: disabled first (the baseline), then enabled *)
  Obs.Control.disable ();
  let disabled = time_reps () in
  Obs.Control.enable ();
  let enabled = time_reps () in
  Obs.Control.disable ();
  Obs.Span.clear ();
  let dm = median disabled and em = median enabled in
  let floats xs = String.concat ", " (List.map (Printf.sprintf "%.6f") xs) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"hslb-bench-obs-v1\",\n\
    \  \"solver\": \"oa\", \"instance\": \"alloc4_sweet_n64\", \"reps\": %d,\n\
    \  \"disabled_median_s\": %.6f,\n\
    \  \"enabled_median_s\": %.6f,\n\
    \  \"enabled_over_disabled\": %.4f,\n\
    \  \"disabled_wall_s\": [%s],\n\
    \  \"enabled_wall_s\": [%s],\n\
    \  \"note\": \"disabled path = PR 4-equivalent baseline; every obs site is behind the Obs.Control atomic flag\"\n\
     }\n"
    reps dm em (em /. dm) (floats disabled) (floats enabled);
  close_out oc;
  Format.printf "observability overhead benchmark written to %s@." path

(* ---------- re-solve policy benchmark (--resolve FILE) ---------- *)

(* the E12 drift-rate × re-solve-policy frontier as a machine-readable
   artifact (checked by `hslb obs --bench`) *)
let write_resolve_bench ~quick path =
  let t = Experiments.Resolve_frontier.run ~quick ~seed:42 () in
  Experiments.Resolve_frontier.write_bench path t;
  Format.printf "%a@." Experiments.Resolve_frontier.pp t;
  Format.printf "resolve benchmark written to %s@." path

(* ---------- placement benchmark (--place FILE) ---------- *)

(* the E14 comm-blind × comm-aware placement frontier as a
   machine-readable artifact (checked by `hslb obs --bench`) *)
let write_place_bench ~quick path =
  let t = Experiments.Place_bench.run ~quick ~seed:42 () in
  Experiments.Place_bench.write_bench path t;
  Format.printf "%a@." Experiments.Place_bench.pp t;
  Format.printf "place benchmark written to %s@." path

let () =
  let args =
    match Cli_common.Argv.parse (List.tl (Array.to_list Sys.argv)) with
    | Ok parsed -> parsed
    | Error msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2
  in
  let quick = Cli_common.Argv.flag args "quick" in
  let find_opt = Cli_common.Argv.find_opt args in
  Option.iter Runtime.Config.set_jobs (Cli_common.Argv.int_opt args "jobs");
  let fmt = Format.std_formatter in
  let artifact flag write =
    match find_opt flag with
    | Some path ->
      write path;
      exit 0
    | None -> ()
  in
  artifact "runtime" write_runtime_bench;
  artifact "kernels" write_kernels_bench;
  artifact "obs-bench" write_obs_bench;
  artifact "resolve" (write_resolve_bench ~quick);
  artifact "place" (write_place_bench ~quick);
  let trace = find_opt "trace" in
  (* tracing covers the experiment run (and --report solves) below *)
  if trace <> None then Obs.Control.enable ();
  if Cli_common.Argv.flag args "audit" then begin
    let int_or name default =
      Option.value ~default (Cli_common.Argv.int_opt args name)
    in
    if run_bench_audit ~seed:(int_or "seed" 42) ~trials:(int_or "trials" 50) then begin
      Format.printf "bench audit: clean@.";
      exit 0
    end
    else begin
      Format.eprintf "bench audit: FAILED@.";
      exit 1
    end
  end;
  Option.iter write_solver_reports (find_opt "report");
  (match find_opt "only" with
  | Some id -> (
    match Experiments.Registry.find_result id with
    | Ok e -> e.Experiments.Registry.run ~quick fmt
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 1)
  | None -> Experiments.Registry.run_all ~quick fmt);
  match trace with
  | Some path ->
    Obs.Control.disable ();
    Obs.Export.write_chrome_trace path (Obs.Span.drain ());
    Format.fprintf fmt "chrome trace written to %s@." path
  | None -> ()
