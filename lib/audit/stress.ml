type outcome = {
  trials : int;
  optimal_claims : int;
  cert_failures : int;
  soundness_violations : int;
  differential_runs : int;
  differential_failures : int;
  failures : string list;
}

let clean o =
  o.cert_failures = 0 && o.soundness_violations = 0 && o.differential_failures = 0

let pp fmt o =
  Format.fprintf fmt
    "%d trials: %d optimal claims, %d certificate failures, %d soundness violations, %d \
     differential failures in %d runs"
    o.trials o.optimal_claims o.cert_failures o.soundness_violations
    o.differential_failures o.differential_runs

(* trial i runs solver i mod 3 of this list; the order fixes what a
   seed reports *)
let trial_order = Engine.Solver_choice.[ Bnb; Oa; Oa_multi ]

let run ?(log = fun _ -> ()) ?(differential_every = 10) ?(differential_rtol = 0.01) ~seed
    ~trials () =
  let rng = Numerics.Rng.create seed in
  let optimal_claims = ref 0 in
  let cert_failures = ref 0 in
  let soundness_violations = ref 0 in
  let differential_runs = ref 0 in
  let differential_failures = ref 0 in
  let failures = ref [] in
  let fail line =
    failures := line :: !failures;
    log line
  in
  for i = 0 to trials - 1 do
    let tseed = Numerics.Rng.int rng 1_000_000_000 in
    let p = Instances.generate ~seed:tseed in
    let solver = List.nth trial_order (i mod 3) in
    let fuse_at = 1 + Numerics.Rng.int rng 500 in
    let fuse_reason =
      match Numerics.Rng.int rng 4 with
      | 0 -> Engine.Budget.Deadline
      | 1 -> Engine.Budget.Cancelled
      | 2 -> Engine.Budget.Node_limit
      | _ -> Engine.Budget.Iter_limit
    in
    let budget =
      Engine.Budget.arm (Engine.Budget.make ~poll_fuse:(fuse_at, fuse_reason) ())
    in
    let sol, cert = Minlp.Solver.run ~budget solver p in
    let name = Engine.Solver_choice.to_string solver in
    let tripped = Engine.Budget.fuse_tripped budget in
    (if Minlp.Solution.has_incumbent sol then begin
      let claimed_optimal = cert.Engine.Certificate.claimed_status = Engine.Status.Optimal in
      if claimed_optimal then incr optimal_claims;
      (* the exact check: the fuse trips AT a poll the solver made, so a
         tripped fuse means the solver saw a stop order — claiming a
         proven optimum afterwards is unsound, full stop *)
      if tripped && claimed_optimal then begin
        incr soundness_violations;
        fail
          (Printf.sprintf
             "trial %d (%s, seed %d): optimal claimed although the budget fuse tripped at \
              poll %d"
             i name tseed fuse_at)
      end;
      match Checker.check_minlp p cert with
      | Ok () -> ()
      | Error _ as verdict ->
        incr cert_failures;
        fail
          (Printf.sprintf "trial %d (%s, seed %d): certificate rejected: %s" i name tseed
             (Checker.summary verdict))
    end
    else
      (* an empty-handed stop is always sound, but a final status
         (Infeasible, Unbounded) claimed after a tripped fuse is the
         same bug class *)
      let status = sol.Minlp.Solution.status in
      if tripped && Engine.Status.is_final status then begin
        incr soundness_violations;
        fail
          (Printf.sprintf
             "trial %d (%s, seed %d): final status %s claimed although the budget fuse \
              tripped at poll %d"
             i name tseed (Engine.Status.to_string status) fuse_at)
      end);
    (* cross-solver differential on unlimited budgets *)
    if i mod differential_every = 0 then begin
      incr differential_runs;
      let proved =
        List.filter_map
          (fun solver ->
            let sol, cert = Minlp.Solver.run solver p in
            let name = Engine.Solver_choice.to_string solver in
            if Minlp.Solution.has_incumbent sol then begin
              (match Checker.check_minlp p cert with
              | Ok () -> ()
              | Error _ as verdict ->
                incr cert_failures;
                fail
                  (Printf.sprintf
                     "trial %d differential (%s, seed %d): certificate rejected: %s" i name
                     tseed (Checker.summary verdict)));
              if cert.Engine.Certificate.claimed_status = Engine.Status.Optimal then
                Some (name, cert.Engine.Certificate.claimed_obj)
              else None
            end
            else None)
          trial_order
      in
      match proved with
      | [] | [ _ ] -> ()
      | (name0, obj0) :: rest ->
        List.iter
          (fun (name, obj) ->
            if Float.abs (obj -. obj0) > differential_rtol *. (1. +. Float.abs obj0)
            then begin
              incr differential_failures;
              fail
                (Printf.sprintf
                   "trial %d (seed %d): proven optima disagree: %s=%.8g vs %s=%.8g" i
                   tseed name0 obj0 name obj)
            end)
          rest
    end
  done;
  {
    trials;
    optimal_claims = !optimal_claims;
    cert_failures = !cert_failures;
    soundness_violations = !soundness_violations;
    differential_runs = !differential_runs;
    differential_failures = !differential_failures;
    failures = List.rev !failures;
  }
