(* The long-lived solve service, transport-agnostic: every request
   carries its own reply sink (the connection it arrived on), so one
   server core can sit behind stdio, a socket listener, or an
   in-process test harness unchanged. One mutex guards the queue, the
   dedupe table and the counters; workers never hold it while solving
   or emitting. All reply sinks share [emit_lock] so lines from
   different domains cannot interleave even on the same fd. *)

type config = {
  jobs : int;
  queue_limit : int;
  cache_capacity : int;
  drain_grace_s : float;
  default_solver : Engine.Solver_choice.t;
  audit : bool;
  policy : Arena.Policy.t;
}

let default_config () =
  {
    jobs = Runtime.Config.jobs ();
    queue_limit = 64;
    cache_capacity = 128;
    drain_grace_s = 2.0;
    default_solver = Engine.Solver_choice.Oa;
    audit = true;
    policy = Arena.Policy.builtin;
  }

(* a solve admitted to the queue; [followers] are later identical
   requests (same key: instance and solver) that attached instead of
   queueing their own solve — they get the leader's result when it
   lands *)
type solve_job = {
  params : Protocol.solve_params;
  specs : Hslb.Alloc_model.spec list;
  key : string;
  (* (request id, arrival time, that request's reply sink, that
     request's own policy hint, that request's protocol version). The
     dedupe key is the pure solve key ({!solve_key}) — the policy hint is
     advisory and must not fragment the cache — so each follower keeps
     its own hint and gets its own recommendation back, not the
     leader's; likewise each follower is answered in its own protocol
     dialect. *)
  mutable followers : (Json.t * float * (string -> unit) * Arena.Scenario.cls option * int) list;
}

(* a resolve admitted to the queue: the incumbent allocation plus
   fresh observations, against the specs as the model file/text gave
   them (the online update is applied by the worker). Resolve requests
   are never deduped: two resolves with identical models may carry
   different observations, and the whole point is that their effect on
   the answer is decided per-request by the certificate. *)
type resolve_job = { rparams : Protocol.resolve_params; rspecs : Hslb.Alloc_model.spec list }

type work = W_solve of solve_job | W_resolve of resolve_job | W_sleep of float

type job = { jid : Json.t; v : int; arrival : float; reply : string -> unit; work : work }

type t = {
  cfg : config;
  emit : string -> unit;  (* event lines + default reply sink; see [reply_line] *)
  emit_lock : Mutex.t;
  telemetry : (string -> unit) option;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  pending : (string, solve_job) Hashtbl.t;
  cache : Hslb.Alloc_model.allocation Runtime.Cache.t;
  tally : Engine.Telemetry.t;  (* merged under [lock] *)
  (* per-server latency distributions (standalone, not in the global
     registry, so concurrent servers in one process — e.g. tests —
     do not share state). Lock-free updates; always on, because the
     stats op reports quantiles whether or not tracing is enabled. *)
  qwait_h : Obs.Metrics.Histogram.t;
  solve_h : Obs.Metrics.Histogram.t;
  drain_tok : Engine.Cancel.t;
  mutable is_draining : bool;
  mutable workers : Runtime.Pool.worker_set option;
  mutable watchdog : unit Domain.t option;
  workers_done : bool Atomic.t;
  started : float;
  (* counters, all under [lock] *)
  mutable n_accepted : int;
  mutable n_served : int;
  mutable n_overloaded : int;
  mutable n_drain_rejected : int;
  mutable n_deduped : int;
  mutable n_expired : int;
  mutable n_protocol_errors : int;
  mutable n_policy_hints : int;
  mutable n_resolved : int;
  mutable n_resolve_skipped : int;
  mutable n_placed : int;
}

(* resolve: certificate threshold when the request names none *)
let default_epsilon = 0.05

let now () = Unix.gettimeofday ()

(* every line out — whatever connection it belongs to — goes through
   the one emit lock, so responses from different worker domains never
   interleave mid-line even when they share a fd *)
let reply_line t sink line =
  Mutex.lock t.emit_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.emit_lock) (fun () -> sink line)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ---------- response + telemetry envelopes ---------- *)

type request_tele = {
  queue_wait_ms : float;
  solve_wall_ms : float;
  cache_hit : bool;
  dedup : bool;
}

let tele_fields r =
  [
    ("queue_wait_ms", Json.Num (r.queue_wait_ms));
    ("solve_wall_ms", Json.Num (r.solve_wall_ms));
    ("cache_hit", Json.Bool r.cache_hit);
    ("dedup", Json.Bool r.dedup);
  ]

let telemetry_line t ~id ~op ~outcome ~status r =
  match t.telemetry with
  | None -> ()
  | Some sink ->
    (* monotonized emit timestamp + instantaneous queue depth, so the
       traffic can be replayed in order against the metrics; safe to
       take [lock] here — no caller holds it while emitting *)
    let depth = locked t (fun () -> Queue.length t.queue) in
    sink
      (Json.to_string
         (Json.Obj
            ([
               ("event", Json.Str "request");
               ("ts_mono_s", Json.Num (Obs.Clock.now_s ()));
               ("id", id);
               ("op", Json.Str op);
               ("outcome", Json.Str outcome);
               ( "status",
                 match status with Some s -> Json.Str s | None -> Json.Null );
               ("queue_depth", Json.Num (float_of_int depth));
             ]
            @ tele_fields r)))

let zero_tele ~queue_wait_ms =
  { queue_wait_ms; solve_wall_ms = 0.; cache_hit = false; dedup = false }

(* ---------- the certified envelope ---------- *)

(* same verdict the CLI's --audit prints: Min_max allocations carry a
   MINLP certificate re-checkable against the rebuilt model; the exact
   customized paths certify in the nodes-per-class space, so there is
   no raw model to re-check *)
let audit_verdict (p : Protocol.solve_params) specs
    (alloc : Hslb.Alloc_model.allocation) =
  match alloc.Hslb.Alloc_model.certificate with
  | None -> "no certificate emitted"
  | Some cert -> (
    match p.Protocol.objective with
    | Hslb.Objective.Min_max -> (
      let problem, _, _ =
        Hslb.Alloc_model.build_minlp ~objective:p.Protocol.objective
          ~n_total:p.Protocol.n_total specs
      in
      match Audit.check_minlp problem cert with
      | Ok () ->
        Printf.sprintf "verified (%s)" cert.Engine.Certificate.producer
      | Error _ as verdict ->
        Printf.sprintf "REJECTED: %s" (Audit.summary verdict))
    | Hslb.Objective.Max_min | Hslb.Objective.Min_sum ->
      Printf.sprintf "exact-method (%s)" cert.Engine.Certificate.producer)

(* the policy annotation on an ok response: the scenario class the
   client declared, and the scheduler the arena's regret matrix crowned
   for it. Absent when the request carried no hint. *)
let policy_fields t = function
  | None -> []
  | Some cls ->
    [
      ( "policy",
        Json.Obj
          [
            ("scenario", Json.Str (Arena.Scenario.class_to_string cls));
            ("scheduler", Json.Str (Arena.Policy.recommend t.cfg.policy cls));
          ] );
    ]

let ok_response ~v ~id ?(extra = []) (alloc : Hslb.Alloc_model.allocation) ~audit ~policy r =
  Protocol.response ~v ~id
    ([
      ("outcome", Json.Str "ok");
      ( "status",
        Json.Str (Minlp.Solution.status_to_string alloc.Hslb.Alloc_model.status) );
      ("makespan", Json.Num alloc.Hslb.Alloc_model.predicted_makespan);
      ( "nodes_per_task",
        Json.Arr
          (Array.to_list
             (Array.map (fun n -> Json.Num (float_of_int n))
                alloc.Hslb.Alloc_model.nodes_per_task)) );
      ( "predicted_times",
        Json.Arr
          (Array.to_list
             (Array.map (fun v -> Json.Num v) alloc.Hslb.Alloc_model.predicted_times)) );
      ("audit", match audit with Some s -> Json.Str s | None -> Json.Null);
    ]
    @ extra @ policy
    @ [ ("telemetry", Json.Obj (tele_fields r)) ])

let failed_response ~v ~id status r =
  Protocol.response ~v ~id
    [
      ("outcome", Json.Str "error");
      ( "error",
        Json.Str ("no allocation: " ^ Minlp.Solution.status_to_string status) );
      ("status", Json.Str (Minlp.Solution.status_to_string status));
      ("telemetry", Json.Obj (tele_fields r));
    ]

(* ---------- workers ---------- *)

(* the solver that answers a request: its own [solver], else this
   server's default *)
let solver_of t (p : Protocol.solve_params) =
  Option.value p.Protocol.solver ~default:t.cfg.default_solver

(* the cache/dedupe key of a solve: the instance under [solver_of] *)
let solve_key t (p : Protocol.solve_params) specs =
  Protocol.solve_key { p with Protocol.solver = Some (solver_of t p) } specs

(* the one memoized solve step behind both workers: arm the request's
   budget (its deadline less the queue wait, stopped by the drain
   token), answer from the cache or run the solver, and charge the
   solve histogram and the server's counters. The server owns the
   memoization (one find, one put) so its hit/miss counters stay exact;
   as in Alloc_model's own cache, only proven optima are stored. [key]
   names the solver, so no request is answered from another solver's
   entry. *)
let cached_solve t ~key ~queue_wait ?warm_start (p : Protocol.solve_params) specs =
  let deadline_s = Option.map (fun ms -> (ms /. 1000.) -. queue_wait) p.Protocol.deadline_ms in
  let budget = Engine.Budget.arm (Engine.Budget.make ?deadline_s ~cancel:t.drain_tok ()) in
  let trace = Engine.Telemetry.create () in
  let outcome =
    match Runtime.Cache.find t.cache key with
    | Some alloc -> `Solved (Ok alloc, true)
    | None -> (
      match
        Hslb.Alloc_model.solve ~solver:(solver_of t p) ~objective:p.Protocol.objective ?warm_start ~budget ~trace
          ~n_total:p.Protocol.n_total specs
      with
      | r ->
        (match r with
        | Ok alloc when alloc.Hslb.Alloc_model.status = Minlp.Solution.Optimal ->
          Runtime.Cache.put t.cache key alloc
        | Ok _ | Error _ -> ());
        `Solved (r, false)
      | exception e ->
        (* a solver crash must still answer the request and every
           attached follower, or admitted requests would be lost *)
        `Crashed (Printexc.to_string e))
  in
  let solve_wall = Engine.Budget.elapsed_s budget in
  Obs.Metrics.Histogram.observe t.solve_h (solve_wall *. 1000.);
  locked t (fun () -> Engine.Telemetry.merge_into t.tally trace);
  (outcome, solve_wall)

let respond_solve t ~v ~id ~reply ~op ?extra result ~audit ~policy r =
  (match result with
  | Ok alloc -> reply_line t reply (ok_response ~v ~id ?extra alloc ~audit ~policy r)
  | Error st -> reply_line t reply (failed_response ~v ~id st r));
  let outcome, status =
    match result with
    | Ok (alloc : Hslb.Alloc_model.allocation) ->
      ("ok", Some (Minlp.Solution.status_to_string alloc.Hslb.Alloc_model.status))
    | Error st -> ("error", Some (Minlp.Solution.status_to_string st))
  in
  telemetry_line t ~id ~op ~outcome ~status r

let process_solve t (job : job) (sj : solve_job) =
  let start = now () in
  let queue_wait = start -. job.arrival in
  let p = sj.params in
  (* detach from the dedupe table first: once the solve begins, a new
     identical request queues its own rather than waiting behind a
     result that may already reflect an older deadline *)
  let followers =
    locked t (fun () ->
        Hashtbl.remove t.pending sj.key;
        let fs = sj.followers in
        sj.followers <- [];
        fs)
  in
  let follower_tele (arr : float) tele =
    { tele with dedup = true; queue_wait_ms = Float.max 0. ((start -. arr) *. 1000.) }
  in
  let expired =
    match p.Protocol.deadline_ms with
    | Some ms -> queue_wait *. 1000. >= ms
    | None -> false
  in
  if expired then begin
    let answer ~v id reply tele =
      Obs.Metrics.Histogram.observe t.qwait_h tele.queue_wait_ms;
      reply_line t reply
        (Protocol.error_response ~v ~id ~outcome:"expired"
           (Printf.sprintf "deadline (%.0f ms) consumed by %.0f ms of queue wait"
              (Option.get p.Protocol.deadline_ms)
              tele.queue_wait_ms));
      telemetry_line t ~id ~op:"solve" ~outcome:"expired" ~status:None tele
    in
    answer ~v:job.v job.jid job.reply (zero_tele ~queue_wait_ms:(queue_wait *. 1000.));
    List.iter
      (fun (fid, arr, freply, _, fv) ->
        answer ~v:fv fid freply (follower_tele arr (zero_tele ~queue_wait_ms:0.)))
      followers;
    locked t (fun () ->
        t.n_expired <- t.n_expired + 1 + List.length followers;
        t.n_served <- t.n_served + 1 + List.length followers)
  end
  else begin
    let outcome, solve_wall = cached_solve t ~key:sj.key ~queue_wait p sj.specs in
    Obs.Metrics.Histogram.observe t.qwait_h (queue_wait *. 1000.);
    List.iter
      (fun (_, arr, _, _, _) ->
        Obs.Metrics.Histogram.observe t.qwait_h
          (Float.max 0. ((start -. arr) *. 1000.)))
      followers;
    let tele_of cache_hit =
      {
        queue_wait_ms = queue_wait *. 1000.;
        solve_wall_ms = solve_wall *. 1000.;
        cache_hit;
        dedup = false;
      }
    in
    (match outcome with
    | `Solved (result, cache_hit) ->
      let audit =
        match result with
        | Ok alloc when t.cfg.audit -> Some (audit_verdict p sj.specs alloc)
        | Ok _ | Error _ -> None
      in
      (* the placement annotation: rebuild the instance with the solved
         predicted times as durations (the request-level zero-duration
         shape was already validated at submit) and run the comm-aware
         search. Computed once; followers carry the same section. *)
      let place_extra =
        match (result, p.Protocol.place) with
        | Ok alloc, Some pl -> (
          let names = Protocol.spec_names sj.specs in
          let duration_s =
            Array.init (Array.length names) (fun c ->
                Array.make pl.Protocol.place_groups
                  alloc.Hslb.Alloc_model.predicted_times.(c))
          in
          match Protocol.place_instance ~duration_s ~names pl with
          | Error msg -> [ ("place", Json.Obj [ ("error", Json.Str msg) ]) ]
          | Ok inst -> (
            match Place.Optimizer.optimize inst with
            | assignment ->
              let e = Place.Model.eval inst assignment in
              locked t (fun () -> t.n_placed <- t.n_placed + 1);
              [
                ( "place",
                  Json.Obj
                    [
                      ( "assignment",
                        Json.Arr
                          (Array.to_list
                             (Array.map (fun g -> Json.Num (float_of_int g)) assignment)) );
                      ("groups", Json.Num (float_of_int (Place.Model.num_groups inst)));
                      ("makespan_s", Json.Num e.Place.Model.makespan_s);
                      ("comm_cost_s", Json.Num e.Place.Model.comm_cost_s);
                      ("total_s", Json.Num e.Place.Model.total_s);
                    ] );
              ]
            | exception Place.Optimizer.No_feasible msg ->
              [ ("place", Json.Obj [ ("error", Json.Str msg) ]) ]))
        | (Ok _ | Error _), _ -> []
      in
      let tele = tele_of cache_hit in
      respond_solve t ~v:job.v ~id:job.jid ~reply:job.reply ~op:"solve" ~extra:place_extra
        result ~audit ~policy:(policy_fields t p.Protocol.policy) tele;
      List.iter
        (fun (fid, arr, freply, fpolicy, fv) ->
          respond_solve t ~v:fv ~id:fid ~reply:freply ~op:"solve" ~extra:place_extra result
            ~audit ~policy:(policy_fields t fpolicy) (follower_tele arr tele))
        followers
    | `Crashed msg ->
      let answer ~v id reply tele =
        reply_line t reply
          (Protocol.error_response ~v ~id ~outcome:"error" ("internal error: " ^ msg));
        telemetry_line t ~id ~op:"solve" ~outcome:"error" ~status:None tele
      in
      let tele = tele_of false in
      answer ~v:job.v job.jid job.reply tele;
      List.iter
        (fun (fid, arr, freply, _, fv) -> answer ~v:fv fid freply (follower_tele arr tele))
        followers);
    locked t (fun () -> t.n_served <- t.n_served + 1 + List.length followers)
  end

(* ---------- resolve: online update, certificate, warm re-solve ---------- *)

(* fold the request's fresh observations into each class's law with
   rank-one online updates; classes the request says nothing about keep
   their coefficients. Deterministically seeded: the rng only matters
   if the online state decides a full multi-start refit is needed. *)
let updated_specs (rj : resolve_job) =
  List.map
    (fun (spec : Hslb.Alloc_model.spec) ->
      let fc = spec.Hslb.Alloc_model.fc in
      let name = fc.Hslb.Classes.cls.Hslb.Classes.name in
      match List.assoc_opt name rj.rparams.Protocol.observe with
      | None | Some [||] -> spec
      | Some samples ->
        let fit0 = fc.Hslb.Classes.fit in
        let ol =
          Hslb.Fitting.Online.of_law ~rng:(Numerics.Rng.create 42) fit0.Hslb.Fitting.law
        in
        Hslb.Fitting.Online.observe_all ol samples;
        let fit = { fit0 with Hslb.Fitting.law = Hslb.Fitting.Online.law ol } in
        { spec with Hslb.Alloc_model.fc = { fc with Hslb.Classes.fit } })
    rj.rspecs

let sensitivity_classes ~n_total specs =
  List.map
    (fun (s : Hslb.Alloc_model.spec) ->
      {
        Audit.Sensitivity.law = s.Hslb.Alloc_model.fc.Hslb.Classes.fit.Hslb.Fitting.law;
        count = s.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.count;
        n_min = s.Hslb.Alloc_model.n_min;
        (* clamp the open-ended default box to the budget: no class can
           be allocated more than n_total, so this stays a relaxation *)
        n_max = min s.Hslb.Alloc_model.n_max n_total;
        allowed = s.Hslb.Alloc_model.allowed;
      })
    specs

let certificate_fields = function
  | None -> []
  | Some (c : Audit.Sensitivity.certificate) ->
    [
      ( "certificate",
        Json.Obj
          [
            ("incumbent", Json.Num c.Audit.Sensitivity.incumbent_obj);
            ("bound", Json.Num c.Audit.Sensitivity.relaxation_bound);
            ("gap_rel", Json.Num c.Audit.Sensitivity.gap_rel);
            ("eps", Json.Num c.Audit.Sensitivity.eps);
          ] );
    ]

let process_resolve t (job : job) (rj : resolve_job) =
  let start = now () in
  let queue_wait = start -. job.arrival in
  let rp = rj.rparams in
  let p = rp.Protocol.base in
  let v = job.v in
  let expired =
    match p.Protocol.deadline_ms with
    | Some ms -> queue_wait *. 1000. >= ms
    | None -> false
  in
  let finish_tele tele = Obs.Metrics.Histogram.observe t.qwait_h tele.queue_wait_ms in
  if expired then begin
    let tele = zero_tele ~queue_wait_ms:(queue_wait *. 1000.) in
    finish_tele tele;
    reply_line t job.reply
      (Protocol.error_response ~v ~id:job.jid ~outcome:"expired"
         (Printf.sprintf "deadline (%.0f ms) consumed by %.0f ms of queue wait"
            (Option.get p.Protocol.deadline_ms)
            tele.queue_wait_ms));
    telemetry_line t ~id:job.jid ~op:"resolve" ~outcome:"expired" ~status:None tele;
    locked t (fun () ->
        t.n_expired <- t.n_expired + 1;
        t.n_served <- t.n_served + 1)
  end
  else begin
    let specs = updated_specs rj in
    let k = List.length specs in
    (* keyed like a place-free solve of the UPDATED model (a resolve
       answers no placement), so a later solve or resolve of the drifted
       model with the same solver replays the answer *)
    let key =
      if Array.length rp.Protocol.prev <> k then
        Error
          (Printf.sprintf "field \"prev\": expected %d entries (one per model class), got %d"
             k (Array.length rp.Protocol.prev))
      else solve_key t { p with Protocol.place = None } specs
    in
    match key with
    | Error msg ->
      let tele = zero_tele ~queue_wait_ms:(queue_wait *. 1000.) in
      finish_tele tele;
      reply_line t job.reply (Protocol.error_response ~v ~id:job.jid ~outcome:"error" msg);
      telemetry_line t ~id:job.jid ~op:"resolve" ~outcome:"error" ~status:None tele;
      locked t (fun () -> t.n_served <- t.n_served + 1)
    | Ok key -> (
      let eps = Option.value rp.Protocol.epsilon ~default:default_epsilon in
      let verdict =
        match p.Protocol.objective with
        | Hslb.Objective.Min_max ->
          Audit.Sensitivity.check ~eps ~n_total:p.Protocol.n_total
            ~incumbent:rp.Protocol.prev
            (sensitivity_classes ~n_total:p.Protocol.n_total specs)
        | Hslb.Objective.Max_min | Hslb.Objective.Min_sum ->
          (* the relaxation bound is a min-max construction; other
             objectives always pay for the re-solve *)
          Audit.Sensitivity.Rejected
            { certificate = None; reason = "certificate requires the min-max objective" }
      in
      match verdict with
      | Audit.Sensitivity.Certified cert ->
        (* the incumbent is provably within eps of the best any
           allocation can do under the updated coefficients: answer
           from it without entering the solver *)
        let predicted_times =
          List.map2
            (fun (s : Hslb.Alloc_model.spec) n ->
              Json.Num (Hslb.Fitting.predict s.Hslb.Alloc_model.fc.Hslb.Classes.fit n))
            specs
            (Array.to_list rp.Protocol.prev)
        in
        let tele =
          {
            (zero_tele ~queue_wait_ms:(queue_wait *. 1000.)) with
            solve_wall_ms = (now () -. start) *. 1000.;
          }
        in
        finish_tele tele;
        reply_line t job.reply
          (Protocol.response ~v ~id:job.jid
             ([
                ("outcome", Json.Str "ok");
                ("resolve", Json.Str "unchanged");
                ("makespan", Json.Num cert.Audit.Sensitivity.incumbent_obj);
                ( "nodes_per_task",
                  Json.Arr
                    (Array.to_list
                       (Array.map (fun n -> Json.Num (float_of_int n)) rp.Protocol.prev)) );
                ("predicted_times", Json.Arr predicted_times);
              ]
             @ certificate_fields (Some cert)
             @ policy_fields t p.Protocol.policy
             @ [ ("telemetry", Json.Obj (tele_fields tele)) ]));
        telemetry_line t ~id:job.jid ~op:"resolve" ~outcome:"ok" ~status:(Some "unchanged") tele;
        locked t (fun () ->
            t.n_resolve_skipped <- t.n_resolve_skipped + 1;
            t.n_served <- t.n_served + 1)
      | Audit.Sensitivity.Rejected { certificate; reason = _ } ->
        (* warm-start from the incumbent only when it is feasible under
           the new model (a certificate record was computed at all) *)
        let warm_start = if certificate <> None then Some rp.Protocol.prev else None in
        let outcome, solve_wall = cached_solve t ~key ~queue_wait ?warm_start p specs in
        finish_tele (zero_tele ~queue_wait_ms:(queue_wait *. 1000.));
        let tele =
          {
            queue_wait_ms = queue_wait *. 1000.;
            solve_wall_ms = solve_wall *. 1000.;
            cache_hit = (match outcome with `Solved (_, hit) -> hit | `Crashed _ -> false);
            dedup = false;
          }
        in
        (match outcome with
        | `Solved (result, _) ->
          let audit =
            match result with
            | Ok alloc when t.cfg.audit -> Some (audit_verdict p specs alloc)
            | Ok _ | Error _ -> None
          in
          respond_solve t ~v ~id:job.jid ~reply:job.reply ~op:"resolve"
            ~extra:(("resolve", Json.Str "resolved") :: certificate_fields certificate)
            result ~audit
            ~policy:(policy_fields t p.Protocol.policy)
            tele
        | `Crashed msg ->
          reply_line t job.reply
            (Protocol.error_response ~v ~id:job.jid ~outcome:"error"
               ("internal error: " ^ msg));
          telemetry_line t ~id:job.jid ~op:"resolve" ~outcome:"error" ~status:None tele);
        locked t (fun () ->
            t.n_resolved <- t.n_resolved + 1;
            t.n_served <- t.n_served + 1))
  end

let process_sleep t (job : job) dur =
  let start = now () in
  let queue_wait = start -. job.arrival in
  Obs.Metrics.Histogram.observe t.qwait_h (queue_wait *. 1000.);
  (* cooperative nap: polls the drain token so a graceful shutdown can
     budget-cancel it like any solve *)
  let rec nap () =
    let left = dur -. (now () -. start) in
    if left > 0. && not (Engine.Cancel.cancelled t.drain_tok) then begin
      Unix.sleepf (Float.min 0.005 left);
      nap ()
    end
  in
  nap ();
  let tele =
    {
      (zero_tele ~queue_wait_ms:(queue_wait *. 1000.)) with
      solve_wall_ms = (now () -. start) *. 1000.;
    }
  in
  reply_line t job.reply
    (Protocol.response ~id:job.jid
       [
         ("outcome", Json.Str "ok");
         ("slept_ms", Json.Num tele.solve_wall_ms);
         ("cancelled", Json.Bool (Engine.Cancel.cancelled t.drain_tok));
         ("telemetry", Json.Obj (tele_fields tele));
       ]);
  telemetry_line t ~id:job.jid ~op:"sleep" ~outcome:"ok" ~status:None tele;
  locked t (fun () -> t.n_served <- t.n_served + 1)

let process t job =
  let body () =
    match job.work with
    | W_solve sj -> process_solve t job sj
    | W_resolve rj -> process_resolve t job rj
    | W_sleep dur -> process_sleep t job dur
  in
  if not (Obs.Control.enabled ()) then body ()
  else
    let op =
      match job.work with W_solve _ -> "solve" | W_resolve _ -> "resolve" | W_sleep _ -> "sleep"
    in
    Obs.Span.with_span ~cat:"serve" ~args:[ ("op", op) ] "serve.request" body

let worker_body t _i =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.is_draining do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.lock (* draining + drained: exit *)
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.lock;
      (match process t job with
      | () -> ()
      | exception e ->
        (* a worker must survive anything a request throws at it *)
        reply_line t job.reply
          (Protocol.error_response ~id:job.jid ~outcome:"error"
             ("internal error: " ^ Printexc.to_string e)));
      loop ()
    end
  in
  loop ()

(* ---------- construction ---------- *)

let create ?telemetry cfg ~emit =
  if cfg.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  if cfg.queue_limit < 1 then invalid_arg "Server.create: queue_limit must be >= 1";
  if cfg.drain_grace_s < 0. then invalid_arg "Server.create: drain_grace_s must be >= 0";
  let t =
    {
      cfg;
      emit;
      emit_lock = Mutex.create ();
      telemetry;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      pending = Hashtbl.create 64;
      cache = Runtime.Cache.create ~capacity:cfg.cache_capacity ();
      tally = Engine.Telemetry.create ();
      qwait_h = Obs.Metrics.Histogram.create ~lo:1e-3 ~hi:1e7 "serve_queue_wait_ms";
      solve_h = Obs.Metrics.Histogram.create ~lo:1e-3 ~hi:1e7 "serve_solve_ms";
      drain_tok = Engine.Cancel.create ();
      is_draining = false;
      workers = None;
      watchdog = None;
      workers_done = Atomic.make false;
      started = now ();
      n_accepted = 0;
      n_served = 0;
      n_overloaded = 0;
      n_drain_rejected = 0;
      n_deduped = 0;
      n_expired = 0;
      n_protocol_errors = 0;
      n_policy_hints = 0;
      n_resolved = 0;
      n_resolve_skipped = 0;
      n_placed = 0;
    }
  in
  t.workers <- Some (Runtime.Pool.spawn_workers ~jobs:cfg.jobs (worker_body t));
  t

let draining t = locked t (fun () -> t.is_draining)

let summary_json (s : Obs.Metrics.Histogram.summary) =
  (* NaN quantiles of an empty histogram render as JSON null *)
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.count));
      ("p50", Json.Num s.p50);
      ("p90", Json.Num s.p90);
      ("p99", Json.Num s.p99);
      ("max", Json.Num s.max);
    ]

let latency_obj t =
  Json.Obj
    [
      ("queue_wait_ms", summary_json (Obs.Metrics.Histogram.summary t.qwait_h));
      ("solve_ms", summary_json (Obs.Metrics.Histogram.summary t.solve_h));
    ]

let metrics t =
  Obs.Metrics.snapshot ()
  @ [
      (Obs.Metrics.Histogram.name t.qwait_h, Obs.Metrics.Histogram t.qwait_h);
      (Obs.Metrics.Histogram.name t.solve_h, Obs.Metrics.Histogram t.solve_h);
    ]

let stats_obj t =
  locked t (fun () ->
      (Json.Obj
           [
             ("uptime_s", Json.Num (now () -. t.started));
             ("jobs", Json.Num (float_of_int t.cfg.jobs));
             ("queue_depth", Json.Num (float_of_int (Queue.length t.queue)));
             ("queue_limit", Json.Num (float_of_int t.cfg.queue_limit));
             ("draining", Json.Bool t.is_draining);
             ("accepted", Json.Num (float_of_int t.n_accepted));
             ("served", Json.Num (float_of_int t.n_served));
             ("overloaded", Json.Num (float_of_int t.n_overloaded));
             ("drain_rejected", Json.Num (float_of_int t.n_drain_rejected));
             ("deduped", Json.Num (float_of_int t.n_deduped));
             ("expired", Json.Num (float_of_int t.n_expired));
             ("protocol_errors", Json.Num (float_of_int t.n_protocol_errors));
             ("policy_hints", Json.Num (float_of_int t.n_policy_hints));
             ("resolved", Json.Num (float_of_int t.n_resolved));
             ("resolve_skipped", Json.Num (float_of_int t.n_resolve_skipped));
             ("placed", Json.Num (float_of_int t.n_placed));
             ( "protocol",
               Json.Obj
                 [
                   ("min", Json.Num (float_of_int Protocol.min_version));
                   ("max", Json.Num (float_of_int Protocol.current_version));
                 ] );
             ("latency", latency_obj t);
             ( "cache",
               Json.Obj
                 [
                   ("hits", Json.Num (float_of_int (Runtime.Cache.hits t.cache)));
                   ("misses", Json.Num (float_of_int (Runtime.Cache.misses t.cache)));
                   ("length", Json.Num (float_of_int (Runtime.Cache.length t.cache)));
                 ] );
           ]))

let stats_json t = Json.to_string (stats_obj t)

(* ---------- drain ---------- *)

let initiate_drain t =
  let started_now =
    locked t (fun () ->
        if t.is_draining then false
        else begin
          t.is_draining <- true;
          Condition.broadcast t.nonempty;
          true
        end)
  in
  if started_now then begin
    (* grace watchdog: give in-flight and queued work [drain_grace_s] to
       finish naturally, then budget-cancel the rest through the shared
       token. Polls so a fast drain is not held up by a long grace. *)
    let deadline = now () +. t.cfg.drain_grace_s in
    let watchdog =
      Domain.spawn (fun () ->
          let rec watch () =
            if Atomic.get t.workers_done then ()
            else if now () >= deadline then Engine.Cancel.cancel t.drain_tok
            else begin
              Unix.sleepf 0.01;
              watch ()
            end
          in
          watch ())
    in
    locked t (fun () -> t.watchdog <- Some watchdog)
  end

let await_drain t =
  initiate_drain t;
  (match t.workers with
  | Some ws ->
    Runtime.Pool.join_workers ws;
    t.workers <- None
  | None -> ());
  Atomic.set t.workers_done true;
  (match locked t (fun () -> t.watchdog) with
  | Some d ->
    Domain.join d;
    locked t (fun () -> t.watchdog <- None)
  | None -> ());
  let hists =
    List.filter
      (fun (_, s) -> s.Obs.Metrics.Histogram.count > 0)
      [
        ("serve_queue_wait_ms", Obs.Metrics.Histogram.summary t.qwait_h);
        ("serve_solve_ms", Obs.Metrics.Histogram.summary t.solve_h);
      ]
  in
  locked t (fun () ->
      Engine.Run_report.make ~solver:"serve" ~status:"drained" ~hists
        ~wall_s:(now () -. t.started) t.tally)

(* ---------- admission ---------- *)

let admit t ~id ~v ~reply work =
  let job = { jid = id; v; arrival = now (); reply; work } in
  let op =
    match work with W_solve _ -> "solve" | W_resolve _ -> "resolve" | W_sleep _ -> "sleep"
  in
  let verdict =
    locked t (fun () ->
        if t.is_draining then begin
          t.n_drain_rejected <- t.n_drain_rejected + 1;
          `Draining
        end
        else if Queue.length t.queue >= t.cfg.queue_limit then begin
          t.n_overloaded <- t.n_overloaded + 1;
          `Overloaded
        end
        else begin
          match work with
          | W_solve sj -> (
            if sj.params.Protocol.policy <> None then
              t.n_policy_hints <- t.n_policy_hints + 1;
            match Hashtbl.find_opt t.pending sj.key with
            | Some leader ->
              (* identical instance already queued or solving: attach,
                 carrying this request's own policy hint *)
              leader.followers <-
                (id, job.arrival, reply, sj.params.Protocol.policy, v) :: leader.followers;
              t.n_accepted <- t.n_accepted + 1;
              t.n_deduped <- t.n_deduped + 1;
              `Attached
            | None ->
              Hashtbl.replace t.pending sj.key sj;
              Queue.push job t.queue;
              t.n_accepted <- t.n_accepted + 1;
              Condition.signal t.nonempty;
              `Queued)
          | W_resolve rj ->
            (* never deduped: the observations ride with the request,
               and the certificate decides per-request what they mean *)
            if rj.rparams.Protocol.base.Protocol.policy <> None then
              t.n_policy_hints <- t.n_policy_hints + 1;
            Queue.push job t.queue;
            t.n_accepted <- t.n_accepted + 1;
            Condition.signal t.nonempty;
            `Queued
          | W_sleep _ ->
            Queue.push job t.queue;
            t.n_accepted <- t.n_accepted + 1;
            Condition.signal t.nonempty;
            `Queued
        end)
  in
  match verdict with
  | `Queued | `Attached -> ()
  | `Overloaded ->
    reply_line t reply
      (Protocol.error_response ~v ~id ~outcome:"overloaded"
         (Printf.sprintf "queue at high-water mark (%d); retry later" t.cfg.queue_limit));
    telemetry_line t ~id ~op ~outcome:"overloaded" ~status:None (zero_tele ~queue_wait_ms:0.)
  | `Draining ->
    reply_line t reply
      (Protocol.error_response ~v ~id ~outcome:"draining"
         "server is draining; not accepting work")

let protocol_obj =
  Json.Obj
    [
      ("min", Json.Num (float_of_int Protocol.min_version));
      ("max", Json.Num (float_of_int Protocol.current_version));
    ]

let submit ?reply t line =
  let reply = Option.value reply ~default:t.emit in
  let { Protocol.id; v; req; _ } = Protocol.parse_line line in
  match req with
  | Error msg ->
    locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
    reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)
  | Ok Protocol.Ping ->
    (* the v1 ping reply is pinned byte-for-byte by tests; the v2
       dialect adds the protocol advertisement *)
    let extra = if v >= 2 then [ ("protocol", protocol_obj) ] else [] in
    reply_line t reply
      (Protocol.response ~v ~id
         ([ ("outcome", Json.Str "ok"); ("pong", Json.Bool true) ] @ extra))
  | Ok Protocol.Stats ->
    let extra = if v >= 2 then [ ("protocol", protocol_obj) ] else [] in
    reply_line t reply
      (Protocol.response ~v ~id
         ([ ("outcome", Json.Str "ok"); ("stats", stats_obj t) ] @ extra))
  | Ok Protocol.Drain ->
    initiate_drain t;
    reply_line t reply
      (Protocol.response ~v ~id [ ("outcome", Json.Str "ok"); ("draining", Json.Bool true) ])
  | Ok (Protocol.Sleep dur) -> admit t ~id ~v ~reply (W_sleep dur)
  | Ok (Protocol.Solve p) -> (
    match Protocol.resolve_specs p with
    | Error msg ->
      locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
      reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)
    | Ok specs -> (
      (* the key wraps the allocation fingerprint with the placement
         fingerprint when a place section rides along; a malformed
         place section (wrong arity, asymmetric traffic, memory
         infeasibility) is rejected here, before any solver work *)
      match solve_key t p specs with
      | Error msg ->
        locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
        reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)
      | Ok key -> admit t ~id ~v ~reply (W_solve { params = p; specs; key; followers = [] })))
  | Ok (Protocol.Resolve rp) -> (
    match Protocol.resolve_specs rp.Protocol.base with
    | Error msg ->
      locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
      reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)
    | Ok specs -> admit t ~id ~v ~reply (W_resolve { rparams = rp; rspecs = specs }))
