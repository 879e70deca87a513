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
    default_solver = Hslb.Alloc_model.default_solver;
    audit = true;
    policy = Arena.Policy.builtin;
  }

(* one admitted request: what [finish] needs to answer it *)
type requester = {
  id : Json.t;
  v : int;  (* answered in this protocol version *)
  arrival : float;
  reply : string -> unit;
  hint : Arena.Scenario.cls option;  (* its own policy hint *)
}

(* a solve admitted to the queue; [followers] are later identical
   requests (same key: instance and solver) that attached instead of
   queueing their own solve — they get the leader's result when it
   lands. The key leaves out the policy hint (advisory; it must not
   fragment the cache), so each follower gets the recommendation for
   its own hint, in its own protocol version. *)
type solve_job = {
  params : Protocol.solve_params;
  specs : Hslb.Alloc_model.spec list;
  key : string;
  mutable followers : requester list;
}

(* a resolve admitted to the queue: the incumbent allocation plus
   fresh observations, against the specs as the model file/text gave
   them (the online update is applied by the worker). Resolve requests
   are never deduped: two resolves with identical models may carry
   different observations, and the whole point is that their effect on
   the answer is decided per-request by the certificate. *)
type resolve_job = { rparams : Protocol.resolve_params; rspecs : Hslb.Alloc_model.spec list }

type work = W_solve of solve_job | W_resolve of resolve_job | W_sleep of float

type job = { rq : requester; work : work }

let op_name = function W_solve _ -> "solve" | W_resolve _ -> "resolve" | W_sleep _ -> "sleep"

type t = {
  cfg : config;
  emit : string -> unit;  (* the default reply sink; see [reply_line] *)
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

let telemetry_member r = ("telemetry", Json.Obj (tele_fields r))

(* a request's numbers once a worker picked it up at [start] *)
let tele_of ~start ?(solve_wall_ms = 0.) ?(cache_hit = false) ?(dedup = false) rq =
  {
    queue_wait_ms = Float.max 0. ((start -. rq.arrival) *. 1000.);
    solve_wall_ms;
    cache_hit;
    dedup;
  }

(* The one exit of an admitted request: its terminal reply in its own
   protocol version, then the queue-wait observation, the telemetry
   line and the [served] count. *)
let finish t ~op rq ~outcome ?status fields tele =
  reply_line t rq.reply
    (Protocol.response ~v:rq.v ~id:rq.id (("outcome", Json.Str outcome) :: fields));
  Obs.Metrics.Histogram.observe t.qwait_h tele.queue_wait_ms;
  telemetry_line t ~id:rq.id ~op ~outcome ~status tele;
  locked t (fun () -> t.n_served <- t.n_served + 1)

let fail t ~op rq ~outcome msg tele = finish t ~op rq ~outcome [ ("error", Json.Str msg) ] tele

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
   what is stored follows Alloc_model.memoize, the rule of its own
   cache. [key] names the solver, so no request is answered from
   another solver's entry. *)
let cached_solve t ~key ~queue_wait ?warm_start (p : Protocol.solve_params) specs =
  let deadline_s = Option.map (fun ms -> (ms /. 1000.) -. queue_wait) p.Protocol.deadline_ms in
  let budget = Engine.Budget.arm (Engine.Budget.make ?deadline_s ~cancel:t.drain_tok ()) in
  let trace = Engine.Telemetry.create () in
  let solver = solver_of t p and objective = p.Protocol.objective in
  let outcome =
    match Runtime.Cache.find t.cache key with
    | Some alloc -> `Solved (Ok alloc, true)
    | None -> (
      match
        Hslb.Alloc_model.solve ~solver ~objective ?warm_start ~budget ~trace
          ~n_total:p.Protocol.n_total specs
      with
      | r ->
        Hslb.Alloc_model.memoize ~solver ~objective t.cache key r;
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

(* the placement annotation: rebuild the instance with the solved
   predicted times as durations (the request-level zero-duration shape
   was already validated at submit) and run the comm-aware search *)
let place_section t (p : Protocol.solve_params) specs (alloc : Hslb.Alloc_model.allocation) =
  match p.Protocol.place with
  | None -> []
  | Some pl ->
    let names = Protocol.spec_names specs in
    let duration_s =
      Array.init (Array.length names) (fun c ->
          Array.make pl.Protocol.place_groups alloc.Hslb.Alloc_model.predicted_times.(c))
    in
    let section =
      match Protocol.place_instance ~duration_s ~names pl with
      | Error msg -> Json.Obj [ ("error", Json.Str msg) ]
      | Ok inst -> (
        match Place.Optimizer.optimize inst with
        | assignment ->
          let e = Place.Model.eval inst assignment in
          locked t (fun () -> t.n_placed <- t.n_placed + 1);
          Json.Obj
            [
              ( "assignment",
                Json.Arr
                  (Array.to_list (Array.map (fun g -> Json.Num (float_of_int g)) assignment))
              );
              ("groups", Json.Num (float_of_int (Place.Model.num_groups inst)));
              ("makespan_s", Json.Num e.Place.Model.makespan_s);
              ("comm_cost_s", Json.Num e.Place.Model.comm_cost_s);
              ("total_s", Json.Num e.Place.Model.total_s);
            ]
        | exception Place.Optimizer.No_feasible msg -> Json.Obj [ ("error", Json.Str msg) ])
    in
    [ ("place", section) ]

(* One solve outcome, answered to every requester sharing it — a leader
   first, then its deduped followers — each in its own version and with
   its own policy hint. The audit verdict and [extra] members are
   computed once. *)
let answer_solve t ~op ~start ~extra (p : Protocol.solve_params) specs (outcome, solve_wall)
    rqs =
  let answer =
    match outcome with
    | `Solved (Ok (alloc : Hslb.Alloc_model.allocation), _) ->
      let status = Minlp.Solution.status_to_string alloc.Hslb.Alloc_model.status in
      let nums f a = Json.Arr (Array.to_list (Array.map f a)) in
      `Allocated
        ( status,
          [
            ("status", Json.Str status);
            ("makespan", Json.Num alloc.Hslb.Alloc_model.predicted_makespan);
            ( "nodes_per_task",
              nums (fun n -> Json.Num (float_of_int n)) alloc.Hslb.Alloc_model.nodes_per_task );
            ("predicted_times", nums (fun x -> Json.Num x) alloc.Hslb.Alloc_model.predicted_times);
            ( "audit",
              if t.cfg.audit then Json.Str (audit_verdict p specs alloc) else Json.Null );
          ]
          @ extra alloc )
    | `Solved (Error st, _) -> `No_allocation (Minlp.Solution.status_to_string st)
    | `Crashed msg -> `Crashed msg
  in
  let cache_hit = match outcome with `Solved (_, hit) -> hit | `Crashed _ -> false in
  List.iteri
    (fun i rq ->
      let tele =
        tele_of ~start ~solve_wall_ms:(solve_wall *. 1000.) ~cache_hit ~dedup:(i > 0) rq
      in
      match answer with
      | `Allocated (status, fields) ->
        finish t ~op rq ~outcome:"ok" ~status
          (fields @ policy_fields t rq.hint @ [ telemetry_member tele ])
          tele
      | `No_allocation status ->
        finish t ~op rq ~outcome:"error" ~status
          [
            ("error", Json.Str ("no allocation: " ^ status));
            ("status", Json.Str status);
            telemetry_member tele;
          ]
          tele
      | `Crashed msg -> fail t ~op rq ~outcome:"error" ("internal error: " ^ msg) tele)
    rqs

(* the deadline a request's queue wait consumed, if it did *)
let expired_deadline (p : Protocol.solve_params) ~start rq =
  match p.Protocol.deadline_ms with
  | Some ms when (start -. rq.arrival) *. 1000. >= ms -> Some ms
  | Some _ | None -> None

(* answered without solving; followers share their leader's verdict *)
let expire t ~op ~start ms rqs =
  locked t (fun () -> t.n_expired <- t.n_expired + List.length rqs);
  List.iteri
    (fun i rq ->
      let tele = tele_of ~start ~dedup:(i > 0) rq in
      fail t ~op rq ~outcome:"expired"
        (Printf.sprintf "deadline (%.0f ms) consumed by %.0f ms of queue wait" ms
           tele.queue_wait_ms)
        tele)
    rqs

let process_solve t ~start rq (sj : solve_job) =
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
  match expired_deadline p ~start rq with
  | Some ms -> expire t ~op:"solve" ~start ms (rq :: followers)
  | None ->
    answer_solve t ~op:"solve" ~start ~extra:(place_section t p sj.specs) p sj.specs
      (cached_solve t ~key:sj.key ~queue_wait:(start -. rq.arrival) p sj.specs)
      (rq :: followers)

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

let certificate_fields ~eps = function
  | None -> []
  | Some (r : Hslb.Alloc_model.reoptimality) ->
    [
      ( "certificate",
        Json.Obj
          [
            ("incumbent", Json.Num r.Hslb.Alloc_model.incumbent_makespan);
            ( "bound",
              Json.Num r.Hslb.Alloc_model.optimum.Hslb.Alloc_model.predicted_makespan );
            ("gap_rel", Json.Num r.Hslb.Alloc_model.gap_rel);
            ("eps", Json.Num eps);
          ] );
    ]

let process_resolve t ~start rq (rj : resolve_job) =
  let rp = rj.rparams in
  let p = rp.Protocol.base in
  match expired_deadline p ~start rq with
  | Some ms -> expire t ~op:"resolve" ~start ms [ rq ]
  | None -> (
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
    | Error msg -> fail t ~op:"resolve" rq ~outcome:"error" msg (tele_of ~start rq)
    | Ok key -> (
      let eps = Option.value rp.Protocol.epsilon ~default:default_epsilon in
      (* the exact optimum decides, whatever solver a re-solve would
         run; the other objectives always pay for the re-solve *)
      let check =
        match p.Protocol.objective with
        | Hslb.Objective.Min_max ->
          Hslb.Alloc_model.reoptimality ~eps ~n_total:p.Protocol.n_total
            ~incumbent:rp.Protocol.prev specs
        | Hslb.Objective.Max_min | Hslb.Objective.Min_sum -> None
      in
      match check with
      | Some r when r.Hslb.Alloc_model.keep ->
        (* the incumbent is within eps of the optimum under the updated
           coefficients: answer from it *)
        let predicted_times =
          List.map2
            (fun (s : Hslb.Alloc_model.spec) n ->
              Json.Num (Hslb.Fitting.predict s.Hslb.Alloc_model.fc.Hslb.Classes.fit n))
            specs
            (Array.to_list rp.Protocol.prev)
        in
        let tele = tele_of ~start ~solve_wall_ms:((now () -. start) *. 1000.) rq in
        locked t (fun () -> t.n_resolve_skipped <- t.n_resolve_skipped + 1);
        finish t ~op:"resolve" rq ~outcome:"ok" ~status:"unchanged"
          ([
             ("resolve", Json.Str "unchanged");
             ("makespan", Json.Num r.Hslb.Alloc_model.incumbent_makespan);
             ( "nodes_per_task",
               Json.Arr
                 (Array.to_list
                    (Array.map (fun n -> Json.Num (float_of_int n)) rp.Protocol.prev)) );
             ("predicted_times", Json.Arr predicted_times);
           ]
          @ certificate_fields ~eps check
          @ policy_fields t rq.hint
          @ [ telemetry_member tele ])
          tele
      | Some _ | None ->
        (* warm-start from the incumbent only when it is admissible
           under the updated model *)
        let warm_start = Option.map (fun _ -> rp.Protocol.prev) check in
        let solved = cached_solve t ~key ~queue_wait:(start -. rq.arrival) ?warm_start p specs in
        locked t (fun () -> t.n_resolved <- t.n_resolved + 1);
        answer_solve t ~op:"resolve" ~start
          ~extra:(fun _ -> ("resolve", Json.Str "resolved") :: certificate_fields ~eps check)
          p specs solved [ rq ]))

let process_sleep t ~start rq dur =
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
  let tele = tele_of ~start ~solve_wall_ms:((now () -. start) *. 1000.) rq in
  finish t ~op:"sleep" rq ~outcome:"ok"
    [
      ("slept_ms", Json.Num tele.solve_wall_ms);
      ("cancelled", Json.Bool (Engine.Cancel.cancelled t.drain_tok));
      telemetry_member tele;
    ]
    tele

let process t job =
  let body () =
    let start = now () in
    match job.work with
    | W_solve sj -> process_solve t ~start job.rq sj
    | W_resolve rj -> process_resolve t ~start job.rq rj
    | W_sleep dur -> process_sleep t ~start job.rq dur
  in
  if not (Obs.Control.enabled ()) then body ()
  else Obs.Span.with_span ~cat:"serve" ~args:[ ("op", op_name job.work) ] "serve.request" body

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
        fail t ~op:(op_name job.work) job.rq ~outcome:"error"
          ("internal error: " ^ Printexc.to_string e)
          (tele_of ~start:(now ()) job.rq));
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

let latency_obj t =
  let summary h = Obs.Metrics.Histogram.(summary_json (summary h)) in
  Json.Obj [ ("queue_wait_ms", summary t.qwait_h); ("solve_ms", summary t.solve_h) ]

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
             ("protocol", Protocol.version_range);
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

let admit t rq work =
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
          t.n_accepted <- t.n_accepted + 1;
          if rq.hint <> None then t.n_policy_hints <- t.n_policy_hints + 1;
          let enqueue () =
            Queue.push { rq; work } t.queue;
            Condition.signal t.nonempty
          in
          (match work with
          | W_solve sj -> (
            match Hashtbl.find_opt t.pending sj.key with
            | Some leader ->
              (* identical instance already queued or solving: attach *)
              leader.followers <- rq :: leader.followers;
              t.n_deduped <- t.n_deduped + 1
            | None ->
              Hashtbl.replace t.pending sj.key sj;
              enqueue ())
          | W_resolve _ | W_sleep _ ->
            (* resolves are never deduped: the observations ride with
               the request, and the certificate decides per-request
               what they mean *)
            enqueue ());
          `Admitted
        end)
  in
  match verdict with
  | `Admitted -> ()
  | `Overloaded ->
    reply_line t rq.reply
      (Protocol.error_response ~v:rq.v ~id:rq.id ~outcome:"overloaded"
         (Printf.sprintf "queue at high-water mark (%d); retry later" t.cfg.queue_limit));
    telemetry_line t ~id:rq.id ~op:(op_name work) ~outcome:"overloaded" ~status:None
      (tele_of ~start:rq.arrival rq)
  | `Draining ->
    reply_line t rq.reply
      (Protocol.error_response ~v:rq.v ~id:rq.id ~outcome:"draining"
         "server is draining; not accepting work")

let submit ?reply t line =
  let reply = Option.value reply ~default:t.emit in
  let { Protocol.id; v; req; _ } = Protocol.parse_line line in
  (* ping, stats and drain are answered inline, without a worker; the
     v1 ping reply is pinned byte-for-byte by tests, and v2 adds the
     protocol advertisement *)
  let inline fields =
    reply_line t reply (Protocol.response ~v ~id (("outcome", Json.Str "ok") :: fields));
    Ok None
  in
  let advertised = if v >= 2 then [ ("protocol", Protocol.version_range) ] else [] in
  let work =
    let ( let* ) = Result.bind in
    let* req = req in
    match req with
    | Protocol.Ping -> inline (("pong", Json.Bool true) :: advertised)
    | Protocol.Stats -> inline (("stats", stats_obj t) :: advertised)
    | Protocol.Drain ->
      initiate_drain t;
      inline [ ("draining", Json.Bool true) ]
    | Protocol.Sleep dur -> Ok (Some (W_sleep dur, None))
    | Protocol.Solve p ->
      let* specs = Protocol.resolve_specs p in
      (* the key wraps the allocation fingerprint with the placement
         fingerprint when a place section rides along; a malformed
         place section (wrong arity, asymmetric traffic, memory
         infeasibility) is rejected here, before any solver work *)
      let* key = solve_key t p specs in
      Ok (Some (W_solve { params = p; specs; key; followers = [] }, p.Protocol.policy))
    | Protocol.Resolve rp ->
      let* specs = Protocol.resolve_specs rp.Protocol.base in
      Ok (Some (W_resolve { rparams = rp; rspecs = specs }, rp.Protocol.base.Protocol.policy))
  in
  match work with
  | Ok None -> ()
  | Ok (Some (work, hint)) -> admit t { id; v; arrival = now (); reply; hint } work
  | Error msg ->
    locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
    reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)
