(* serve_cold and serve_hot: served requests, client -> Serve.Router ->
   one `hslb serve --jobs 1` backend -> solver -> audit -> reply.

   Topology: this process holds the client (the main thread) and an
   in-process Serve.Router whose one reader domain talks to a spawned
   backend over one Unix socket. The backend solves on one worker
   domain. run.py holds this process, and so the backend it spawns, to
   one CPU (see pin there), so the calibration kernel (calib.ml) that
   runs here between segments times the CPU the backend solves on. The
   client is a closed loop with [outstanding] requests in flight, woken
   by a condition variable when a reply lands: an open loop at a fixed
   rate would measure the generator's schedule (the offered rate comes
   back as the throughput), and a polling client caps a cache-hit path
   at a fraction of its capacity. *)

module J = Obs.Json
module R = Serve.Router

let outstanding = 2
let hot_set = 16
let exe = Filename.concat "_build" (Filename.concat "default" "bin/hslb_cli.exe")
let run_dir = ".perfbench"

(* ---------- the backend process ---------- *)

let children = ref []

(* SIGKILL and reap every backend still running; also run at exit *)
let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let () = at_exit kill_children

let spawn ~sock =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--jobs"; "1"; "--listen"; "unix:" ^ sock |]
          devnull devnull Unix.stderr)
  in
  children := pid :: !children;
  pid

(* wait for the backend to exit on its own (it drains and exits after
   the router's drain), SIGKILL it past [grace_s] *)
let reap ~grace_s pid =
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
  in
  (try wait () with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  children := List.filter (( <> ) pid) !children

type fleet = { pid : int; router : R.t; events : string list ref }

(* router event lines (backend deaths and the like) are kept, not
   printed: stdout carries the report *)
let attach ~pid ~sock =
  let events = ref [] in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    match
      R.create
        ~events:(fun l -> events := l :: !events)
        [ R.Attach { name = "backend-0"; addr = Serve.Transport_socket.Unix_path sock } ]
    with
    | router -> { pid; router; events }
    | exception Failure msg ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("backend exited during start-up: " ^ msg));
      if Unix.gettimeofday () > deadline then failwith msg;
      Unix.sleepf 0.001;
      go ()
  in
  go ()

let drain fleet =
  ignore (R.await_drain fleet.router);
  reap ~grace_s:10. fleet.pid

(* ---------- the closed-loop client ---------- *)

type window = {
  sent : int;  (** op i carries request id i *)
  t_submit : float array;  (** by op index *)
  in_submit_s : float array;  (** time spent inside Router.submit, by op index *)
  chunks : Buffer.t array;  (** every answer line, back to back, in arrival order *)
  answer_chunk : float array;  (** chunk holding answer k *)
  answer_end : float array;  (** end offset of answer k in its chunk *)
  answer_at : float array;  (** arrival time of answer k *)
  gc_alloc_mb : float;
  gc_majors : float;
}

let answer w k =
  let chunk = int_of_float w.answer_chunk.(k) in
  let start =
    if k = 0 || int_of_float w.answer_chunk.(k - 1) <> chunk then 0
    else int_of_float w.answer_end.(k - 1)
  in
  ( w.answer_at.(k),
    Buffer.sub w.chunks.(chunk) start (int_of_float w.answer_end.(k) - start) )

let chunk_bytes = 1 lsl 20

(* Send [line_of i] for i = 0, 1, ... keeping [outstanding]
   requests in flight while [more i] holds, then wait for every answer.
   The router answers every submitted line (an error if its backend
   dies), so the waits end.

   Answers are copied into 1 MiB chunks as they land, not kept as
   strings: ~200k live strings made the client's own major GC show up
   in the tail it measures, and one growing buffer stalled the reader
   for ~70 ms each time it doubled. *)
let closed_loop router ~line_of ~more =
  let m = Mutex.create () and c = Condition.create () in
  let inflight = ref 0 in
  let full = ref [] and cur = ref (Buffer.create chunk_bytes) and n_full = ref 0 in
  let answer_chunk = Stats.Buf.create ()
  and answer_end = Stats.Buf.create ()
  and answer_at = Stats.Buf.create () in
  let sink line =
    let t = Obs.Clock.now_s () in
    Mutex.lock m;
    if Buffer.length !cur + String.length line > chunk_bytes && Buffer.length !cur > 0 then begin
      full := !cur :: !full;
      incr n_full;
      cur := Buffer.create chunk_bytes
    end;
    Buffer.add_string !cur line;
    Stats.Buf.push answer_chunk (float_of_int !n_full);
    Stats.Buf.push answer_end (float_of_int (Buffer.length !cur));
    Stats.Buf.push answer_at t;
    decr inflight;
    Condition.signal c;
    Mutex.unlock m
  in
  let t_submit = Stats.Buf.create () and in_submit = Stats.Buf.create () in
  let g0 = Gc.quick_stat () in
  let rec loop i =
    Mutex.lock m;
    while !inflight >= outstanding do
      Condition.wait c m
    done;
    if more i then begin
      incr inflight;
      Mutex.unlock m;
      let line = line_of i in
      let t0 = Obs.Clock.now_s () in
      R.submit router ~reply:sink line;
      let t1 = Obs.Clock.now_s () in
      Stats.Buf.push t_submit t0;
      Stats.Buf.push in_submit (t1 -. t0);
      loop (i + 1)
    end
    else begin
      while !inflight > 0 do
        Condition.wait c m
      done;
      Mutex.unlock m;
      i
    end
  in
  let sent = loop 0 in
  let g1 = Gc.quick_stat () in
  let gc_alloc_mb, gc_majors = Report.gc_delta g0 g1 in
  {
    sent;
    t_submit = Stats.Buf.to_array t_submit;
    in_submit_s = Stats.Buf.to_array in_submit;
    chunks = Array.of_list (List.rev (!cur :: !full));
    answer_chunk = Stats.Buf.to_array answer_chunk;
    answer_end = Stats.Buf.to_array answer_end;
    answer_at = Stats.Buf.to_array answer_at;
    gc_alloc_mb;
    gc_majors;
  }

(* one request through the router, waiting for its answer *)
let request router line =
  let w = closed_loop router ~line_of:(fun _ -> line) ~more:(fun i -> i = 0) in
  snd (answer w 0)

(* ---------- workloads ---------- *)

(* A served workload cycles a fixed corpus of instances from a start the
   workload seed picks. Solve cost is heavy-tailed: an instance whose
   root NLP runs to its iteration cap costs ~30x a typical one, and a
   run's p99 is set by the few worst instances it meets. With instances
   drawn from the seed, the cold p99 followed the seed (seed 6 read
   340-350 ms in two sets, seed 4 232-249 ms; spread 0.2 over ten
   seeds), and 16 seed-drawn hot instances made the priming pass in
   setup_s vary 7x (0.11-0.76 s over seeds 1-10). A fixed corpus,
   timed in whole passes, leaves only the host's noise. *)
type workload = {
  name : string;
  corpus : Gen.instance array;  (** generated once, from seed 0 *)
  rot : int;  (** op i sends corpus.((i + rot) mod size) *)
  prime : bool;  (** one pass over the corpus in set-up, before timing *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  segment_s : float;
      (** the window runs in segments of whole passes lasting at least
          this long, each followed by a calibration sample *)
}

let instance wl i = wl.corpus.((i + wl.rot) mod Array.length wl.corpus)

let corpus_workload ~name ~size ~seed ~prime ~setups ~segment_s =
  {
    name;
    corpus = Array.init size (fun index -> Gen.instance ~seed:0 ~stream:name ~index);
    rot = ((seed mod size) + size) mod size;
    prime;
    setups;
    segment_s;
  }

(* 200 instances cycled, ~1.6x the backend's 128-entry LRU: each request
   finds its instance evicted since it last came round, so every request
   misses the cache and every insert evicts. A pass takes 5-7 s, so a
   50 s window holds 8-10 whole passes (>= 1500 requests), each followed
   by a calibration sample. *)
let cold ~seed =
  corpus_workload ~name:"serve_cold" ~size:200 ~seed ~prime:false ~setups:15 ~segment_s:0.

(* 16 instances cycled after a priming pass: every timed request hits
   the cache, so the solver does no work. A 50 s window holds ~350k
   requests, in ~20 segments of ~2.5 s. Run by hand only (see
   README.md). *)
let hot ~seed =
  corpus_workload ~name:"serve_hot" ~size:hot_set ~seed ~prime:true ~setups:5 ~segment_s:2.5

(* "{"id":<i>" ^ rest: the request for op i, built by concatenation so
   the client's own cost per request stays small *)
let line_maker wl =
  let tails =
    Array.map
      (fun inst ->
        let full = Gen.request_line ~id:0 inst in
        String.sub full 7 (String.length full - 7))
      wl.corpus
  in
  fun i -> "{\"id\":" ^ string_of_int i ^ tails.((i + wl.rot) mod Array.length tails)

let digest ~seed wl =
  Gen.digest
    (Printf.sprintf "%s seed %d" wl.name seed
    :: List.init (Array.length wl.corpus) (fun i -> Gen.request_line ~id:i (instance wl i)))

(* ---------- per-op results ---------- *)

type op = {
  idx : int;  (** op index within its window *)
  latency_ms : float;  (** Router.submit call to reply callback *)
  in_submit_ms : float;
  verdict : (float, string) result;  (** the re-derived makespan when correct *)
  queue_wait_ms : float;
  solve_ms : float;
  cache_hit : bool;
}

(* Match each answer to its op, check it, and list the ops that never
   got one. Checking happens after the window, so it costs the timed
   loop nothing. *)
let results wl (w : window) =
  let seen = Array.make w.sent false in
  let tele r k = Option.bind (J.member "telemetry" r) (J.member k) in
  let ops, stray =
    List.fold_left
      (fun (ops, stray) k ->
        let t, line = answer w k in
        match J.parse line with
        | Ok r -> (
          match Option.bind (J.member "id" r) J.int_ with
          | Some i when i >= 0 && i < w.sent && not seen.(i) ->
            seen.(i) <- true;
            let inst = instance wl i in
            let num k = Option.value (Option.bind (tele r k) J.num) ~default:nan in
            let op =
              {
                idx = i;
                latency_ms = (t -. w.t_submit.(i)) *. 1000.;
                in_submit_ms = w.in_submit_s.(i) *. 1000.;
                verdict = Check.served_reply inst r;
                queue_wait_ms = num "queue_wait_ms";
                solve_ms = num "solve_wall_ms";
                cache_hit = tele r "cache_hit" = Some (J.Bool true);
              }
            in
            (op :: ops, stray)
          | Some _ | None -> (ops, ("unmatched answer: " ^ line) :: stray))
        | Error e -> (ops, ("unparseable answer: " ^ e) :: stray))
      ([], [])
      (List.init (Array.length w.answer_at) Fun.id)
  in
  let missing =
    List.filter_map
      (fun i -> if seen.(i) then None else Some (Printf.sprintf "op %d: no answer" i))
      (List.init w.sent Fun.id)
  in
  let ops = List.sort (fun a b -> compare a.idx b.idx) ops in
  let failures =
    List.filter_map
      (fun o ->
        match o.verdict with
        | Ok _ -> None
        | Error e -> Some (Printf.sprintf "op %d: %s" o.idx e))
      ops
    @ missing @ stray
  in
  (ops, failures)

(* ---------- set-up ---------- *)

let sock_path k = Filename.concat run_dir (Printf.sprintf "b%d-%d.sock" (Unix.getpid ()) k)

(* Spawn and attach a backend, then (serve_hot) prime its cache with one
   pass over the hot set. Returns the fleet, the set-up wall, and the
   priming requests' failures and count: they are checked like any op. *)
let set_up wl k =
  let t0 = Obs.Clock.now_s () in
  let sock = sock_path k in
  let pid = spawn ~sock in
  let fleet = attach ~pid ~sock in
  let primed =
    if wl.prime then
      Some
        (closed_loop fleet.router ~line_of:(line_maker wl) ~more:(fun i ->
             i < Array.length wl.corpus))
    else None
  in
  let t1 = Obs.Clock.now_s () in
  match primed with
  | None -> (fleet, t1 -. t0, [], 0)
  | Some w -> (fleet, t1 -. t0, snd (results wl w), w.sent)

(* set up [wl.setups] times and keep the last fleet; setup_s is the
   median *)
let set_up_all wl =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rec go k walls failures sent =
    let fleet, dt, f, n = set_up wl k in
    let walls = dt :: walls and failures = failures @ f and sent = sent + n in
    if k + 1 < wl.setups then begin
      drain fleet;
      go (k + 1) walls failures sent
    end
    else (fleet, Array.of_list walls, failures, sent)
  in
  go 0 [] [] 0

(* the backend's own counters, via the stats op fanned out by the router *)
let backend_stats fleet =
  let line = request fleet.router "{\"id\":\"stats\",\"op\":\"stats\"}" in
  match Result.map (fun r -> Option.bind (J.member "stats" r) (J.member "backends")) (J.parse line) with
  | Ok (Some b) -> (
    match J.member "backend-0" b with Some s -> s | None -> failwith ("stats: " ^ line))
  | Ok None | Error _ -> failwith ("stats: " ^ line)

let stat path v =
  let rec go v = function
    | [] -> J.num v
    | k :: rest -> Option.bind (J.member k v) (fun x -> go x rest)
  in
  match go v path with
  | Some x -> x
  | None -> failwith ("stats: no " ^ String.concat "." path)

(* ---------- the timed window ---------- *)

(* Whole passes over the corpus for about [seconds], so every run times
   each instance equally often and the mix cannot move a figure. The
   passes run in segments (one closed loop each, request ids from 0,
   every pass from the same corpus entry) of at least [wl.segment_s]; a
   calibration sample precedes the first segment and follows each one,
   while no request is in flight. A further segment starts only if the
   last one fits in the time left. *)
let window fleet wl ~seconds ~calib =
  let size = Array.length wl.corpus in
  let start = Obs.Clock.now_s () in
  Calib.sample calib;
  let rec segments acc =
    let s0 = Obs.Clock.now_s () in
    let w =
      closed_loop fleet.router ~line_of:(line_maker wl) ~more:(fun i ->
          i = 0 || i mod size <> 0 || Obs.Clock.now_s () -. s0 < wl.segment_s)
    in
    Calib.sample calib;
    let now = Obs.Clock.now_s () in
    if now -. start +. (now -. s0) <= seconds then segments (w :: acc) else List.rev (w :: acc)
  in
  segments []

(* from the first submit to the last answer of [ops] *)
let span_s (w : window) ops =
  let t0 = Array.fold_left (fun acc o -> Float.min acc w.t_submit.(o.idx)) infinity ops in
  let t1 =
    Array.fold_left
      (fun acc o -> Float.max acc (w.t_submit.(o.idx) +. (o.latency_ms /. 1000.)))
      t0 ops
  in
  t1 -. t0

let col f ops = Array.of_list (List.map f ops)

(* mean over the correctly answered requests of the makespan each got,
   as the benchmark re-derived it from the request's own laws *)
let mean_makespan ops =
  let xs = List.filter_map (fun o -> Result.to_option o.verdict) ops in
  (Stats.mean (Array.of_list xs), List.length xs)

(* ---------- layer probes (traced run only) ---------- *)

(* mean microseconds per call of [f] over [xs], repeating passes for at
   least 0.2 s so a call far below the clock's resolution still reads *)
let per_call_us f xs =
  let n = Array.length xs in
  let calls = ref 0 in
  let t0 = Obs.Clock.now_s () in
  while Obs.Clock.now_s () -. t0 < 0.2 do
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    calls := !calls + n
  done;
  (Obs.Clock.now_s () -. t0) /. float_of_int !calls *. 1e6

let solve_params line =
  match (Serve.Protocol.parse_line line).Serve.Protocol.req with
  | Ok (Serve.Protocol.Solve p) -> p
  | Ok _ | Error _ -> failwith ("not a solve request: " ^ line)

let specs_of p =
  match Serve.Protocol.resolve_specs p with Ok s -> s | Error e -> failwith e

(* The solver work behind one pass over the corpus, counted exactly:
   every instance re-solved in this process the way the backend solves
   it (oa, min-max), with a tally attached, then audited the way the
   backend audits. *)
let counter_probe wl =
  let tally = Engine.Telemetry.create () in
  let audit_s = ref 0. in
  Array.iteri
    (fun i inst ->
      let p = solve_params (Gen.request_line ~id:i inst) in
      let specs = specs_of p in
      match
        Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa
          ~objective:p.Serve.Protocol.objective ~trace:tally ~n_total:p.Serve.Protocol.n_total
          specs
      with
      | Error st -> failwith ("counter re-solve: " ^ Minlp.Solution.status_to_string st)
      | Ok alloc -> (
        let t0 = Obs.Clock.now_s () in
        let problem, _, _ =
          Hslb.Alloc_model.build_minlp ~objective:p.Serve.Protocol.objective
            ~n_total:p.Serve.Protocol.n_total specs
        in
        let verdict =
          Option.map (Audit.check_minlp problem) alloc.Hslb.Alloc_model.certificate
        in
        audit_s := !audit_s +. (Obs.Clock.now_s () -. t0);
        match verdict with
        | Some (Ok ()) -> ()
        | Some (Error _ as v) -> failwith ("counter re-solve: audit " ^ Audit.summary v)
        | None -> failwith "counter re-solve: no certificate"))
    wl.corpus;
  (tally, !audit_s /. float_of_int (Array.length wl.corpus))

(* ---------- the run ---------- *)

(* Both kinds of run time the same window. A traced run then adds the
   per-layer probes; it does not switch Obs on, because no span is
   opened on this path: the router opens none, and the spawned backend
   has no way to enable tracing. *)
let run wl ~seed ~seconds ~traced =
  let fleet, setup_walls, prime_failures, prime_sent = set_up_all wl in
  let setup_s = Stats.median setup_walls in
  let calib = Calib.create () in
  let segs = window fleet wl ~seconds ~calib in
  let stats = backend_stats fleet in
  let rss = Report.peak_rss_mb (string_of_int fleet.pid) in
  drain fleet;
  (* segment k ran between calibration samples k and k + 1 *)
  let checked = List.mapi (fun k w -> (w, results wl w, Calib.between calib k)) segs in
  let ops = List.concat_map (fun (_, (ops, _), _) -> ops) checked in
  let failures = prime_failures @ List.concat_map (fun (_, (_, f), _) -> f) checked in
  let sent = List.fold_left (fun a (w : window) -> a + w.sent) 0 segs in
  let attempted = prime_sent + sent in
  let failed = min attempted (List.length failures) in
  let nops = List.length ops in
  let hits = List.length (List.filter (fun o -> o.cache_hit) ops) in
  (* latency and throughput over the whole window, as measured and at
     the reference speed; the time between segments, spent calibrating,
     is not in them *)
  let lat = col (fun o -> o.latency_ms) ops in
  let p50 = Stats.percentile lat 50 and p99 = Stats.percentile lat 99 in
  let busy_s ~at_ref =
    List.fold_left
      (fun a (w, (ops, _), sc) -> a +. (span_s w (Array.of_list ops) *. if at_ref then sc else 1.))
      0. checked
  in
  let thr = float_of_int nops /. busy_s ~at_ref:false in
  let lat_ref =
    Array.of_list
      (List.concat_map (fun (_, (ops, _), sc) -> List.map (fun o -> o.latency_ms *. sc) ops) checked)
  in
  let n = Printf.sprintf "n=%d requests" nops in
  let notes =
    [
      Printf.sprintf "set-up walls %s s; %d priming requests"
        (String.concat "/" (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_walls)))
        prime_sent;
      Printf.sprintf "timed window: %d requests in %d segments, %d passes over %d instances" sent
        (List.length segs) (sent / Array.length wl.corpus) (Array.length wl.corpus);
      Printf.sprintf "as measured: setup %.6f s; p50 %.4f p90 %.4f p99 %.4f max %.4f ms, %.2f/s"
        setup_s p50 (Stats.percentile lat 90) p99 (Stats.percentile lat 100) thr;
      Calib.note calib;
      Printf.sprintf "cache (reply flags, timed ops): hits %d, misses %d" hits (nops - hits);
      Printf.sprintf "backend stats: accepted %.0f served %.0f protocol_errors %.0f cache hits %.0f misses %.0f length %.0f"
        (stat [ "accepted" ] stats) (stat [ "served" ] stats) (stat [ "protocol_errors" ] stats)
        (stat [ "cache"; "hits" ] stats) (stat [ "cache"; "misses" ] stats)
        (stat [ "cache"; "length" ] stats);
    ]
    @ List.rev !(fleet.events)
  in
  let report metrics section =
    {
      Report.workload = wl.name;
      seed;
      traced;
      digest = digest ~seed wl;
      notes;
      metrics = Report.complete section metrics;
      attempted;
      failed;
      failures = List.filteri (fun i _ -> i < 10) failures;
    }
  in
  if not traced then begin
    let ms, answered = mean_makespan ops in
    let at_ref = ", at reference speed" in
    report
      [
        Report.m "setup_s" "s" (setup_s *. Calib.scale calib)
          (Printf.sprintf "median of %d set-ups%s" wl.setups at_ref);
        Report.m "latency_p50_ms" "ms" (Stats.percentile lat_ref 50) (n ^ at_ref);
        Report.m "latency_p99_ms" "ms" (Stats.percentile lat_ref 99) (n ^ at_ref);
        Report.m "throughput_per_s" "1/s" (float_of_int nops /. busy_s ~at_ref:true) (n ^ at_ref);
        Report.m "ok_frac" "ratio"
          (float_of_int (attempted - failed) /. float_of_int attempted)
          (Printf.sprintf "n=%d requests incl. priming" attempted);
        Report.m "peak_rss_mb" "MiB" rss "VmHWM of the hslb serve backend";
        Report.m "sim_makespan_s" "s" ms (Printf.sprintf "mean over %d answered requests" answered);
      ]
      "end_to_end"
  end
  else begin
    let basis = Printf.sprintf "per request, %d timed requests" nops in
    let mean f = Stats.mean (col f ops) in
    let size = Array.length wl.corpus in
    let lines = Array.init size (fun i -> Gen.request_line ~id:i wl.corpus.(i)) in
    let params = Array.map solve_params lines in
    let specs = Array.map specs_of params in
    let keys =
      Array.mapi
        (fun i p ->
          match Serve.Protocol.solve_key p specs.(i) with Ok k -> k | Error e -> failwith e)
        params
    in
    let ring = Serve.Ring.make [ "backend-0" ] in
    let replies =
      let w = List.hd segs in
      Array.init (min 100 (Array.length w.answer_at)) (fun k ->
          match J.parse (snd (answer w k)) with Ok r -> r | Error e -> failwith e)
    in
    let tally, audit_s = counter_probe wl in
    let f = float_of_int in
    let exact = Printf.sprintf "total over one pass, %d instances (exact)" size in
    let phase label =
      Option.value (List.assoc_opt label (Engine.Telemetry.phases tally)) ~default:0. /. f size
    in
    let per_instance = Printf.sprintf "per instance, %d re-solved in-process" size in
    report
      [
        Report.m "engine.master_s" "s" (phase "master") per_instance;
        Report.m "engine.root_nlp_s" "s" (phase "root-nlp") per_instance;
        Report.m "engine.presolve_s" "s" (phase "presolve") per_instance;
        Report.m "minlp.nodes_expanded" "count" (f tally.nodes_expanded) exact;
        Report.m "minlp.nodes_pruned" "count" (f tally.nodes_pruned) exact;
        Report.m "minlp.oa_cuts" "count" (f tally.oa_cuts) exact;
        Report.m "lp.solves" "count" (f tally.lp_solves) exact;
        Report.m "lp.pivots" "count" (f tally.simplex_pivots) exact;
        Report.m "lp.pivots_per_node" "ratio"
          (f tally.simplex_pivots /. f (max 1 tally.nodes_expanded))
          exact;
        Report.m "nlp.solves" "count" (f tally.nlp_solves) exact;
        Report.m "nlp.iterations" "count" (f tally.nlp_iterations) exact;
        Report.m "nlp.line_search_steps" "count" (f tally.line_search_steps) exact;
        Report.m "gc.alloc_mb" "MiB"
          (List.fold_left (fun a (w : window) -> a +. w.gc_alloc_mb) 0. segs /. f sent)
          (basis ^ ", client + router");
        Report.m "gc.major_collections" "count"
          (List.fold_left (fun a (w : window) -> a +. w.gc_majors) 0. segs /. f sent)
          basis;
        Report.m "serve.router.submit_us" "us"
          (mean (fun o -> o.in_submit_ms) *. 1000.)
          (basis ^ ", time inside Router.submit");
        Report.m "serve.ring.shard_us" "us" (per_call_us (Serve.Ring.shard ring) keys) "per call";
        Report.m "serve.protocol.parse_us" "us" (per_call_us Serve.Protocol.parse_line lines)
          "per call";
        Report.m "serve.protocol.specs_us" "us" (per_call_us Serve.Protocol.resolve_specs params)
          "per call";
        Report.m "serve.protocol.key_us" "us"
          (per_call_us (fun i -> Serve.Protocol.solve_key params.(i) specs.(i))
             (Array.init size Fun.id))
          "per call";
        Report.m "serve.protocol.encode_us" "us" (per_call_us J.to_string replies)
          "per call, captured replies";
        Report.m "serve.server.queue_wait_ms" "ms"
          (Stats.median (col (fun o -> o.queue_wait_ms) ops))
          (basis ^ ", p50 of reply telemetry");
        Report.m "serve.server.solve_ms" "ms"
          (Stats.median (col (fun o -> o.solve_ms) ops))
          (basis ^ ", p50 of reply telemetry");
        Report.m "serve.server.accepted" "count" (stat [ "accepted" ] stats) "stats op, backend lifetime";
        Report.m "serve.server.served" "count" (stat [ "served" ] stats) "stats op, backend lifetime";
        Report.m "serve.server.protocol_errors" "count" (stat [ "protocol_errors" ] stats)
          "stats op, backend lifetime";
        Report.m "runtime.cache.hit_ratio" "ratio" (f hits /. f nops) "reply cache_hit flags";
        Report.m "runtime.cache.hits" "count" (f hits) "timed requests";
        Report.m "runtime.cache.misses" "count" (f (nops - hits)) "timed requests";
        Report.m "runtime.cache.length" "count" (stat [ "cache"; "length" ] stats) "stats op";
        Report.m "audit.check_us" "us" (audit_s *. 1e6)
          (per_instance ^ ", build_minlp + check_minlp");
        Report.m "serve.unattributed_ms" "ms"
          (mean (fun o -> o.latency_ms -. o.in_submit_ms -. o.queue_wait_ms -. o.solve_ms))
          (basis ^ ", latency - submit - queue wait - solve");
        Report.m "obs.tracing_overhead" "ratio" 0.
          "not on this path: the spawned backend cannot be traced, the router opens no span";
      ]
      "per_layer"
  end
