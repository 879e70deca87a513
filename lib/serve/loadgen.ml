(* Trace replay against a serving endpoint — the measurement half of
   the fleet work. A deterministic trace (seeded LCG; no wall-clock or
   global RNG state) cycles [distinct] solve instances with optional
   sleep, tiny-deadline (expiry-provoking) and burst elements; [run]
   replays it over a socket or straight into an in-process handler,
   tracking per-request latency and outcome; [fleet_bench] replays the
   same trace against a 1-backend and an N-backend fleet and reports
   the throughput ratio. On a single core the fleet's edge is cache
   locality, not parallelism: [distinct] keys cycled through one
   backend whose LRU holds fewer than [distinct] entries thrash (the
   LRU evicts each key just before it comes round again), while the
   same keys sharded across N backends fit each shard's cache and
   stay hot. *)

type trace_spec = {
  requests : int;
  distinct : int;  (* distinct solve instances, cycled *)
  classes : int;  (* fragment classes per instance *)
  nodes : int;  (* total node budget per instance *)
  sleep_every : int;  (* every k-th request is a sleep; 0 = never *)
  sleep_ms : float;
  expire_every : int;  (* every k-th solve carries a tiny deadline; 0 = never *)
  tiny_deadline_ms : float;
  deadline_ms : float option;  (* deadline on ordinary solves *)
  seed : int;
}

let default_spec () =
  {
    requests = 200;
    distinct = 48;
    classes = 3;
    nodes = 16;
    sleep_every = 0;
    sleep_ms = 5.;
    expire_every = 0;
    tiny_deadline_ms = 0.01;
    deadline_ms = None;
    seed = 1;
  }

(* deterministic, cheap; quality is irrelevant — only spread is *)
let lcg state =
  let s = Int64.add (Int64.mul 6364136223846793005L !state) 1442695040888963407L in
  state := s;
  Int64.to_int (Int64.shift_right_logical s 33)

let instance_csv spec k =
  let state = ref (Int64.of_int ((spec.seed * 1_000_003) + k)) in
  String.concat "\n"
    (List.init spec.classes (fun c ->
         let count = 1 + (lcg state mod 4) in
         let a = float_of_int (50 + (lcg state mod 100)) in
         let b = 0.001 +. (float_of_int (lcg state mod 100) /. 10_000.) in
         let c_ = 1. +. (float_of_int (lcg state mod 30) /. 10.) in
         let d = float_of_int (lcg state mod 10) /. 10. in
         Printf.sprintf "class%d-%d,%d,%g,%g,%g,%g" k c count a b c_ d))

(* the request lines, ids left to [run]. Every solve names oa: the
   trace measures cache locality and admission under expensive solves,
   which the microsecond default solver would not exercise. *)
let make_trace spec =
  if spec.requests < 1 then invalid_arg "Loadgen.make_trace: requests must be >= 1";
  if spec.distinct < 1 then invalid_arg "Loadgen.make_trace: distinct must be >= 1";
  let csvs = Array.init spec.distinct (instance_csv spec) in
  List.init spec.requests (fun i ->
      if spec.sleep_every > 0 && i mod spec.sleep_every = spec.sleep_every - 1 then
        Json.Obj [ ("op", Json.Str "sleep"); ("ms", Json.Num spec.sleep_ms) ]
      else begin
        let k = i mod spec.distinct in
        let deadline =
          if spec.expire_every > 0 && i mod spec.expire_every = spec.expire_every - 1
          then Some spec.tiny_deadline_ms
          else spec.deadline_ms
        in
        Json.Obj
          ([
             ("op", Json.Str "solve");
             ("model_csv", Json.Str csvs.(k));
             ("nodes", Json.Num (float_of_int spec.nodes));
             ("solver", Json.Str "oa");
           ]
          @ match deadline with Some d -> [ ("deadline_ms", Json.Num d) ] | None -> []
          )
      end)

(* ---------- arena scenario replay ---------- *)

(* a task cost becomes a solve instance by bucketing the cost to the
   nearest power of two: a scenario's hundreds of tasks then cycle a
   bounded set of distinct fingerprints, so the server's optimum cache
   sees the same reuse pattern real traffic would *)
let scenario_instance_csv cost =
  let b = int_of_float (Float.round (Float.log2 (Float.max 1e-3 cost))) in
  let scale = Float.pow 2. (float_of_int b) in
  Printf.sprintf "frag-p%+03d,2,%g,0.001,1.2,0.2" b (50. *. scale)

let trace_of_scenario (sc : Arena.Scenario.t) =
  let nodes = sc.Arena.Scenario.groups * sc.Arena.Scenario.nodes_per_group in
  let policy = Arena.Scenario.class_to_string sc.Arena.Scenario.cls in
  List.concat_map
    (fun (p : Arena.Scenario.phase) ->
      let gap =
        if p.Arena.Scenario.gap_s > 0. then
          [
            Json.Obj
              [
                ("op", Json.Str "sleep");
                ("ms", Json.Num (p.Arena.Scenario.gap_s *. 1000.));
              ];
          ]
        else []
      in
      gap
      @ List.map
          (fun cost ->
            Json.Obj
              [
                ("op", Json.Str "solve");
                ("model_csv", Json.Str (scenario_instance_csv cost));
                ("nodes", Json.Num (float_of_int nodes));
                ("policy", Json.Str policy);
              ])
          (Array.to_list p.Arena.Scenario.costs))
    (Array.to_list sc.Arena.Scenario.phases)

(* ---------- replay ---------- *)

type endpoint =
  | Net of Transport_socket.addr
  | Inproc of (reply:(string -> unit) -> string -> unit)

type run_result = {
  label : string;
  requests : int;
  answered : int;
  wall_s : float;
  throughput_rps : float;
  outcomes : (string * int) list;  (* outcome -> count, sorted *)
  cache_hits : int;
  audits : (string * int) list;  (* audit verdict -> replies, in [verdicts] order *)
  malformed : int;  (* reply lines that do not parse *)
  latency : Obs.Metrics.Histogram.summary;  (* ms, send to answer *)
  server_stats : Json.t;  (* final stats op answer, Null if unavailable *)
}

let verdicts = [ "verified"; "exact-method"; "rejected" ]

(* a reply's "audit" string by its verdict: a pass names its label
   first ("verified (exact)", "exact-method (hslb.greedy)"); anything
   else ("REJECTED: ...", "no certificate emitted") did not pass *)
let verdict_of audit =
  if String.starts_with ~prefix:"verified (" audit then "verified"
  else if String.starts_with ~prefix:"exact-method (" audit then "exact-method"
  else "rejected"

let with_endpoint endpoint f =
  match endpoint with
  | Inproc submit ->
    (* replies land synchronously-ish via the sink; no reader needed *)
    let send ~on_line line =
      submit ~reply:on_line line;
      true
    in
    f ~send ~finish:(fun () -> ())
  | Net addr ->
    let client = Transport_socket.Client.connect addr in
    let on_line_cell = ref (fun (_ : string) -> ()) in
    let stop = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let rec loop () =
            match Transport_socket.Client.recv client with
            | `Line l ->
              !on_line_cell l;
              loop ()
            | `Timeout -> if Atomic.get stop then () else loop ()
            | `Eof -> ()
          in
          loop ())
    in
    let send ~on_line line =
      on_line_cell := on_line;
      Transport_socket.Client.send client line
    in
    let finish () =
      Atomic.set stop true;
      Domain.join reader;
      Transport_socket.Client.close client
    in
    Fun.protect ~finally:finish (fun () -> f ~send ~finish:(fun () -> ()))

let run ?(label = "run") ?rate_rps ?(window = 16) ?(timeout_s = 120.)
    ?(drain_at_end = false) endpoint trace =
  let n = List.length trace in
  let send_t = Array.make (n + 2) 0. in
  let lat_h = Obs.Metrics.Histogram.create ~lo:1e-3 ~hi:1e7 "loadgen_latency_ms" in
  let lock = Mutex.create () in
  let outcomes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let cache_hits = ref 0 in
  let audits = Hashtbl.create 4 and malformed = ref 0 in
  let n_done = Atomic.make 0 in
  let server_stats = ref Json.Null in
  let record line =
    match Json.parse line with
    | Error _ ->
      Mutex.lock lock;
      incr malformed;
      Mutex.unlock lock
    | Ok v -> (
      match Option.bind (Json.member "id" v) Json.int_ with
      | None -> ()  (* event line (e.g. drained) *)
      | Some i when i >= 0 && i < n ->
        (* only the trace itself is measured; the stats/drain probes
           ride after the window and must not skew the quantiles *)
        Obs.Metrics.Histogram.observe lat_h
          ((Unix.gettimeofday () -. send_t.(i)) *. 1000.);
        Mutex.lock lock;
        (match Json.member "outcome" v with
        | Some (Json.Str o) ->
          Hashtbl.replace outcomes o
            (1 + Option.value (Hashtbl.find_opt outcomes o) ~default:0)
        | Some _ | None -> ());
        (match Option.bind (Json.member "telemetry" v) (Json.member "cache_hit") with
        | Some (Json.Bool true) -> incr cache_hits
        | _ -> ());
        Option.iter
          (fun a ->
            let k = verdict_of a in
            Hashtbl.replace audits k (1 + Option.value (Hashtbl.find_opt audits k) ~default:0))
          (Option.bind (Json.member "audit" v) Json.str);
        Mutex.unlock lock;
        Atomic.incr n_done
      | Some i when i = n ->
        Mutex.lock lock;
        server_stats := Option.value (Json.member "stats" v) ~default:Json.Null;
        Mutex.unlock lock;
        Atomic.incr n_done
      | Some i when i = n + 1 -> Atomic.incr n_done
      | Some _ -> ())
  in
  with_endpoint endpoint (fun ~send ~finish:_ ->
      let started = Unix.gettimeofday () in
      let interval = match rate_rps with Some r when r > 0. -> 1. /. r | _ -> 0. in
      let await_done target deadline =
        while Atomic.get n_done < target && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.0005
        done
      in
      List.iteri
        (fun i fields ->
          (* pace to the target rate, and cap the in-flight window *)
          let due = started +. (interval *. float_of_int i) in
          let rec hold () =
            let now = Unix.gettimeofday () in
            if now < due then Unix.sleepf (Float.min 0.001 (due -. now))
            else if i - Atomic.get n_done >= window then Unix.sleepf 0.0005
            else ();
            if Unix.gettimeofday () < due || i - Atomic.get n_done >= window then
              hold ()
          in
          hold ();
          let line =
            match fields with
            | Json.Obj fs -> Json.to_string (Json.Obj (("id", Json.Num (float_of_int i)) :: fs))
            | other -> Json.to_string other
          in
          send_t.(i) <- Unix.gettimeofday ();
          ignore (send ~on_line:record line : bool))
        trace;
      await_done n (started +. timeout_s);
      let wall = Unix.gettimeofday () -. started in
      let answered = Int.min (Atomic.get n_done) n in
      (* the measured window ends here; stats and drain ride after *)
      send_t.(n) <- Unix.gettimeofday ();
      ignore
        (send ~on_line:record
           (Json.to_string
              (Json.Obj [ ("id", Json.Num (float_of_int n)); ("op", Json.Str "stats") ]))
          : bool);
      await_done (n + 1) (Unix.gettimeofday () +. 10.);
      if drain_at_end then begin
        send_t.(n + 1) <- Unix.gettimeofday ();
        ignore
          (send ~on_line:record
             (Json.to_string
                (Json.Obj
                   [ ("id", Json.Num (float_of_int (n + 1))); ("op", Json.Str "drain") ]))
            : bool);
        await_done (n + 2) (Unix.gettimeofday () +. 15.)
      end;
      {
        label;
        requests = n;
        answered;
        wall_s = wall;
        throughput_rps = (if wall > 0. then float_of_int answered /. wall else 0.);
        outcomes =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        cache_hits = !cache_hits;
        audits =
          List.map (fun k -> (k, Option.value (Hashtbl.find_opt audits k) ~default:0)) verdicts;
        malformed = !malformed;
        latency = Obs.Metrics.Histogram.summary lat_h;
        server_stats = !server_stats;
      })

(* ---------- JSON ---------- *)

let result_json r =
  Json.Obj
    [
      ("label", Json.Str r.label);
      ("requests", Json.Num (float_of_int r.requests));
      ("answered", Json.Num (float_of_int r.answered));
      ("wall_s", Json.Num r.wall_s);
      ("throughput_rps", Json.Num r.throughput_rps);
      ( "outcomes",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) r.outcomes)
      );
      ("cache_hits", Json.Num (float_of_int r.cache_hits));
      ("audits", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) r.audits));
      ("malformed", Json.Num (float_of_int r.malformed));
      ("latency_ms", Obs.Metrics.Histogram.summary_json r.latency);
      ("server_stats", r.server_stats);
    ]

let spec_json (s : trace_spec) =
  Json.Obj
    [
      ("requests", Json.Num (float_of_int s.requests));
      ("distinct", Json.Num (float_of_int s.distinct));
      ("classes", Json.Num (float_of_int s.classes));
      ("nodes", Json.Num (float_of_int s.nodes));
      ("sleep_every", Json.Num (float_of_int s.sleep_every));
      ("expire_every", Json.Num (float_of_int s.expire_every));
      ("seed", Json.Num (float_of_int s.seed));
    ]

(* ---------- the 1-vs-N fleet benchmark ---------- *)

type bench = {
  spec : trace_spec;
  backends : int;
  single : run_result;
  fleet : run_result;
  speedup : float;  (* fleet throughput over single-backend throughput *)
}

(* one run against an in-process router owning [count] spawned
   backends; the router↔backend hop is the real socket transport *)
let routed_run ~label ~prog ~backend_args ~dir ~count ?rate_rps ?window ?timeout_s trace =
  let subdir = Filename.concat dir label in
  (match Unix.mkdir subdir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let router =
    (* many ring points: with few distinct trace keys, a coarse ring's
       shard-size variance can push one shard past its cache capacity
       and mask the locality the benchmark exists to measure *)
    Router.create
      ~cfg:{ (Router.default_config ()) with Router.vnodes = 512 }
      ~events:(fun _ -> ())
      (Router.spawn_targets ~prog ~args:backend_args ~dir:subdir ~count)
  in
  Fun.protect
    ~finally:(fun () -> ignore (Router.await_drain router : Engine.Run_report.t))
    (fun () ->
      run ~label ?rate_rps ?window ?timeout_s
        (Inproc (fun ~reply line -> Router.submit router ~reply line))
        trace)

let fleet_bench ?(spec = default_spec ()) ?rate_rps ?window ?timeout_s ~prog
    ~backend_args ~dir ~backends () =
  if backends < 2 then invalid_arg "Loadgen.fleet_bench: backends must be >= 2";
  let trace = make_trace spec in
  let single =
    routed_run ~label:"single" ~prog ~backend_args ~dir ~count:1 ?rate_rps ?window
      ?timeout_s trace
  in
  let fleet =
    routed_run
      ~label:(Printf.sprintf "fleet-%d" backends)
      ~prog ~backend_args ~dir ~count:backends ?rate_rps ?window ?timeout_s trace
  in
  let speedup =
    if single.throughput_rps > 0. then fleet.throughput_rps /. single.throughput_rps
    else Float.nan
  in
  { spec; backends; single; fleet; speedup }

let schema_version = "hslb-bench-fleet-v1"

let bench_json b =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("backends", Json.Num (float_of_int b.backends));
      ("trace", spec_json b.spec);
      ("single", result_json b.single);
      ("fleet", result_json b.fleet);
      ("speedup", Json.Num b.speedup);
    ]

let write_bench path b =
  let oc = open_out path in
  output_string oc (Json.to_string (bench_json b));
  output_char oc '\n';
  close_out oc
