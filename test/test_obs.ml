(* Observability subsystem tests: span scoping and cross-domain
   stitching (pool tasks parent to the span that launched them), the
   metrics registry under concurrent update, the exporters, the JSON
   codec's round trip (a property), and the engine / runtime / report
   integration points. *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* every test that enables tracing starts from an empty sink so suites
   do not leak spans into each other *)
let traced f =
  Obs.Span.clear ();
  Fun.protect ~finally:(fun () -> Obs.Span.clear ()) (fun () -> Obs.Control.with_enabled f)

(* ---------- clock ---------- *)

let test_clock_monotone () =
  let prev = ref (Obs.Clock.now_s ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_s () in
    if t < !prev then Alcotest.failf "clock went backwards: %.9f < %.9f" t !prev;
    prev := t
  done

(* ---------- control / no-op cost ---------- *)

let test_disabled_is_noop () =
  Obs.Span.clear ();
  Alcotest.(check bool) "disabled by default" false (Obs.Control.enabled ());
  let v = Obs.Span.with_span "ignored" (fun () -> 42) in
  Alcotest.(check int) "body ran" 42 v;
  Alcotest.(check int) "no span recorded" 0 (List.length (Obs.Span.drain ()))

let test_with_enabled_restores () =
  (try Obs.Control.with_enabled (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "disabled again after exception" false (Obs.Control.enabled ())

(* ---------- span scoping ---------- *)

let test_span_nesting () =
  traced @@ fun () ->
  Obs.Span.with_span ~cat:"t" "outer" (fun () ->
      Obs.Span.with_span ~cat:"t" "inner" (fun () -> ()));
  match Obs.Span.drain () with
  | [ inner; outer ] ->
    (* inner closes first, so it drains first *)
    Alcotest.(check string) "inner name" "inner" inner.Obs.Span.name;
    Alcotest.(check string) "outer name" "outer" outer.Obs.Span.name;
    Alcotest.(check bool) "outer is a root" true (outer.Obs.Span.parent = None);
    Alcotest.(check bool) "inner parented to outer" true
      (inner.Obs.Span.parent = Some outer.Obs.Span.id);
    Alcotest.(check bool) "durations non-negative" true
      (inner.Obs.Span.dur_s >= 0. && outer.Obs.Span.dur_s >= 0.)
  | sps -> Alcotest.failf "expected 2 spans, got %d" (List.length sps)

let test_span_exception_passthrough () =
  traced @@ fun () ->
  (try Obs.Span.with_span "failing" (fun () -> failwith "boom") with
  | Failure _ -> ());
  match Obs.Span.drain () with
  | [ sp ] -> Alcotest.(check string) "span still recorded" "failing" sp.Obs.Span.name
  | sps -> Alcotest.failf "expected 1 span, got %d" (List.length sps)

let test_span_context_across_domains () =
  traced @@ fun () ->
  Obs.Span.with_span "root" (fun () ->
      let ctx = Obs.Span.context () in
      let d =
        Domain.spawn (fun () ->
            Obs.Span.in_context ctx (fun () ->
                Obs.Span.with_span "child" (fun () -> ())))
      in
      Domain.join d);
  let spans = Obs.Span.drain () in
  let root = List.find (fun s -> s.Obs.Span.name = "root") spans in
  let child = List.find (fun s -> s.Obs.Span.name = "child") spans in
  Alcotest.(check bool) "child parented across domain boundary" true
    (child.Obs.Span.parent = Some root.Obs.Span.id)

(* ---------- cross-domain stitching: pool tasks ---------- *)

let test_pool_task_spans () =
  let spans =
    traced @@ fun () ->
    Obs.Span.with_span "shard" (fun () ->
        ignore (Runtime.Pool.map ~jobs:2 (fun x -> x * x) [ 1; 2; 3; 4 ]));
    Obs.Span.drain ()
  in
  let root = List.find (fun s -> s.Obs.Span.name = "shard") spans in
  let tasks = List.filter (fun s -> s.Obs.Span.name = "pool.task") spans in
  Alcotest.(check int) "one span per task" 4 (List.length tasks);
  List.iter
    (fun t ->
      Alcotest.(check bool) "task parented to caller's span" true
        (t.Obs.Span.parent = Some root.Obs.Span.id))
    tasks;
  let indices =
    List.sort compare
      (List.map (fun t -> List.assoc "index" t.Obs.Span.args) tasks)
  in
  Alcotest.(check (list string)) "indices annotated" [ "0"; "1"; "2"; "3" ] indices

(* ---------- engine integration ---------- *)

let test_telemetry_time_emits_span () =
  let spans =
    traced @@ fun () ->
    ignore (Engine.Telemetry.time None "probe-phase" (fun () -> 7));
    Obs.Span.drain ()
  in
  match List.filter (fun s -> s.Obs.Span.name = "probe-phase") spans with
  | [ sp ] -> Alcotest.(check string) "categorized" "engine.phase" sp.Obs.Span.cat
  | sps -> Alcotest.failf "expected 1 phase span, got %d" (List.length sps)

let test_budget_poll_counter () =
  let c = Obs.Metrics.counter "engine_budget_polls_total" in
  let before = Obs.Metrics.Counter.value c in
  let b = Engine.Budget.arm Engine.Budget.unlimited in
  ignore (Engine.Budget.check b);
  Alcotest.(check int) "disabled: no count" before (Obs.Metrics.Counter.value c);
  Obs.Control.with_enabled (fun () ->
      ignore (Engine.Budget.check b);
      ignore (Engine.Budget.check b));
  Alcotest.(check int) "enabled: polls counted" (before + 2) (Obs.Metrics.Counter.value c)

(* ---------- metrics ---------- *)

let test_counter_concurrent () =
  let c = Obs.Metrics.Counter.create "t_concurrent" in
  let per = 25_000 in
  ignore
    (Runtime.Pool.map ~jobs:4
       (fun _ ->
         for _ = 1 to per do
           Obs.Metrics.Counter.incr c
         done)
       [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "no lost increments" (4 * per) (Obs.Metrics.Counter.value c)

let test_gauge () =
  let g = Obs.Metrics.Gauge.create "t_gauge" in
  Obs.Metrics.Gauge.set g 3.5;
  Obs.Metrics.Gauge.add g 1.5;
  Alcotest.(check (float 1e-9)) "set+add" 5.0 (Obs.Metrics.Gauge.value g)

let test_histogram_quantiles () =
  let h = Obs.Metrics.Histogram.create ~lo:1. ~hi:1000. "t_hist" in
  for i = 1 to 100 do
    Obs.Metrics.Histogram.observe h (float_of_int i)
  done;
  let s = Obs.Metrics.Histogram.summary h in
  Alcotest.(check int) "count" 100 s.Obs.Metrics.Histogram.count;
  Alcotest.(check (float 1e-6)) "sum" 5050. s.Obs.Metrics.Histogram.sum;
  Alcotest.(check (float 1e-9)) "min" 1. s.Obs.Metrics.Histogram.min;
  Alcotest.(check (float 1e-9)) "max" 100. s.Obs.Metrics.Histogram.max;
  (* log-linear buckets: a quantile reads as the upper bound of its
     bucket, so it can overshoot by at most one bucket ratio (~26% at
     10 buckets/decade) and never undershoots *)
  let ratio = 10. ** 0.1 in
  let between what lo hi v =
    if v < lo || v > hi then Alcotest.failf "%s: %.3f outside [%.3f, %.3f]" what v lo hi
  in
  between "p50" 50. (50. *. ratio) s.Obs.Metrics.Histogram.p50;
  between "p90" 90. (90. *. ratio) s.Obs.Metrics.Histogram.p90;
  between "p99" 99. 100. s.Obs.Metrics.Histogram.p99

let test_histogram_empty_and_overflow () =
  let h = Obs.Metrics.Histogram.create ~lo:1. ~hi:10. "t_hist_edge" in
  let s = Obs.Metrics.Histogram.summary h in
  Alcotest.(check int) "empty count" 0 s.Obs.Metrics.Histogram.count;
  Alcotest.(check bool) "empty quantiles are NaN" true
    (Float.is_nan s.Obs.Metrics.Histogram.p50 && Float.is_nan s.Obs.Metrics.Histogram.min);
  (* below-range and above-range observations clamp into the end
     buckets; quantiles stay within observed min/max *)
  Obs.Metrics.Histogram.observe h 0.001;
  Obs.Metrics.Histogram.observe h 5000.;
  let s = Obs.Metrics.Histogram.summary h in
  Alcotest.(check int) "clamped count" 2 s.Obs.Metrics.Histogram.count;
  Alcotest.(check (float 1e-9)) "min observed" 0.001 s.Obs.Metrics.Histogram.min;
  Alcotest.(check (float 1e-9)) "max observed" 5000. s.Obs.Metrics.Histogram.max;
  Alcotest.(check (float 1e-9)) "p99 clamps to max" 5000. s.Obs.Metrics.Histogram.p99

let test_histogram_concurrent () =
  let h = Obs.Metrics.Histogram.create ~lo:0.5 ~hi:200. "t_hist_conc" in
  ignore
    (Runtime.Pool.map ~jobs:4
       (fun d ->
         for i = 1 to 10_000 do
           Obs.Metrics.Histogram.observe h (float_of_int (1 + ((d + i) mod 100)))
         done)
       [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "no lost observations" 40_000 (Obs.Metrics.Histogram.count h)

let test_registry_type_clash () =
  ignore (Obs.Metrics.counter "t_clash");
  Alcotest.(check bool) "get-or-create returns same" true
    (Obs.Metrics.counter "t_clash" == Obs.Metrics.counter "t_clash");
  match Obs.Metrics.histogram "t_clash" with
  | _ -> Alcotest.fail "type clash not detected"
  | exception Invalid_argument _ -> ()

(* ---------- exporters ---------- *)

let test_chrome_trace_roundtrip () =
  let spans =
    traced @@ fun () ->
    Obs.Span.with_span ~cat:"t" "parent" (fun () ->
        Obs.Span.with_span ~cat:"t" ~args:[ ("k", "v") ] "child" (fun () -> ()));
    Obs.Span.drain ()
  in
  let doc = Obs.Export.chrome_trace spans in
  (* the serving layer's decoder is the CI validator for this artifact;
     Serve.Json.t = Obs.Json.t so both sides interoperate *)
  match Serve.Json.parse (Serve.Json.to_string doc) with
  | Error msg -> Alcotest.failf "trace does not re-parse: %s" msg
  | Ok parsed -> (
    (match Obs.Export.check_chrome_trace parsed with
    | Ok n -> Alcotest.(check int) "two events" 2 n
    | Error msg -> Alcotest.failf "invalid trace: %s" msg);
    let events =
      match Serve.Json.member "traceEvents" parsed with
      | Some (Serve.Json.Arr evs) -> evs
      | _ -> Alcotest.fail "missing traceEvents"
    in
    let find name =
      List.find
        (fun ev -> Serve.Json.member "name" ev = Some (Serve.Json.Str name))
        events
    in
    let id_of ev =
      Option.get (Serve.Json.member "args" ev |> Option.get |> Serve.Json.member "span_id")
    in
    let parent = find "parent" and child = find "child" in
    Alcotest.(check bool) "parent_id stitches in the export" true
      (Serve.Json.member "args" child |> Option.get |> Serve.Json.member "parent_id"
      = Some (id_of parent));
    Alcotest.(check bool) "custom args survive" true
      (Serve.Json.member "args" child |> Option.get |> Serve.Json.member "k"
      = Some (Serve.Json.Str "v")))

let test_check_chrome_trace_rejects () =
  let bad =
    Obs.Json.Obj
      [
        ( "traceEvents",
          Obs.Json.Arr [ Obs.Json.Obj [ ("name", Obs.Json.Str "x") ] ] );
      ]
  in
  (match Obs.Export.check_chrome_trace bad with
  | Ok _ -> Alcotest.fail "accepted an event with no ph/ts"
  | Error msg -> Alcotest.(check bool) "names the field" true (contains_substring msg "ph"));
  match Obs.Export.check_chrome_trace (Obs.Json.Obj []) with
  | Ok _ -> Alcotest.fail "accepted a document with no traceEvents"
  | Error _ -> ()

let test_ndjson_stream () =
  let lines = ref [] in
  Obs.Span.set_stream (Some (fun sp -> lines := Obs.Export.span_ndjson_line sp :: !lines));
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_stream None)
    (fun () ->
      traced @@ fun () ->
      Obs.Span.with_span "streamed" (fun () -> ()));
  match !lines with
  | [ line ] ->
    Alcotest.(check bool) "single line" true (not (String.contains line '\n'));
    (match Obs.Json.parse line with
    | Ok (Obs.Json.Obj _ as ev) ->
      Alcotest.(check bool) "carries the span name" true
        (Obs.Json.member "name" ev = Some (Obs.Json.Str "streamed"))
    | Ok _ -> Alcotest.fail "not an object"
    | Error msg -> Alcotest.failf "line does not parse: %s" msg)
  | l -> Alcotest.failf "expected 1 streamed line, got %d" (List.length l)

(* the JSON codec round-trips every tree of finite numbers and
   arbitrary byte strings (keys included): what the serve wire prints
   it reads back unchanged *)
let prop_json_roundtrip =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun x -> Obs.Json.Num (if Float.is_finite x then x else 0.)) float;
        map (fun n -> Obs.Json.Num (float_of_int n)) int;
        map (fun s -> Obs.Json.Str s) (string_size (0 -- 12));
      ]
  in
  let tree =
    sized_size (0 -- 4)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun vs -> Obs.Json.Arr vs) (list_size (0 -- 5) (self (n - 1))));
                 ( 1,
                   map
                     (fun kvs -> Obs.Json.Obj kvs)
                     (list_size (0 -- 5) (pair (string_size (0 -- 6)) (self (n - 1)))) );
               ])
  in
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:5000
    (QCheck.make ~print:Obs.Json.to_string tree)
    (fun v -> Obs.Json.parse (Obs.Json.to_string v) = Ok v)

(* a JSON number's bytes are Printf's: "%.0f" for an integer under
   1e16, "%.17g" for any other finite number, null otherwise. Drawn from
   raw bit patterns, integers around +-1e16 and 2^53, signed zeros and
   subnormals *)
let printf_num f =
  if Float.is_nan f || Float.is_integer f = false || Float.abs f >= 1e16 then
    if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  else Printf.sprintf "%.0f" f

let prop_num_bytes =
  let open QCheck.Gen in
  let near x = map (fun k -> x +. float_of_int k) (-2048 -- 2048) in
  let num =
    oneof
      [
        map Int64.float_of_bits ui64;
        near 1e16;
        near (-1e16);
        near 9007199254740992.;
        map float_of_int int;
        map (fun k -> float_of_int k /. 8.) (-1_000_000 -- 1_000_000);
        oneofl [ 0.; -0.; 1e16; -1e16; Float.succ 1e16; Float.pred 1e16; min_float; max_float ];
        map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) ui64;
      ]
  in
  QCheck.Test.make ~name:"number bytes = Printf's" ~count:100_000
    (QCheck.make ~print:(Printf.sprintf "%h") num)
    (fun f -> Obs.Json.to_string (Obs.Json.Num f) = printf_num f)

let test_prometheus_exposition () =
  let c = Obs.Metrics.Counter.create "t_prom_total" in
  Obs.Metrics.Counter.incr ~by:3 c;
  let g = Obs.Metrics.Gauge.create "t_prom_gauge" in
  Obs.Metrics.Gauge.set g 1.25;
  let h = Obs.Metrics.Histogram.create ~lo:1. ~hi:100. "t_prom_ms" in
  List.iter (Obs.Metrics.Histogram.observe h) [ 2.; 4.; 8. ];
  let text =
    Obs.Export.prometheus
      [
        ("t_prom_total", Obs.Metrics.Counter c);
        ("t_prom_gauge", Obs.Metrics.Gauge g);
        ("t_prom_ms", Obs.Metrics.Histogram h);
      ]
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains_substring text needle))
    [
      "# TYPE t_prom_total counter";
      "t_prom_total 3";
      "# TYPE t_prom_gauge gauge";
      "t_prom_gauge 1.25";
      "# TYPE t_prom_ms summary";
      "t_prom_ms{quantile=\"0.5\"}";
      "t_prom_ms{quantile=\"0.99\"}";
      "t_prom_ms_count 3";
    ];
  (* 1 counter + 1 gauge + (3 quantiles + _sum + _count) = 7 samples *)
  match Obs.Export.check_prometheus text with
  | Ok n -> Alcotest.(check int) "sample lines" 7 n
  | Error msg -> Alcotest.failf "own exposition rejected: %s" msg

let test_check_prometheus_rejects () =
  (match Obs.Export.check_prometheus "bad metric! 1\n" with
  | Ok _ -> Alcotest.fail "accepted a bad metric name"
  | Error msg -> Alcotest.(check bool) "points at the line" true (contains_substring msg "line 1"));
  (match Obs.Export.check_prometheus "ok_metric notanumber\n" with
  | Ok _ -> Alcotest.fail "accepted a non-numeric value"
  | Error _ -> ());
  match Obs.Export.check_prometheus "# just a comment\n\n" with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "comment-only exposition counted %d samples" n
  | Error msg -> Alcotest.failf "comment-only exposition rejected: %s" msg

(* ---------- run-report histogram section ---------- *)

let test_run_report_hists () =
  let tally = Engine.Telemetry.create () in
  let plain = Engine.Run_report.make ~solver:"t" ~status:"ok" ~wall_s:0.1 tally in
  Alcotest.(check bool) "no hists key when empty" false
    (contains_substring (Engine.Run_report.to_json plain) "\"hists\"");
  let h = Obs.Metrics.Histogram.create ~lo:1. ~hi:100. "t_report_ms" in
  List.iter (Obs.Metrics.Histogram.observe h) [ 5.; 10.; 20. ];
  let with_hists =
    Engine.Run_report.make ~solver:"t" ~status:"ok"
      ~hists:[ ("t_report_ms", Obs.Metrics.Histogram.summary h) ]
      ~wall_s:0.1 tally
  in
  let js = Engine.Run_report.to_json with_hists in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report has " ^ needle) true (contains_substring js needle))
    [ "\"hists\""; "\"t_report_ms\""; "\"p50\""; "\"count\":3" ];
  (match Serve.Json.parse js with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "report with hists is not valid JSON: %s" msg);
  (* the CSV shape is frozen: histogram summaries never add columns *)
  let cols s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "csv row arity unchanged"
    (cols Engine.Run_report.csv_header)
    (cols (Engine.Run_report.to_csv_row with_hists))

(* ---------- bench gates (hslb obs --bench) ---------- *)

(* the committed BENCH_*.json files at the project root; test/dune
   copies them into the build tree one level up *)
let committed_artifacts () =
  Sys.readdir ".." |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat ".." f in
         let text = In_channel.with_open_bin path In_channel.input_all in
         match Obs.Json.parse text with
         | Ok j -> (f, j)
         | Error e -> Alcotest.failf "%s: %s" f e)

let check_bench = Obs.Gate.check Experiments.Bench_gates.checkers

let gated_schemas =
  List.map
    (fun (c : Obs.Gate.checker) -> c.Obs.Gate.schema)
    Experiments.Bench_gates.checkers

(* a path into a JSON document: an object key, an array index, or the
   array element whose string member [k] is [v] *)
type step = K of string | I of int | W of string * string

let rec edit path f (j : Obs.Json.t) : Obs.Json.t =
  let missing () = Alcotest.fail "corruption path not in the artifact" in
  match (path, j) with
  | [], _ -> f j
  | K k :: rest, Obj kvs ->
    if not (List.mem_assoc k kvs) then missing ();
    Obj (List.map (fun (k', v) -> if k' = k then (k', edit rest f v) else (k', v)) kvs)
  | I i :: rest, Arr vs ->
    if i >= List.length vs then missing ();
    Arr (List.mapi (fun i' v -> if i' = i then edit rest f v else v) vs)
  | W (k, want) :: rest, Arr vs ->
    let hit v = Obs.Json.member k v = Some (Obs.Json.Str want) in
    if not (List.exists hit vs) then missing ();
    Arr (List.map (fun v -> if hit v then edit rest f v else v) vs)
  | _ -> missing ()

let set path v = edit path (fun _ -> v)

(* one row per declared gate: the committed artifact, the gate, and a
   corruption of the raw field that gate reads *)
let gate_corruptions =
  let open Obs.Json in
  let row0 = [ K "rows"; I 0 ] in
  let arena_cell cls sched =
    [ K "rows"; W ("class", cls); K "cells"; W ("scheduler", sched); K "regret_vs_dynamic" ]
  in
  let policy p = row0 @ [ K "cells"; W ("policy", p) ] in
  let strategy s = row0 @ [ K "cells"; W ("strategy", s) ] in
  let exact0 = [ K "exact"; I 0 ] in
  let kernel0 = [ K "kernels"; I 0 ] in
  let registry = [ K "registry_quick" ] in
  let take n = function Arr vs -> Arr (List.filteri (fun i _ -> i < n) vs) | v -> v in
  [
    ("BENCH_arena.json", "missing_families", set [ K "schedulers"; I 0 ] (Str "fifo"));
    ("BENCH_arena.json", "classes", edit [ K "rows" ] (take 2));
    ( "BENCH_arena.json",
      "rows_off_roster",
      set (row0 @ [ K "cells"; I 1; K "scheduler" ]) (Str "fifo") );
    ( "BENCH_arena.json",
      "dynamic_abs_regret",
      set
        (row0 @ [ K "cells"; W ("scheduler", "dynamic"); K "regret_vs_dynamic" ])
        (Num 0.5) );
    ("BENCH_arena.json", "winners_not_argmin", set (row0 @ [ K "winner" ]) (Str "fifo"));
    ( "BENCH_arena.json",
      "drifting_hybrid_minus_static_regret",
      set (arena_cell "drifting" "hybrid") (Num 10.) );
    ("BENCH_resolve.json", "drift_rates", set [ K "rows" ] (Arr []));
    ( "BENCH_resolve.json",
      "missing_policies",
      set (policy "certified" @ [ K "policy" ]) (Str "x") );
    ( "BENCH_resolve.json",
      "min_makespan",
      set (policy "never" @ [ K "makespan_avg" ]) (Num 0.) );
    ( "BENCH_resolve.json",
      "never_rows_not_one_solve",
      set (policy "never" @ [ K "solves" ]) (Num 2.) );
    ( "BENCH_resolve.json",
      "certified_over_always_makespan",
      set (policy "certified" @ [ K "makespan_avg" ]) (Num 1e6) );
    ( "BENCH_resolve.json",
      "certified_over_always_solves",
      set (policy "certified" @ [ K "solves" ]) (Num 1e6) );
    ( "BENCH_resolve.json",
      "certified_skips",
      set (policy "certified" @ [ K "skipped" ]) (Num (-1e6)) );
    ("BENCH_place.json", "scenarios", set [ K "rows" ] (Arr []));
    ("BENCH_place.json", "exact_rows", set [ K "exact" ] (Arr []));
    ( "BENCH_place.json",
      "missing_strategies",
      set (strategy "aware" @ [ K "strategy" ]) (Str "random") );
    ("BENCH_place.json", "min_makespan_s", set (strategy "blind" @ [ K "makespan_s" ]) (Num 0.));
    ( "BENCH_place.json",
      "min_comm_cost_s",
      set (strategy "blind" @ [ K "comm_cost_s" ]) (Num (-1.)) );
    ( "BENCH_place.json",
      "aware_over_blind_comm",
      set (strategy "aware" @ [ K "comm_cost_s" ]) (Num 1e6) );
    ( "BENCH_place.json",
      "aware_over_blind_makespan",
      set (strategy "aware" @ [ K "makespan_s" ]) (Num 1e6) );
    ("BENCH_place.json", "exact_not_optimal", set (exact0 @ [ K "status" ]) (Str "feasible"));
    ("BENCH_place.json", "exact_unaudited", set (exact0 @ [ K "audited" ]) (Bool false));
    ( "BENCH_place.json",
      "exact_minlp_minus_heuristic_s",
      set (exact0 @ [ K "minlp_total_s" ]) (Num 1e6) );
    ("BENCH_kernels.json", "cores", set [ K "cores" ] (Num 0.));
    ("BENCH_kernels.json", "kernels", set [ K "kernels" ] (Arr []));
    ("BENCH_kernels.json", "min_reps", set (kernel0 @ [ K "reps" ]) (Num 0.));
    ("BENCH_kernels.json", "min_wall_s", set (kernel0 @ [ K "candidate_wall_s" ]) (Num (-1.)));
    ("BENCH_kernels.json", "speedup_rel_error", set (kernel0 @ [ K "speedup" ]) (Num 100.));
    ("BENCH_kernels.json", "not_identical", set (kernel0 @ [ K "identical" ]) (Bool false));
    ("BENCH_runtime.json", "registry_speedup", set (registry @ [ K "speedup" ]) (Num 0.5));
    ( "BENCH_runtime.json",
      "registry_core_starved",
      set (registry @ [ K "core_starved" ]) (Bool true) );
    ( "BENCH_runtime.json",
      "registry_jobs_over_clamp",
      set (registry @ [ K "effective_jobs" ]) (Num 99.) );
    ("BENCH_fleet.json", "backends", set [ K "backends" ] (Num 1.));
    ("BENCH_fleet.json", "answers_over_requests", set [ K "single"; K "answered" ] (Num 1e6));
    ("BENCH_fleet.json", "speedup", set [ K "fleet"; K "throughput_rps" ] (Num 1.));
  ]

(* decoder errors: shapes no gate can read, each with its exact message *)
let decode_corruptions =
  let open Obs.Json in
  [
    ( "BENCH_fleet.json",
      set [ K "speedup" ] Null,
      {|field "speedup": expected a finite number|} );
    ( "BENCH_fleet.json",
      set [ K "single"; K "latency_ms"; K "p50" ] (Str "x"),
      {|single: latency_ms: field "p50": expected a number or null|} );
    ( "BENCH_kernels.json",
      set [ K "kernels"; I 1; K "identical" ] (Str "yes"),
      {|kernels[1]: field "identical": expected a boolean|} );
    ( "BENCH_arena.json",
      set [ K "rows"; I 0; K "cells"; I 2; K "regret_vs_dynamic" ] (Num Float.infinity),
      {|rows[0]: cells[2]: field "regret_vs_dynamic": expected a finite number|} );
    ( "BENCH_runtime.json",
      set [ K "registry_quick" ] (Arr []),
      {|field "registry_quick": expected an object|} );
    ("BENCH_runtime.json", set [ K "cache" ] Null, {|field "cache": expected an object|});
  ]

let test_bench_gates () =
  let artifacts = committed_artifacts () in
  let verdicts f j =
    match check_bench j with
    | Ok (schema, vs) -> (schema, vs)
    | Error e -> Alcotest.failf "%s: %s" f e
  in
  (* (a) every committed artifact whose schema has gates passes them
     all, and each of those gates has a corruption case below *)
  let gated =
    List.filter_map
      (fun (f, j) ->
        match Option.bind (Obs.Json.member "schema" j) Obs.Json.str with
        | Some s when List.mem s gated_schemas -> Some (s, f, snd (verdicts f j))
        | Some _ | None -> None)
      artifacts
  in
  List.iter
    (fun s ->
      if not (List.exists (fun (s', _, _) -> s' = s) gated) then
        Alcotest.failf "no committed artifact of schema %s" s)
    gated_schemas;
  List.iter
    (fun (_, f, vs) ->
      List.iter
        (fun (v : Obs.Gate.verdict) ->
          let g = v.Obs.Gate.gate in
          if not v.Obs.Gate.ok then Alcotest.failf "%s: gate %s failed" f g;
          if not (List.exists (fun (f', g', _) -> f' = f && g' = g) gate_corruptions) then
            Alcotest.failf "%s: gate %s has no corruption case" f g)
        vs)
    gated;
  (* (b) each declared gate rejects a corruption of the field it reads *)
  List.iter
    (fun (f, gate, corrupt) ->
      let schema, vs = verdicts f (corrupt (List.assoc f artifacts)) in
      match List.find_opt (fun (v : Obs.Gate.verdict) -> v.Obs.Gate.gate = gate) vs with
      | None -> Alcotest.failf "%s declares no gate %s" f gate
      | Some v ->
        let line = Obs.Gate.line ~schema v in
        Alcotest.(check bool)
          (Printf.sprintf "%s rejects via %S" f line)
          true
          (String.starts_with ~prefix:(Printf.sprintf "gate %s %s: " schema gate) line
          && String.ends_with ~suffix:" FAIL" line))
    gate_corruptions;
  (* the fleet gate recomputes the speedup instead of trusting the
     stored one *)
  let fleet = List.assoc "BENCH_fleet.json" artifacts in
  List.iter
    (fun (v : Obs.Gate.verdict) ->
      if not v.Obs.Gate.ok then
        Alcotest.failf "stored speedup consulted by %s" v.Obs.Gate.gate)
    (snd (verdicts "fleet" (set [ K "speedup" ] (Obs.Json.Num 0.1) fleet)));
  List.iter
    (fun (f, corrupt, msg) ->
      Alcotest.(check (result pass string))
        (f ^ " decoder error") (Error msg)
        (Result.map ignore (check_bench (corrupt (List.assoc f artifacts)))))
    decode_corruptions;
  (* (c) an unknown schema names the known ones *)
  let known =
    "hslb-bench-arena-v1, hslb-bench-resolve-v1, hslb-bench-place-v1, \
     hslb-bench-kernels-v1, hslb-bench-runtime-v1, hslb-bench-fleet-v1"
  in
  Alcotest.(check (result pass string))
    "unknown schema"
    (Error ({|unknown schema "hslb-bench-obs-v0" (known: |} ^ known ^ ")"))
    (Result.map ignore
       (check_bench
          (Obs.Json.Obj [ ("schema", Obs.Json.Str "hslb-bench-obs-v0") ])));
  Alcotest.(check (result pass string))
    "missing schema"
    (Error ({|field "schema": expected one of |} ^ known))
    (Result.map ignore (check_bench (Obs.Json.Obj [])))

(* bench/main.exe's argv scan: malformed flags are named, never ignored *)
let test_bench_argv () =
  let accepted =
    "--quick, --audit, --only ID, --report FILE, --trace FILE, --jobs N, --seed N, \
     --trials N, --runtime FILE, --kernels FILE, --obs-bench FILE, --resolve FILE, \
     --place FILE"
  in
  let parse = Cli_common.Argv.parse in
  let error args msg =
    Alcotest.(check (result pass string)) (String.concat " " args) (Error msg)
      (Result.map ignore (parse args))
  in
  let unknown arg = Printf.sprintf "unknown argument %S (accepted: %s)" arg accepted in
  error [ "--kernel"; "out.json" ] (unknown "--kernel");
  error [ "--quick"; "E4" ] (unknown "E4");
  error [ "--no-bechamel" ] (unknown "--no-bechamel");
  error [ "--jobs"; "x" ] {|--jobs: expected an integer, got "x"|};
  error [ "--seed"; "4.5" ] {|--seed: expected an integer, got "4.5"|};
  error [ "--trials"; "x" ] {|--trials: expected an integer, got "x"|};
  error [ "--audit"; "--seed" ] "--seed: missing N";
  error [ "--report"; "--quick" ] "--report: missing FILE";
  match parse [ "--quick"; "--only"; "E4"; "--jobs"; "2" ] with
  | Error e -> Alcotest.fail e
  | Ok args ->
    Alcotest.(check bool) "quick" true (Cli_common.Argv.flag args "quick");
    Alcotest.(check bool) "no audit" false (Cli_common.Argv.flag args "audit");
    Alcotest.(check (option string)) "only" (Some "E4") (Cli_common.Argv.find_opt args "only");
    Alcotest.(check (option int)) "jobs" (Some 2) (Cli_common.Argv.int_opt args "jobs")

let () =
  Alcotest.run "obs"
    [
      ( "clock+control",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "with_enabled restores" `Quick test_with_enabled_restores;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception passthrough" `Quick test_span_exception_passthrough;
          Alcotest.test_case "context across domains" `Quick test_span_context_across_domains;
          Alcotest.test_case "pool task spans" `Quick test_pool_task_spans;
        ] );
      ( "engine",
        [
          Alcotest.test_case "telemetry.time emits span" `Quick test_telemetry_time_emits_span;
          Alcotest.test_case "budget poll counter" `Quick test_budget_poll_counter;
          Alcotest.test_case "run-report hists section" `Quick test_run_report_hists;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter concurrent" `Quick test_counter_concurrent;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram empty+overflow" `Quick test_histogram_empty_and_overflow;
          Alcotest.test_case "histogram concurrent" `Quick test_histogram_concurrent;
          Alcotest.test_case "registry type clash" `Quick test_registry_type_clash;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace round-trip" `Quick test_chrome_trace_roundtrip;
          Alcotest.test_case "chrome validator rejects" `Quick test_check_chrome_trace_rejects;
          Alcotest.test_case "ndjson stream" `Quick test_ndjson_stream;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |]) prop_json_roundtrip;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]) prop_num_bytes;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "prometheus validator rejects" `Quick test_check_prometheus_rejects;
        ] );
      ( "bench",
        [
          Alcotest.test_case "gates: committed pass, corruptions fail" `Quick test_bench_gates;
          Alcotest.test_case "bench argv rejects malformed flags" `Quick test_bench_argv;
        ] );
    ]
