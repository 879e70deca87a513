(* Serving-layer tests: JSON codec, wire protocol parsing (fixtures
   and properties), and the server itself — admission control under
   overload, end-to-end per-request deadlines, caching, and graceful
   drain (every admitted request answered, every domain joined). *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let open Serve.Json in
  let cases =
    [
      ("null", Null);
      ("true", Bool true);
      ("-3.5", Num (-3.5));
      ("42", Num 42.);
      ({|"a b"|}, Str "a b");
      ("[1,[],{}]", Arr [ Num 1.; Arr []; Obj [] ]);
      ({|{"k":"v","n":null}|}, Obj [ ("k", Str "v"); ("n", Null) ]);
    ]
  in
  List.iter
    (fun (text, value) ->
      (match parse text with
      | Ok v -> Alcotest.(check bool) ("parse " ^ text) true (v = value)
      | Error e -> Alcotest.failf "parse %s: %s" text e);
      (* printing then re-parsing is the identity *)
      match parse (to_string value) with
      | Ok v -> Alcotest.(check bool) ("reparse " ^ text) true (v = value)
      | Error e -> Alcotest.failf "reparse %s: %s" text e)
    cases;
  (* integral floats print as integers: NDJSON ids echo cleanly *)
  Alcotest.(check string) "integral num" "7" (to_string (Num 7.));
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|} (to_string (Str "a\"b\\c\nd"));
  Alcotest.(check string) "non-finite is null" "null" (to_string (Num Float.nan))

let test_json_unicode_and_errors () =
  let open Serve.Json in
  (match parse {|"é😀"|} with
  | Ok (Str s) -> Alcotest.(check string) "utf-8 decode" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape rejected");
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error msg ->
        Alcotest.(check bool) (bad ^ " error has offset") true
          (contains_substring msg "offset"))
    [ "{"; "[1,]"; {|{"a":1,}|}; "tru"; {|"unterminated|}; "1 2"; "" ]

let test_json_accessors () =
  let open Serve.Json in
  let v = Obj [ ("s", Str "x"); ("n", Num 3.); ("b", Bool false); ("a", Arr [ Null ]) ] in
  Alcotest.(check (option string)) "str" (Some "x") (Option.bind (member "s" v) str);
  Alcotest.(check (option int)) "int_" (Some 3) (Option.bind (member "n" v) int_);
  Alcotest.(check (option bool)) "bool_" (Some false) (Option.bind (member "b" v) bool_);
  Alcotest.(check bool) "arr" true (Option.bind (member "a" v) arr = Some [ Null ]);
  Alcotest.(check bool) "missing member" true (member "zz" v = None);
  Alcotest.(check bool) "member of non-object" true (member "s" Null = None);
  Alcotest.(check bool) "non-integral int_" true (int_ (Num 3.5) = None)

(* ---------- Protocol ---------- *)

let model_csv = "alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2"

let solve_line ?(id = 1) ?(nodes = 32) ?deadline_ms ?(extra = "") () =
  Printf.sprintf {|{"id":%d,"model_csv":%s,"nodes":%d%s%s}|} id
    (Serve.Json.to_string (Serve.Json.Str model_csv))
    nodes
    (match deadline_ms with
    | None -> ""
    | Some ms -> Printf.sprintf {|,"deadline_ms":%g|} ms)
    extra

let test_protocol_parse () =
  let open Serve.Protocol in
  (match parse_line (solve_line ~id:9 ~nodes:16 ~deadline_ms:250. ()) with
  | { id = Serve.Json.Num 9.; req = Ok (Solve p); _ } ->
    Alcotest.(check int) "nodes" 16 p.n_total;
    Alcotest.(check bool) "inline model" true (p.model = `Inline model_csv);
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 250.) p.deadline_ms;
    Alcotest.(check bool) "solver defaulted" true (p.solver = None)
  | { req = Error e; _ } -> Alcotest.failf "solve rejected: %s" e
  | _ -> Alcotest.fail "unexpected parse");
  (match parse_line {|{"id":"s1","op":"sleep","ms":40}|} with
  | { id = Serve.Json.Str "s1"; req = Ok (Sleep s); _ } ->
    Alcotest.(check (float 1e-9)) "sleep seconds" 0.04 s
  | _ -> Alcotest.fail "sleep not parsed");
  (match parse_line {|{"op":"ping"}|} with
  | { req = Ok Ping; _ } -> ()
  | _ -> Alcotest.fail "ping not parsed");
  (match parse_line {|{"op":"drain"}|} with
  | { req = Ok Drain; _ } -> ()
  | _ -> Alcotest.fail "drain not parsed");
  match parse_line {|{"op":"stats"}|} with
  | { req = Ok Stats; _ } -> ()
  | _ -> Alcotest.fail "stats not parsed"

let test_protocol_errors () =
  let open Serve.Protocol in
  let expect_error ?expect line =
    match parse_line line with
    | { req = Error msg; _ } -> (
      match expect with
      | None -> ()
      | Some sub ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %s" line sub)
          true (contains_substring msg sub))
    | { req = Ok _; _ } -> Alcotest.failf "accepted %s" line
  in
  expect_error "not json";
  expect_error "[1,2]" ~expect:"object";
  expect_error {|{"op":"warp"}|} ~expect:"warp";
  expect_error {|{"op":"solve"}|} ~expect:"model";
  expect_error (solve_line ~nodes:0 ()) ~expect:"nodes";
  expect_error (solve_line ~deadline_ms:0. ()) ~expect:"deadline_ms";
  expect_error (solve_line ~extra:{|,"solver":"quantum"|} ()) ~expect:"quantum";
  expect_error
    {|{"model_csv":"a,1,1,1,1,1","model_path":"/x","nodes":4}|}
    ~expect:"both";
  (* the id still echoes even when the body is garbage *)
  match parse_line {|{"id":7,"op":"warp"}|} with
  | { id = Serve.Json.Num 7.; req = Error _; _ } -> ()
  | _ -> Alcotest.fail "id lost on protocol error"

let resolve_line ?(id = 1) ?(v = 2) ?(model = model_csv) ?(prev = "[8,8]") ?(extra = "") () =
  Printf.sprintf {|{"id":%d,"v":%d,"op":"resolve","model_csv":%s,"nodes":32,"prev":%s%s}|} id
    v
    (Serve.Json.to_string (Serve.Json.Str model))
    prev extra

let test_protocol_version () =
  let open Serve.Protocol in
  (* an absent "v" is the v1 dialect every pre-versioning client speaks *)
  (match parse_line (solve_line ()) with
  | { v = 1; req = Ok (Solve _); _ } -> ()
  | _ -> Alcotest.fail "bare solve did not parse as v1");
  (match parse_line {|{"id":2,"v":2,"op":"ping"}|} with
  | { v = 2; req = Ok Ping; _ } -> ()
  | _ -> Alcotest.fail "v2 ping not parsed");
  (* clients key on the exact future-version diagnostic *)
  (match parse_line {|{"id":3,"v":3,"op":"ping"}|} with
  | { id = Serve.Json.Num 3.; req = Error msg; _ } ->
    Alcotest.(check string) "exact version diagnostic"
      {|field "v": unsupported protocol version 3 (server speaks 1..2)|} msg
  | _ -> Alcotest.fail "v3 request accepted");
  (match parse_line {|{"id":4,"v":"two","op":"ping"}|} with
  | { req = Error msg; _ } ->
    Alcotest.(check string) "non-integer v" {|field "v": expected an integer|} msg
  | _ -> Alcotest.fail "string v accepted");
  (* the new verb is fenced behind v2 *)
  match parse_line (resolve_line ~v:1 ()) with
  | { req = Error msg; _ } ->
    Alcotest.(check string) "resolve needs v2"
      {|op "resolve" requires protocol v2 (send "v": 2)|} msg
  | _ -> Alcotest.fail "v1 resolve accepted"

let test_protocol_resolve () =
  let open Serve.Protocol in
  (match
     parse_line
       (resolve_line ~id:11
          ~extra:
            {|,"observe":[{"class":"alpha","samples":[[2,50.0],[4,25.5]]}],"epsilon":0.1|}
          ())
   with
  | { id = Serve.Json.Num 11.; v = 2; req = Ok (Resolve rp); _ } ->
    Alcotest.(check bool) "prev" true (rp.prev = [| 8; 8 |]);
    Alcotest.(check int) "base nodes" 32 rp.base.n_total;
    (match rp.observe with
    | [ ("alpha", samples) ] ->
      Alcotest.(check bool) "samples" true (samples = [| (2., 50.0); (4., 25.5) |])
    | _ -> Alcotest.fail "observe not parsed");
    Alcotest.(check (option (float 1e-9))) "epsilon" (Some 0.1) rp.epsilon
  | { req = Error e; _ } -> Alcotest.failf "resolve rejected: %s" e
  | _ -> Alcotest.fail "unexpected resolve parse");
  let expect_exact line msg =
    match parse_line line with
    | { req = Error got; _ } -> Alcotest.(check string) msg msg got
    | { req = Ok _; _ } -> Alcotest.failf "accepted %s" line
  in
  expect_exact
    (Printf.sprintf {|{"id":1,"v":2,"op":"resolve","model_csv":%s,"nodes":32}|}
       (Serve.Json.to_string (Serve.Json.Str model_csv)))
    {|op resolve: missing field "prev" (previous allocation)|};
  expect_exact
    (resolve_line ~prev:{|[8,0]|} ())
    {|field "prev": expected an array of positive integers|};
  expect_exact (resolve_line ~prev:"[]" ()) {|field "prev": must not be empty|};
  expect_exact
    (resolve_line ~extra:{|,"observe":[7]|} ())
    {|field "observe": expected an array of {class, samples} objects|};
  expect_exact
    (resolve_line ~extra:{|,"observe":[{"class":"alpha","samples":[[0,5.0]]}]|} ())
    {|field "observe": class "alpha": samples must be an array of [nodes, seconds] pairs of finite numbers (nodes >= 1, seconds >= 0)|};
  expect_exact (resolve_line ~extra:{|,"epsilon":0|} ()) {|field "epsilon": must be > 0|}

(* ---------- Protocol properties ---------- *)

module Gen = QCheck.Gen

(* [parse_line] never raises; a line that is not a JSON object gets one
   of the two diagnostics for it, with a null id *)
let parses_totally line =
  match Serve.Protocol.parse_line line with
  | exception e -> QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) line
  | { req; id; _ } -> (
    match (Serve.Json.parse line, req) with
    | Ok (Serve.Json.Obj _), _ -> true
    | _, Error msg ->
      id = Serve.Json.Null
      && (msg = "request must be a JSON object" || String.starts_with ~prefix:"bad JSON: " msg)
    | _, Ok _ -> false)

(* arbitrary bytes, half of them drawn from JSON's own alphabet so the
   parser gets past the first few characters *)
let prop_parse_bytes =
  let json_char = Gen.oneofl (List.of_seq (String.to_seq {|{}[]":,.-+eE0123456789 tfnrulasv\|})) in
  QCheck.Test.make ~name:"parse_line: arbitrary bytes" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S")
       Gen.(string_size ~gen:(oneof [ char; json_char ]) (0 -- 120)))
    parses_totally

let request_fixtures =
  [
    solve_line ~deadline_ms:250. ~extra:{|,"solver":"oa","policy":"drifting"|} ();
    {|{"id":1,"v":2,"op":"resolve","model_csv":"alpha,4,100,0.001,1,0.5","nodes":32,"prev":[8],"observe":[{"class":"alpha","samples":[[2,50.0]]}],"epsilon":0.1}|};
    {|{"id":2,"v":2,"model_csv":"a,1,1,0,1,0","nodes":32,"place":{"topology":[2,2,2],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.6],"comm_mb":[[0]]}}|};
    {|{"id":"s","op":"sleep","ms":40}|};
    {|{"id":3,"v":2,"op":"ping"}|};
    {|{"op":"stats"}|};
  ]

(* a request line cut anywhere short of its end is never a complete
   JSON text *)
let prop_parse_truncated =
  QCheck.Test.make ~name:"parse_line: truncated requests" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       Gen.(oneofl request_fixtures >>= fun l -> map (String.sub l 0) (0 -- (String.length l - 1))))
    (fun line ->
      parses_totally line
      &&
      match (Serve.Protocol.parse_line line).req with
      | Error msg -> String.starts_with ~prefix:"bad JSON: " msg
      | Ok _ -> false)

(* objects built from the protocol's own field names, each usually
   holding one of the shapes the protocol reads there and otherwise any
   JSON value: the id echoes and the version stays in range, whatever
   the request makes of the rest *)
let field_examples =
  List.map
    (fun (k, texts) -> (k, List.map (fun t -> Result.get_ok (Serve.Json.parse t)) texts))
    [
      ("id", [ "1"; {|"s"|}; "null" ]);
      ("v", [ "1"; "2"; "3"; {|"two"|} ]);
      ("op", [ {|"solve"|}; {|"resolve"|}; {|"sleep"|}; {|"ping"|}; {|"stats"|}; {|"warp"|} ]);
      ( "model_csv",
        [ {|"alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2"|}; {|"a,1,100,0,1,1"|}; {|"a,1,nan"|} ]
      );
      ("model_path", [ {|"/no/such/file"|} ]);
      ("nodes", [ "32"; "8"; "0"; "1000000000"; "10000000000"; "1.5" ]);
      ("objective", [ {|"min-max"|}; {|"max-min"|}; {|"min-sum"|}; {|"max"|} ]);
      ("solver", [ {|"exact"|}; {|"oa"|}; {|"quantum"|} ]);
      ("deadline_ms", [ "5"; "0"; "250.5" ]);
      ("allowed", [ "[4,8,16]"; "[]"; "[1.5]" ]);
      ("policy", [ {|"drifting"|}; {|"warp"|} ]);
      ( "place",
        [
          {|{"topology":[2,2,2],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.6,0.5],"comm_mb":[[0,3.5],[3.5,0]]}|};
          {|{"groups":4}|};
        ] );
      ("topology", [ "[2,2,2]"; "[2,2]"; "[1000,1000,1000]" ]);
      ("groups", [ "4"; "0"; "2048" ]);
      ("mem_per_node_gb", [ "1.0"; "0" ]);
      ("mem_gb", [ "[0.6,0.5]"; "[-1]" ]);
      ("comm_mb", [ "[[0,1],[1,0]]"; "[1]" ]);
      ("hop_cost_s_per_mb", [ "2.0"; "-1" ]);
      ("prev", [ "[8]"; "[8,8]"; "[0]"; "[]" ]);
      ("observe", [ {|[{"class":"alpha","samples":[[2,50.0]]}]|}; "[7]" ]);
      ("class", [ {|"alpha"|} ]);
      ("samples", [ "[[2,50.0]]"; "[[0,5]]" ]);
      ("epsilon", [ "0.1"; "0" ]);
      ("ms", [ "1"; "-1" ]);
    ]

let gen_object =
  let open Gen in
  let leaf =
    oneof
      [
        return Serve.Json.Null;
        map (fun b -> Serve.Json.Bool b) bool;
        map (fun x -> Serve.Json.Num x) float;
        map (fun s -> Serve.Json.Str s) (string_size (0 -- 8));
      ]
  in
  let rec value n =
    if n = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun vs -> Serve.Json.Arr vs) (list_size (0 -- 4) (value (n - 1))));
          (2, obj (n - 1));
        ]
  and obj n =
    map
      (fun kvs -> Serve.Json.Obj kvs)
      (list_size (0 -- 8)
         ( oneofl field_examples >>= fun (k, examples) ->
           map (fun v -> (k, v)) (frequency [ (3, oneofl examples); (1, value n) ]) ))
  in
  sized_size (0 -- 3) obj

let prop_parse_objects =
  QCheck.Test.make ~name:"parse_line: protocol-shaped objects" ~count:5000
    (QCheck.make ~print:Serve.Json.to_string gen_object)
    (fun obj ->
      let line = Serve.Json.to_string obj in
      parses_totally line
      &&
      let { Serve.Protocol.id; v; _ } = Serve.Protocol.parse_line line in
      id = Option.value (Serve.Json.member "id" obj) ~default:Serve.Json.Null
      && v >= Serve.Protocol.min_version
      && v <= Serve.Protocol.current_version)

(* ---------- Server harness ---------- *)

(* emit runs in worker domains; the mutex both serializes test-side
   appends and gives the polling reader a happens-before edge *)
type harness = {
  server : Serve.Server.t;
  mutex : Mutex.t;
  lines : string list ref;
}

let make_harness ?(jobs = 1) ?(queue_limit = 4) ?(drain_grace_s = 5.0) ?telemetry () =
  let mutex = Mutex.create () in
  let lines = ref [] in
  let cfg =
    {
      Serve.Server.jobs;
      queue_limit;
      cache_capacity = 8;
      drain_grace_s;
      policy = Arena.Policy.builtin;
    }
  in
  let emit l = Mutex.protect mutex (fun () -> lines := l :: !lines) in
  { server = Serve.Server.create ?telemetry cfg ~emit; mutex; lines }

let responses h =
  let raw = Mutex.protect h.mutex (fun () -> List.rev !(h.lines)) in
  List.map
    (fun l ->
      match Serve.Json.parse l with
      | Ok v -> v
      | Error e -> Alcotest.failf "unparseable response %s: %s" l e)
    raw

let outcome_of v =
  match Option.bind (Serve.Json.member "outcome" v) Serve.Json.str with
  | Some o -> o
  | None -> Alcotest.failf "response without outcome: %s" (Serve.Json.to_string v)

let find_by_id h id =
  List.find_opt (fun v -> Serve.Json.member "id" v = Some (Serve.Json.Num (float_of_int id)))
    (responses h)

let wait_until ?(timeout = 20.0) msg f =
  let rec go left =
    if f () then ()
    else if left <= 0. then Alcotest.failf "timed out waiting for %s" msg
    else (
      Unix.sleepf 0.01;
      go (left -. 0.01))
  in
  go timeout

let count_outcome h o =
  List.length (List.filter (fun v -> outcome_of v = o) (responses h))

let stat_counter h key =
  match Serve.Json.parse (Serve.Server.stats_json h.server) with
  | Error e -> Alcotest.fail e
  | Ok stats -> (
    match Option.bind (Serve.Json.member key stats) Serve.Json.int_ with
    | Some n -> n
    | None -> Alcotest.failf "stats missing %s" key)

(* ---------- Server tests ---------- *)

let test_serve_concurrent_solves () =
  let h = make_harness ~jobs:4 ~queue_limit:16 () in
  let ids = List.init 6 (fun i -> i + 1) in
  List.iter
    (fun i -> Serve.Server.submit h.server (solve_line ~id:i ~nodes:(16 + i) ()))
    ids;
  let report = Serve.Server.await_drain h.server in
  Alcotest.(check string) "report status" "drained" report.Engine.Run_report.status;
  List.iter
    (fun i ->
      match find_by_id h i with
      | None -> Alcotest.failf "request %d never answered" i
      | Some v ->
        Alcotest.(check string) (Printf.sprintf "id %d ok" i) "ok" (outcome_of v);
        Alcotest.(check bool)
          (Printf.sprintf "id %d audited" i)
          true
          (match Option.bind (Serve.Json.member "audit" v) Serve.Json.str with
          | Some a -> contains_substring a "verified"
          | None -> false))
    ids;
  (* each response must answer its own budget: the optimal makespan is
     monotone non-increasing in the node budget, so any cross-request
     bleed between concurrently-solving workers shows up as a bump *)
  let makespans =
    List.filter_map
      (fun i ->
        Option.bind (find_by_id h i) (fun v ->
            Option.bind (Serve.Json.member "makespan" v) Serve.Json.num))
      ids
  in
  Alcotest.(check int) "all solved" 6 (List.length makespans);
  ignore
    (List.fold_left
       (fun prev m ->
         Alcotest.(check bool) "monotone in the node budget" true (m <= prev +. 1e-9);
         m)
       infinity makespans
      : float)

let test_serve_overload () =
  let h = make_harness ~jobs:1 ~queue_limit:1 () in
  (* one request on the (single) worker or queued, at most one more
     queued — everything else must bounce inline with "overloaded" *)
  Serve.Server.submit h.server {|{"id":1,"op":"sleep","ms":300}|};
  List.iter
    (fun i -> Serve.Server.submit h.server (solve_line ~id:i ~nodes:(20 + i) ()))
    [ 2; 3; 4 ];
  Alcotest.(check bool) "rejections are inline" true (count_outcome h "overloaded" >= 2);
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let answered = List.length (responses h) in
  Alcotest.(check int) "every request answered exactly once" 4 answered;
  let stats =
    match Serve.Json.parse (Serve.Server.stats_json h.server) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  match Option.bind (Serve.Json.member "overloaded" stats) Serve.Json.int_ with
  | Some n -> Alcotest.(check bool) "overloaded counter" true (n >= 2)
  | None -> Alcotest.fail "stats missing overloaded counter"

let test_serve_deadline_expired () =
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server {|{"id":1,"op":"sleep","ms":250}|};
  (* queued behind a 250 ms sleep with a 5 ms end-to-end deadline: the
     deadline is consumed before any worker picks it up *)
  Serve.Server.submit h.server (solve_line ~id:2 ~deadline_ms:5. ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  match find_by_id h 2 with
  | None -> Alcotest.fail "expired request never answered"
  | Some v -> Alcotest.(check string) "expired outcome" "expired" (outcome_of v)

(* each admitted request is judged by its own deadline, whatever an
   identical request queued beside it asked for: with the worker held
   by a sleep, a twin pair where the first carries a 5 ms deadline and
   one where the second does *)
let test_serve_own_deadlines () =
  let h = make_harness ~jobs:1 ~queue_limit:8 () in
  Serve.Server.submit h.server {|{"id":1,"op":"sleep","ms":150}|};
  Serve.Server.submit h.server (solve_line ~id:2 ~nodes:24 ~deadline_ms:5. ());
  Serve.Server.submit h.server (solve_line ~id:3 ~nodes:24 ());
  Serve.Server.submit h.server (solve_line ~id:4 ~nodes:40 ());
  Serve.Server.submit h.server (solve_line ~id:5 ~nodes:40 ~deadline_ms:5. ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iter
    (fun (id, want) ->
      match find_by_id h id with
      | None -> Alcotest.failf "request %d never answered" id
      | Some v -> Alcotest.(check string) (Printf.sprintf "id %d" id) want (outcome_of v))
    [ (2, "expired"); (3, "ok"); (4, "ok"); (5, "expired") ]

(* identical solves take a queue slot each: with the one worker held
   by a sleep and two slots, two of ten twins are admitted and the rest
   bounce, and every admitted request is served *)
let test_serve_bounded_admission () =
  let h = make_harness ~jobs:1 ~queue_limit:2 () in
  Serve.Server.submit h.server {|{"id":1,"op":"sleep","ms":500}|};
  wait_until "sleep picked up" (fun () -> stat_counter h "queue_depth" = 0);
  for id = 2 to 11 do
    Serve.Server.submit h.server (solve_line ~id ~nodes:24 ())
  done;
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let solves = List.filter_map (fun id -> find_by_id h id) (List.init 10 (fun i -> i + 2)) in
  let count o = List.length (List.filter (fun v -> outcome_of v = o) solves) in
  Alcotest.(check int) "every solve answered" 10 (List.length solves);
  Alcotest.(check int) "two admitted" 2 (count "ok");
  Alcotest.(check int) "eight overloaded" 8 (count "overloaded");
  Alcotest.(check int) "accepted" 3 (stat_counter h "accepted");
  Alcotest.(check int) "served" 3 (stat_counter h "served")

(* the cache stores a MINLP answer at once, and an answer of the exact
   default (about as cheap to recompute as to store) once its key
   recurs *)
let test_serve_cache_hit () =
  let h = make_harness ~jobs:1 () in
  let cache_hit v =
    Option.bind (Serve.Json.member "telemetry" v) (fun t ->
        Option.bind (Serve.Json.member "cache_hit" t) Serve.Json.bool_)
  in
  let oa = {|,"solver":"oa"|} in
  Serve.Server.submit h.server (solve_line ~id:1 ~nodes:28 ~extra:oa ());
  (* wait for completion so the second identical request finds the
     first one's answer stored *)
  wait_until "first solve" (fun () -> find_by_id h 1 <> None);
  Serve.Server.submit h.server (solve_line ~id:2 ~nodes:28 ~extra:oa ());
  Serve.Server.submit h.server (solve_line ~id:3 ~nodes:28 ());
  wait_until "first default solve" (fun () -> find_by_id h 3 <> None);
  Serve.Server.submit h.server (solve_line ~id:4 ~nodes:28 ());
  wait_until "second default solve" (fun () -> find_by_id h 4 <> None);
  Serve.Server.submit h.server (solve_line ~id:5 ~nodes:28 ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let v id = Option.get (find_by_id h id) in
  Alcotest.(check (option bool)) "first is a miss" (Some false) (cache_hit (v 1));
  Alcotest.(check (option bool)) "second is a hit" (Some true) (cache_hit (v 2));
  Alcotest.(check bool) "identical allocation" true
    (Serve.Json.member "nodes_per_task" (v 1) = Serve.Json.member "nodes_per_task" (v 2));
  Alcotest.(check (option bool)) "exact: second sight recomputed" (Some false)
    (cache_hit (v 4));
  Alcotest.(check (option bool)) "exact: third sight a hit" (Some true) (cache_hit (v 5));
  Alcotest.(check bool) "exact twins agree" true
    (Serve.Json.member "nodes_per_task" (v 3) = Serve.Json.member "nodes_per_task" (v 5))

let test_protocol_policy () =
  let open Serve.Protocol in
  (match parse_line (solve_line ~id:4 ~extra:{|,"policy":"drifting"|} ()) with
  | { req = Ok (Solve p); _ } ->
    Alcotest.(check bool) "policy parsed" true (p.policy = Some Arena.Scenario.Drifting)
  | { req = Error e; _ } -> Alcotest.failf "policy hint rejected: %s" e
  | _ -> Alcotest.fail "unexpected parse");
  (match parse_line (solve_line ~extra:{|,"policy":null|} ()) with
  | { req = Ok (Solve p); _ } -> Alcotest.(check bool) "null policy" true (p.policy = None)
  | _ -> Alcotest.fail "null policy rejected");
  (* the diagnostic is wire-exact: it names the field and every valid class *)
  match parse_line (solve_line ~extra:{|,"policy":"warp"|} ()) with
  | { req = Error msg; _ } ->
    Alcotest.(check string) "exact diagnostic"
      "field \"policy\": unknown scenario class \"warp\" (expected steady | bursty | \
       multi-tenant | heavy-tailed | drifting | failure)"
      msg
  | { req = Ok _; _ } -> Alcotest.fail "bogus policy accepted"

let policy_of v = Serve.Json.member "policy" v

let test_serve_policy_hint () =
  let h = make_harness ~jobs:1 ~queue_limit:8 () in
  Serve.Server.submit h.server (solve_line ~id:1 ~extra:{|,"policy":"drifting"|} ());
  Serve.Server.submit h.server (solve_line ~id:2 ());
  Serve.Server.submit h.server {|{"id":3,"op":"stats"}|};
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let v1 = Option.get (find_by_id h 1) in
  Alcotest.(check string) "hinted solve ok" "ok" (outcome_of v1);
  (* wire-exact: the annotation names the declared class and the
     arena's winning scheduler for it, nothing else *)
  Alcotest.(check bool) "policy object exact" true
    (policy_of v1
    = Some
        (Serve.Json.Obj
           [
             ("scenario", Serve.Json.Str "drifting");
             ("scheduler", Serve.Json.Str "hybrid");
           ]));
  (* no hint, no annotation *)
  let v2 = Option.get (find_by_id h 2) in
  Alcotest.(check string) "unhinted solve ok" "ok" (outcome_of v2);
  Alcotest.(check bool) "no policy member" true (policy_of v2 = None);
  (* the stats counter saw exactly one hint *)
  let v3 = Option.get (find_by_id h 3) in
  let hints =
    Option.bind (Serve.Json.member "stats" v3) (fun s ->
        Option.bind (Serve.Json.member "policy_hints" s) Serve.Json.int_)
  in
  Alcotest.(check (option int)) "policy_hints counter" (Some 1) hints

let test_serve_policy_per_request () =
  (* the policy hint stays out of the cache key: identical solves with
     different hints (or none) each get the recommendation for their
     own declared class *)
  let h = make_harness ~jobs:1 ~queue_limit:8 () in
  Serve.Server.submit h.server {|{"id":1,"op":"sleep","ms":150}|};
  Serve.Server.submit h.server (solve_line ~id:2 ~nodes:24 ~extra:{|,"policy":"drifting"|} ());
  Serve.Server.submit h.server (solve_line ~id:3 ~nodes:24 ~extra:{|,"policy":"failure"|} ());
  Serve.Server.submit h.server (solve_line ~id:4 ~nodes:24 ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let v2 = Option.get (find_by_id h 2)
  and v3 = Option.get (find_by_id h 3)
  and v4 = Option.get (find_by_id h 4) in
  List.iter (fun v -> Alcotest.(check string) "ok" "ok" (outcome_of v)) [ v2; v3; v4 ];
  let scheduler v =
    Option.bind (policy_of v) (fun p ->
        Option.bind (Serve.Json.member "scheduler" p) Serve.Json.str)
  in
  Alcotest.(check (option string)) "first's own class" (Some "hybrid") (scheduler v2);
  Alcotest.(check (option string)) "second's own class" (Some "stealing") (scheduler v3);
  Alcotest.(check bool) "unhinted twin unannotated" true (policy_of v4 = None)

let test_serve_drain_rejects_and_joins () =
  let h = make_harness ~jobs:2 ~queue_limit:8 () in
  List.iter
    (fun i -> Serve.Server.submit h.server (solve_line ~id:i ~nodes:(40 + i) ()))
    [ 1; 2; 3 ];
  Serve.Server.initiate_drain h.server;
  Alcotest.(check bool) "draining flag" true (Serve.Server.draining h.server);
  Serve.Server.submit h.server (solve_line ~id:9 ~nodes:50 ());
  (match find_by_id h 9 with
  | Some v -> Alcotest.(check string) "late arrival bounced" "draining" (outcome_of v)
  | None -> Alcotest.fail "draining rejection must be inline");
  let report = Serve.Server.await_drain h.server in
  (* await_drain returning means every worker domain was joined; now
     check no admitted request was dropped on the floor *)
  List.iter
    (fun i ->
      match find_by_id h i with
      | Some v -> Alcotest.(check string) (Printf.sprintf "id %d ok" i) "ok" (outcome_of v)
      | None -> Alcotest.failf "in-flight request %d lost during drain" i)
    [ 1; 2; 3 ];
  Alcotest.(check string) "status" "drained" report.Engine.Run_report.status;
  (* idempotent: a second await_drain must not hang or double-join *)
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t)

let test_serve_drain_grace_cancels () =
  let h = make_harness ~jobs:1 ~drain_grace_s:0.2 () in
  (* the sleep op polls the drain token, standing in for a long solve *)
  Serve.Server.submit h.server {|{"id":1,"op":"sleep","ms":30000}|};
  wait_until "sleep picked up" (fun () ->
      match Serve.Json.parse (Serve.Server.stats_json h.server) with
      | Ok v -> Option.bind (Serve.Json.member "queue_depth" v) Serve.Json.int_ = Some 0
      | Error _ -> false);
  let t0 = Unix.gettimeofday () in
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "grace cut the 30 s sleep short" true (elapsed < 5.0);
  match find_by_id h 1 with
  | Some _ -> ()
  | None -> Alcotest.fail "cancelled sleep still owes a response"

let test_serve_protocol_error_and_ping () =
  let h = make_harness () in
  Serve.Server.submit h.server "garbage";
  Serve.Server.submit h.server {|{"id":5,"op":"ping"}|};
  Serve.Server.submit h.server {|{"id":6,"model_path":"/no/such/file","nodes":4}|};
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  (* both the unparseable line (id null) and the unreadable model are
     "error" outcomes *)
  Alcotest.(check int) "error outcomes" 2 (count_outcome h "error");
  Alcotest.(check bool) "unparseable line echoes a null id" true
    (List.exists
       (fun v -> outcome_of v = "error" && Serve.Json.member "id" v = Some Serve.Json.Null)
       (responses h));
  (match find_by_id h 5 with
  | Some v -> Alcotest.(check string) "pong" "ok" (outcome_of v)
  | None -> Alcotest.fail "ping unanswered");
  match find_by_id h 6 with
  | Some v ->
    Alcotest.(check string) "unreadable model errors" "error" (outcome_of v);
    Alcotest.(check bool) "names the path" true
      (match Option.bind (Serve.Json.member "error" v) Serve.Json.str with
      | Some e -> contains_substring e "/no/such/file"
      | None -> false)
  | None -> Alcotest.fail "bad model_path unanswered"

let test_serve_stats_latency () =
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server (solve_line ~id:1 ~nodes:16 ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let stats =
    match Serve.Json.parse (Serve.Server.stats_json h.server) with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let lat =
    match Serve.Json.member "latency" stats with
    | Some l -> l
    | None -> Alcotest.fail "stats missing latency object"
  in
  List.iter
    (fun key ->
      match Serve.Json.member key lat with
      | None -> Alcotest.failf "latency missing %s" key
      | Some s ->
        (match Option.bind (Serve.Json.member "count" s) Serve.Json.int_ with
        | Some n -> Alcotest.(check bool) (key ^ " observed") true (n >= 1)
        | None -> Alcotest.failf "%s has no count" key);
        (* quantiles are real numbers once anything was observed *)
        List.iter
          (fun q ->
            match Serve.Json.member q s with
            | Some (Serve.Json.Num v) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s.%s is a finite quantile" key q)
                true
                (Float.is_finite v && v >= 0.)
            | other ->
              Alcotest.failf "%s.%s not a number: %s" key q
                (match other with
                | Some v -> Serve.Json.to_string v
                | None -> "<missing>"))
          [ "p50"; "p90"; "p99"; "max" ])
    [ "queue_wait_ms"; "solve_ms" ]

let test_serve_telemetry_fields () =
  let tmutex = Mutex.create () in
  let tlines = ref [] in
  let telemetry l = Mutex.protect tmutex (fun () -> tlines := l :: !tlines) in
  let h = make_harness ~jobs:1 ~telemetry () in
  Serve.Server.submit h.server (solve_line ~id:1 ~nodes:16 ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let lines = Mutex.protect tmutex (fun () -> List.rev !tlines) in
  Alcotest.(check bool) "at least one telemetry line" true (List.length lines >= 1);
  List.iter
    (fun l ->
      match Serve.Json.parse l with
      | Error e -> Alcotest.failf "unparseable telemetry %s: %s" l e
      | Ok v ->
        Alcotest.(check (option string)) "event tag" (Some "request")
          (Option.bind (Serve.Json.member "event" v) Serve.Json.str);
        (match Serve.Json.member "ts_mono_s" v with
        | Some (Serve.Json.Num ts) ->
          Alcotest.(check bool) "monotonic timestamp present" true (ts > 0.)
        | _ -> Alcotest.fail "telemetry line missing ts_mono_s");
        match Option.bind (Serve.Json.member "queue_depth" v) Serve.Json.int_ with
        | Some d -> Alcotest.(check bool) "queue depth gauge" true (d >= 0)
        | None -> Alcotest.fail "telemetry line missing queue_depth")
    lines;
  (* the emit timestamps themselves must be non-decreasing in emit order *)
  let ts_of l =
    match Serve.Json.parse l with
    | Ok v -> (
      match Serve.Json.member "ts_mono_s" v with
      | Some (Serve.Json.Num ts) -> ts
      | _ -> Alcotest.fail "missing ts")
    | Error e -> Alcotest.fail e
  in
  ignore
    (List.fold_left
       (fun prev l ->
         let ts = ts_of l in
         Alcotest.(check bool) "telemetry timestamps ordered" true (ts >= prev);
         ts)
       0. lines
      : float)

(* ---------- versioned resolve ---------- *)

let single_model = "alpha,4,100,0.001,1,0.5"

let raw_responses h = Mutex.protect h.mutex (fun () -> List.rev !(h.lines))

(* incumbents already optimal are kept and answered as they are, at gap
   0 with the exact optimum as their bound: 4 tasks of 8 nodes on 32,
   and 3 tasks of 100/n at 10 nodes each on 32 (the two leftover nodes
   cannot all go to a task of 3), which is 6.7% above the continuous
   relaxation's 9.375 *)
let test_serve_resolve_unchanged () =
  let cases = [ (single_model, 8, 13.008); ("alpha,3,100,0,1,0", 10, 10.) ] in
  let h = make_harness ~jobs:1 () in
  List.iteri
    (fun i (model, n, _) ->
      Serve.Server.submit h.server
        (resolve_line ~id:(i + 1) ~model ~prev:(Printf.sprintf "[%d]" n) ()))
    cases;
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iteri
    (fun i (model, n, opt) ->
      match find_by_id h (i + 1) with
      | None -> Alcotest.failf "resolve of %s unanswered" model
      | Some r ->
        Alcotest.(check string) "ok" "ok" (outcome_of r);
        Alcotest.(check (option string)) "unchanged" (Some "unchanged")
          (Option.bind (Serve.Json.member "resolve" r) Serve.Json.str);
        Alcotest.(check bool) "response is v2" true
          (Serve.Json.member "v" r = Some (Serve.Json.Num 2.));
        Alcotest.(check bool) "incumbent allocation echoed" true
          (Serve.Json.member "nodes_per_task" r
          = Some (Serve.Json.Arr [ Serve.Json.Num (float_of_int n) ]));
        let cert k =
          Option.bind (Serve.Json.member "certificate" r) (fun c ->
              Option.bind (Serve.Json.member k c) Serve.Json.num)
        in
        Alcotest.(check (option (float 0.))) "gap_rel" (Some 0.) (cert "gap_rel");
        Alcotest.(check (option (float 1e-9))) "bound is the optimum" (Some opt) (cert "bound");
        Alcotest.(check (option (float 0.))) "eps" (Some 0.05) (cert "eps"))
    cases;
  Alcotest.(check int) "resolve_skipped counted" 2 (stat_counter h "resolve_skipped");
  Alcotest.(check int) "no genuine re-solve" 0 (stat_counter h "resolved")

let test_serve_resolve_resolved () =
  (* observations of a 2x slower law: the incumbent falls more than
     eps behind the updated optimum and a genuine (warm-started)
     re-solve runs under the updated fit *)
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server
    (resolve_line ~id:1 ~model:single_model ~prev:"[4]"
       ~extra:
         {|,"observe":[{"class":"alpha","samples":[[2,100.5],[4,50.5],[8,25.5],[16,13.0]]}]|}
       ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  (match find_by_id h 1 with
  | None -> Alcotest.fail "resolve unanswered"
  | Some r ->
    Alcotest.(check string) "ok" "ok" (outcome_of r);
    Alcotest.(check (option string)) "resolved" (Some "resolved")
      (Option.bind (Serve.Json.member "resolve" r) Serve.Json.str);
    (* the re-solve prices the allocation under the updated law
       (~200/n + 0.5), not the stale inline model *)
    (match Option.bind (Serve.Json.member "makespan" r) Serve.Json.num with
    | Some m -> Alcotest.(check bool) "updated-model makespan" true (m > 20. && m < 30.)
    | None -> Alcotest.fail "no makespan");
    match Serve.Json.member "certificate" r with
    | Some cert -> (
      match
        ( Option.bind (Serve.Json.member "gap_rel" cert) Serve.Json.num,
          Option.bind (Serve.Json.member "eps" cert) Serve.Json.num )
      with
      | Some gap, Some eps -> Alcotest.(check bool) "gap above eps" true (gap > eps)
      | _ -> Alcotest.fail "certificate missing gap_rel/eps")
    | None -> Alcotest.fail "rejection reply carries no certificate");
  Alcotest.(check int) "resolved counted" 1 (stat_counter h "resolved");
  Alcotest.(check int) "nothing skipped" 0 (stat_counter h "resolve_skipped")

let test_serve_resolve_prev_mismatch () =
  (* two model classes, one prev entry: a protocol-level error, not a
     crash inside the solver *)
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server (resolve_line ~id:1 ~prev:"[8]" ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  match find_by_id h 1 with
  | None -> Alcotest.fail "resolve unanswered"
  | Some r ->
    Alcotest.(check string) "error" "error" (outcome_of r);
    Alcotest.(check (option string)) "exact mismatch diagnostic"
      (Some {|field "prev": expected 2 entries (one per model class), got 1|})
      (Option.bind (Serve.Json.member "error" r) Serve.Json.str)

(* Every reply kind at protocol version [v], each answered exactly
   once: at v2 "v" is the second member, with value 2; at v1 no reply
   has one. The worker naps on a sleep while the rest queue behind it
   (a 5 ms deadline expires there), fillers overflow the queue, and a
   sleep after the drain is turned away. *)
let check_every_reply_kind v =
  let h = make_harness ~jobs:1 ~queue_limit:8 () in
  let vf = if v >= 2 then Printf.sprintf {|,"v":%d|} v else "" in
  let submit = Serve.Server.submit h.server in
  let op id name extra = submit (Printf.sprintf {|{"id":%d,"op":"%s"%s%s}|} id name extra vf) in
  op 1 "sleep" {|,"ms":300|};
  submit (solve_line ~id:2 ~nodes:16 ~deadline_ms:5. ~extra:vf ());
  submit (solve_line ~id:3 ~nodes:24 ~extra:vf ());
  submit
    (Printf.sprintf
       {|{"id":4,"model_csv":"a,4,100,0.1,1,1\nb,4,50,0.1,1,1","nodes":5,"objective":"max-min"%s}|}
       vf);
  if v >= 2 then submit (resolve_line ~id:5 ~v ~model:single_model ~prev:"[8]" ());
  op 6 "ping" "";
  op 7 "stats" "";
  op 8 "nope" "";
  let rec overflow id =
    if id > 120 then Alcotest.fail "queue never overflowed"
    else begin
      op id "sleep" {|,"ms":1|};
      match find_by_id h id with
      | Some r when outcome_of r = "overloaded" -> id
      | Some _ | None -> overflow (id + 1)
    end
  in
  let overloaded = overflow 100 in
  op 9 "drain" "";
  op 10 "sleep" {|,"ms":1|};
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iter
    (fun (id, kind, outcome) ->
      let what = Printf.sprintf "v%d %s" v kind in
      match
        List.filter
          (fun r -> Serve.Json.member "id" r = Some (Serve.Json.Num (float_of_int id)))
          (responses h)
      with
      | [ r ] -> (
        Alcotest.(check string) (what ^ " outcome") outcome (outcome_of r);
        match r with
        | Serve.Json.Obj (_ :: ("v", Serve.Json.Num 2.) :: _) when v >= 2 -> ()
        | Serve.Json.Obj fields when v < 2 && not (List.mem_assoc "v" fields) -> ()
        | _ -> Alcotest.failf "%s: wrong version echo in %s" what (Serve.Json.to_string r))
      | rs -> Alcotest.failf "%s: %d replies" what (List.length rs))
    ([
       (1, "sleep", "ok");
       (2, "expired solve", "expired");
       (3, "ok solve", "ok");
       (4, "no-allocation error", "error");
       (6, "ping", "ok");
       (7, "stats", "ok");
       (8, "protocol error", "error");
       (overloaded, "overloaded", "overloaded");
       (9, "drain", "ok");
       (10, "draining", "draining");
     ]
    @ if v >= 2 then [ (5, "resolve", "ok") ] else [])

let test_serve_version_compat () =
  check_every_reply_kind 1;
  check_every_reply_kind 2;
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server {|{"id":5,"op":"ping"}|};
  Serve.Server.submit h.server {|{"id":6,"v":2,"op":"ping"}|};
  Serve.Server.submit h.server {|{"id":7,"v":3,"op":"ping"}|};
  Serve.Server.submit h.server (solve_line ~id:8 ~nodes:16 ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  (* the v1 ping reply is pinned byte-for-byte: pre-versioning clients
     must replay identically against a v2 server *)
  Alcotest.(check bool) "v1 ping bytes" true
    (List.mem {|{"id":5,"outcome":"ok","pong":true}|} (raw_responses h));
  (match find_by_id h 6 with
  | None -> Alcotest.fail "v2 ping unanswered"
  | Some r ->
    Alcotest.(check bool) "v echoed" true (Serve.Json.member "v" r = Some (Serve.Json.Num 2.));
    match Serve.Json.member "protocol" r with
    | Some p ->
      Alcotest.(check (option int)) "min" (Some 1)
        (Option.bind (Serve.Json.member "min" p) Serve.Json.int_);
      Alcotest.(check (option int)) "max" (Some 2)
        (Option.bind (Serve.Json.member "max" p) Serve.Json.int_)
    | None -> Alcotest.fail "v2 ping does not advertise the protocol range");
  (match find_by_id h 7 with
  | None -> Alcotest.fail "v3 probe unanswered"
  | Some r ->
    Alcotest.(check string) "error" "error" (outcome_of r);
    Alcotest.(check (option string)) "exact version diagnostic"
      (Some {|field "v": unsupported protocol version 3 (server speaks 1..2)|})
      (Option.bind (Serve.Json.member "error" r) Serve.Json.str));
  (* v1 responses never grow a "v" field *)
  List.iter
    (fun line ->
      if contains_substring line {|"id":5|} || contains_substring line {|"id":8|} then
        Alcotest.(check bool)
          (Printf.sprintf "no version field in v1 reply %s" line)
          false
          (contains_substring line {|"v":|}))
    (raw_responses h)

(* ---------- the v2 place section ---------- *)

let place_extra =
  {|,"place":{"topology":[2,2,2],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.6,0.5],"comm_mb":[[0,3.5],[3.5,0]],"hop_cost_s_per_mb":2.0}|}

let test_protocol_place () =
  let open Serve.Protocol in
  (* v2 parses into the typed section *)
  (match parse_line (solve_line ~id:1 ~extra:({|,"v":2|} ^ place_extra) ()) with
  | { req = Ok (Solve { place = Some pl; _ }); v = 2; _ } ->
    Alcotest.(check bool) "torus" true (pl.torus = (2, 2, 2));
    Alcotest.(check int) "groups" 4 pl.place_groups;
    Alcotest.(check (float 1e-12)) "hop cost" 2.0 pl.hop_cost_s_per_mb;
    Alcotest.(check (float 1e-12)) "comm entry" 3.5 pl.comm_mb.(0).(1)
  | { req = Error e; _ } -> Alcotest.failf "place solve rejected: %s" e
  | _ -> Alcotest.fail "place section not parsed");
  let expect_exact line want =
    match parse_line line with
    | { req = Error got; _ } -> Alcotest.(check string) ("reject " ^ want) want got
    | _ -> Alcotest.failf "expected rejection: %s" want
  in
  (* v1 must not grow the field silently *)
  expect_exact
    (solve_line ~extra:place_extra ())
    {|field "place" requires protocol v2 (send "v": 2)|};
  expect_exact
    (solve_line ~extra:{|,"v":2,"place":{"groups":4}|} ())
    {|missing field "place.topology" (the [x, y, z] torus)|};
  expect_exact
    (solve_line ~extra:{|,"v":2,"place":{"topology":[2,2],"groups":4}|} ())
    {|field "place.topology": expected an array of 3 positive integers|};
  expect_exact
    (solve_line ~extra:{|,"v":2,"place":7|} ())
    {|field "place": expected an object, got a number|};
  (* semantic rejections carry Place.Model's own messages, surfaced at
     submit time through the fingerprint path *)
  let parse_place_params line =
    match parse_line line with
    | { req = Ok (Solve p); _ } -> p
    | { req = Error e; _ } -> Alcotest.failf "unexpected rejection: %s" e
    | _ -> Alcotest.fail "not a solve"
  in
  let asym =
    parse_place_params
      (solve_line
         ~extra:
           {|,"v":2,"place":{"topology":[2,2,2],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.5,0.5],"comm_mb":[[0,1],[2,0]]}|}
         ())
  in
  (match fingerprint asym with
  | Error e ->
    Alcotest.(check string) "asymmetry detected"
      "Place.Model.make: comm_mb is not symmetric at (0,1)" e
  | Ok _ -> Alcotest.fail "asymmetric comm accepted");
  let infeasible =
    parse_place_params
      (solve_line
         ~extra:
           {|,"v":2,"place":{"topology":[2,2,2],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[5.0,0.5],"comm_mb":[[0,1],[1,0]]}|}
         ())
  in
  match fingerprint infeasible with
  | Error e ->
    Alcotest.(check string) "memory infeasibility named"
      "Place.Model.make: class \"alpha\" needs 5.000 GB but group 0 (2 nodes at 1.000 GB/node) \
       holds only 2.000 GB"
      e
  | Ok _ -> Alcotest.fail "memory-infeasible place accepted"

let test_protocol_place_fingerprint () =
  let open Serve.Protocol in
  let params extra =
    match parse_line (solve_line ~extra ()) with
    | { req = Ok (Solve p); _ } -> p
    | { req = Error e; _ } -> Alcotest.failf "parse: %s" e
    | _ -> Alcotest.fail "not a solve"
  in
  let fp p =
    match fingerprint p with Ok f -> f | Error e -> Alcotest.failf "fingerprint: %s" e
  in
  let bare = fp (params "") in
  let placed = fp (params ({|,"v":2|} ^ place_extra)) in
  let other_torus =
    fp
      (params
         {|,"v":2,"place":{"topology":[4,2,1],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.6,0.5],"comm_mb":[[0,3.5],[3.5,0]],"hop_cost_s_per_mb":2.0}|})
  in
  Alcotest.(check bool) "placed never collides with unplaced" true (bare <> placed);
  Alcotest.(check bool) "same shape, different torus, different key" true
    (placed <> other_torus);
  Alcotest.(check bool) "placement key extends the alloc key" true
    (String.length placed > String.length bare);
  Alcotest.(check string) "deterministic" placed (fp (params ({|,"v":2|} ^ place_extra)))

let test_serve_place_annotation () =
  let h = make_harness ~jobs:1 ~queue_limit:8 () in
  (* oa: its answer is stored at once, so a shared key would show as a
     hit on the twin *)
  Serve.Server.submit h.server
    (solve_line ~id:1 ~extra:({|,"v":2,"solver":"oa"|} ^ place_extra) ());
  (* same model, no place: must not share the placed request's cache row *)
  Serve.Server.submit h.server (solve_line ~id:2 ~extra:{|,"solver":"oa"|} ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  (match find_by_id h 1 with
  | None -> Alcotest.fail "placed solve unanswered"
  | Some r -> (
    Alcotest.(check string) "ok" "ok" (outcome_of r);
    match Serve.Json.member "place" r with
    | None -> Alcotest.fail "response carries no place section"
    | Some pl ->
      let num k = Option.bind (Serve.Json.member k pl) Serve.Json.num in
      (match Option.bind (Serve.Json.member "assignment" pl) Serve.Json.arr with
      | Some cells ->
        Alcotest.(check int) "one slot per class" 2 (List.length cells);
        List.iter
          (fun c ->
            match Serve.Json.int_ c with
            | Some g -> Alcotest.(check bool) "group in range" true (g >= 0 && g < 4)
            | None -> Alcotest.fail "non-integer group")
          cells
      | None -> Alcotest.fail "place section has no assignment");
      Alcotest.(check (option int)) "groups echoed" (Some 4)
        (Option.bind (Serve.Json.member "groups" pl) Serve.Json.int_);
      (match num "makespan_s" with
      | Some m -> Alcotest.(check bool) "positive makespan" true (m > 0.)
      | None -> Alcotest.fail "no makespan_s");
      match (num "comm_cost_s", num "total_s", num "makespan_s") with
      | Some c, Some tot, Some m ->
        Alcotest.(check bool) "comm cost non-negative" true (c >= 0.);
        Alcotest.(check (float 1e-9)) "total = makespan + comm" tot (m +. c)
      | _ -> Alcotest.fail "place section incomplete"));
  (match find_by_id h 2 with
  | None -> Alcotest.fail "unplaced solve unanswered"
  | Some r ->
    Alcotest.(check string) "ok" "ok" (outcome_of r);
    Alcotest.(check bool) "no place section without the request" true
      (Serve.Json.member "place" r = None);
    (* distinct cache keys: the unplaced twin must have missed *)
    Alcotest.(check bool) "cache not shared across place boundary" true
      (match
         Option.bind (Serve.Json.member "telemetry" r) (fun t ->
             Option.bind (Serve.Json.member "cache_hit" t) Serve.Json.bool_)
       with
      | Some hit -> not hit
      | None -> false));
  match Serve.Json.parse (Serve.Server.stats_json h.server) with
  | Error e -> Alcotest.fail e
  | Ok stats -> (
    match Option.bind (Serve.Json.member "placed" stats) Serve.Json.int_ with
    | Some n -> Alcotest.(check int) "placed counter" 1 n
    | None -> Alcotest.fail "stats missing placed counter")

(* ---------- answers are keyed by the solver that produced them ---------- *)

(* E6a's 4-class model at 512 nodes: Bnb stops above the optimum and
   still stamps its answer optimal (the audit accepts its certificate),
   while OA proves 17.880457 at its 1e-4 gap and exact, the server
   default, certifies the optimum itself *)
let e6a4_line ~id ?solver () =
  let csv =
    Hslb.Model_store.to_csv
      (List.map
         (fun (s : Hslb.Alloc_model.spec) -> s.Hslb.Alloc_model.fc)
         (Experiments.E6_solver.synthetic_specs ~classes:4 ()))
  in
  Printf.sprintf {|{"id":%d,"model_csv":%s,"nodes":512%s}|} id
    (Serve.Json.to_string (Serve.Json.Str csv))
    (match solver with Some s -> Printf.sprintf {|,"solver":%S|} s | None -> "")

let e6a4_oa_makespan = 17.880457

let audit_of v = Option.bind (Serve.Json.member "audit" v) Serve.Json.str

let tele_flag key v =
  Option.bind (Serve.Json.member "telemetry" v) (fun t ->
      Option.bind (Serve.Json.member key t) Serve.Json.bool_)

let check_default_answer what v =
  Alcotest.(check string) (what ^ " ok") "ok" (outcome_of v);
  Alcotest.(check (option string))
    (what ^ " answered by exact")
    (Some "verified (exact)") (audit_of v);
  match Option.bind (Serve.Json.member "makespan" v) Serve.Json.num with
  | None -> Alcotest.failf "%s: no makespan" what
  | Some m ->
    (* never above OA's answer, and within OA's 1e-4 gap of it *)
    if m > e6a4_oa_makespan || m < e6a4_oa_makespan /. (1. +. 1e-4) then
      Alcotest.failf "%s: makespan %.9f, OA proves %.6f" what m e6a4_oa_makespan

let test_serve_solver_keyed () =
  (* (a) the cache: a proven Bnb answer must not be replayed to a
     request the default solver answers *)
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server (e6a4_line ~id:1 ~solver:"bnb" ());
  wait_until ~timeout:120. "the bnb solve" (fun () -> find_by_id h 1 <> None);
  Serve.Server.submit h.server (e6a4_line ~id:2 ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let bnb = Option.get (find_by_id h 1) and dflt = Option.get (find_by_id h 2) in
  Alcotest.(check (option string)) "bnb answered by bnb" (Some "verified (bnb)") (audit_of bnb);
  Alcotest.(check (option bool)) "default request misses the bnb entry" (Some false)
    (tele_flag "cache_hit" dflt);
  check_default_answer "cache: default request" dflt;
  (* (b) the queue: with the one worker held by a sleep, a default
     request queued behind a bnb twin gets its own exact answer *)
  let h = make_harness ~jobs:1 ~queue_limit:8 () in
  Serve.Server.submit h.server {|{"id":1,"op":"sleep","ms":150}|};
  Serve.Server.submit h.server (e6a4_line ~id:2 ~solver:"bnb" ());
  Serve.Server.submit h.server (e6a4_line ~id:3 ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  let bnb = Option.get (find_by_id h 2) and dflt = Option.get (find_by_id h 3) in
  Alcotest.(check (option string)) "queued bnb answered by bnb" (Some "verified (bnb)")
    (audit_of bnb);
  check_default_answer "queue: default request" dflt

(* unknown request members are ignored in both dialects, "strategy"
   included (older clients still send it): the request is answered by
   its solver or the server default *)
let test_serve_strategy_ignored () =
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server (solve_line ~id:1 ~extra:{|,"strategy":"portfolio"|} ());
  Serve.Server.submit h.server
    (solve_line ~id:2 ~nodes:24 ~extra:{|,"v":2,"strategy":"portfolio"|} ());
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iter
    (fun id ->
      match find_by_id h id with
      | None -> Alcotest.failf "request %d never answered" id
      | Some v ->
        Alcotest.(check string) (Printf.sprintf "id %d ok" id) "ok" (outcome_of v);
        Alcotest.(check (option string))
          (Printf.sprintf "id %d answered by the default solver" id)
          (Some "verified (exact)") (audit_of v))
    [ 1; 2 ];
  Alcotest.(check bool) "v2 reply echoes v" true
    (Option.bind (find_by_id h 2) (Serve.Json.member "v") = Some (Serve.Json.Num 2.))

(* instances with no admissible allocation answer infeasible on the
   wire, never "optimal" or an internal error: A's smallest sizes need 8
   of 5 nodes; B's only sweet spot, 64, lies past the 50-node budget *)
let test_serve_no_admissible_allocation () =
  let h = make_harness ~jobs:1 () in
  Serve.Server.submit h.server
    {|{"id":1,"model_csv":"a,4,100,0.1,1,1\nb,4,50,0.1,1,1","nodes":5,"objective":"max-min"}|};
  Serve.Server.submit h.server
    {|{"id":2,"model_csv":"a,1,100,0.1,1,1\nb,1,50,0.1,1,1","nodes":50,"allowed":[64],"objective":"min-max"}|};
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iter
    (fun id ->
      match find_by_id h id with
      | None -> Alcotest.failf "request %d never answered" id
      | Some v ->
        Alcotest.(check string) (Printf.sprintf "id %d outcome" id) "error" (outcome_of v);
        Alcotest.(check (option string))
          (Printf.sprintf "id %d error" id)
          (Some "no allocation: infeasible")
          (Option.bind (Serve.Json.member "error" v) Serve.Json.str))
    [ 1; 2 ]

(* non-finite numbers are refused where they enter, each with an exact
   diagnostic: NaN and infinite law coefficients in a model CSV, an
   observed sample of a resolve, and each numeric request field that
   would otherwise take infinity (1e999 reads as infinity): a resolve's
   epsilon, a deadline (read as none), a sleep (a worker held until
   drain) and a place section's memory per node *)
let test_serve_non_finite_inputs () =
  let cases =
    [
      ( {|{"id":1,"model_csv":"a,1,nan,0,1,1","nodes":8}|},
        "Model_store.of_csv: line 1: Scaling_law.make: coefficients must be finite: a,1,nan,0,1,1"
      );
      ( {|{"id":2,"model_csv":"a,1,inf,0,1,1","nodes":8}|},
        "Model_store.of_csv: line 1: Scaling_law.make: coefficients must be finite: a,1,inf,0,1,1"
      );
      ( resolve_line ~id:3 ~model:"a,1,100,0,1,1" ~prev:"[8]"
          ~extra:{|,"observe":[{"class":"a","samples":[[8,1e999]]}]|} (),
        {|field "observe": class "a": samples must be an array of [nodes, seconds] pairs of finite numbers (nodes >= 1, seconds >= 0)|}
      );
      ( resolve_line ~id:4 ~model:"a,1,100,0,1,1" ~prev:"[8]" ~extra:{|,"epsilon":1e999|} (),
        {|field "epsilon": must be finite and > 0|} );
      ( {|{"id":5,"model_csv":"a,1,100,0,1,1","nodes":8,"deadline_ms":1e999}|},
        {|field "deadline_ms": must be finite and > 0|} );
      ({|{"id":6,"op":"sleep","ms":1e999}|}, {|field "ms": must be finite and non-negative|});
      ( solve_line ~id:7
          ~extra:
            {|,"v":2,"place":{"topology":[2,2,2],"groups":4,"mem_per_node_gb":1e999,"mem_gb":[0.6,0.5],"comm_mb":[[0,3.5],[3.5,0]]}|}
          (),
        {|field "place.mem_per_node_gb": must be finite and positive|} );
    ]
  in
  let h = make_harness ~jobs:1 () in
  List.iter (fun (line, _) -> Serve.Server.submit h.server line) cases;
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iteri
    (fun i (_, msg) ->
      match find_by_id h (i + 1) with
      | None -> Alcotest.failf "request %d never answered" (i + 1)
      | Some v ->
        Alcotest.(check string) (Printf.sprintf "id %d outcome" (i + 1)) "error" (outcome_of v);
        Alcotest.(check (option string))
          (Printf.sprintf "id %d error" (i + 1))
          (Some msg)
          (Option.bind (Serve.Json.member "error" v) Serve.Json.str))
    cases

(* the wire takes up to a billion "nodes" (Json.int_limit, the cap on
   every integer field), and no objective walks a size range: a
   billion-node solve is answered within milliseconds, and the same
   solve allocates a few MB at most. Max-min and min-sum run on a b = 0
   model, whose curves fall all the way to the budget. *)
let test_serve_huge_budget () =
  let flat_csv = "alpha,4,100,0,1,0.5\nbeta,2,50,0,1,0.2" in
  let cases =
    [
      (Hslb.Objective.Min_max, model_csv, Some "verified (exact)");
      (Hslb.Objective.Max_min, flat_csv, Some "exact-method (hslb.bisection)");
      (Hslb.Objective.Min_sum, flat_csv, Some "exact-method (hslb.greedy)");
    ]
  in
  let h = make_harness ~jobs:1 () in
  List.iteri
    (fun id (objective, csv, _) ->
      Serve.Server.submit h.server
        (Printf.sprintf {|{"id":%d,"model_csv":%s,"nodes":1000000000,"objective":%S}|} id
           (Serve.Json.to_string (Serve.Json.Str csv))
           (Hslb.Objective.to_string objective)))
    cases;
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iteri
    (fun id (objective, csv, audit) ->
      let name = Hslb.Objective.to_string objective in
      let v = Option.get (find_by_id h id) in
      Alcotest.(check string) (name ^ " ok") "ok" (outcome_of v);
      Alcotest.(check (option string)) (name ^ " certified") audit (audit_of v);
      let solve_ms =
        Option.bind (Serve.Json.member "telemetry" v) (fun t ->
            Option.bind (Serve.Json.member "solve_wall_ms" t) Serve.Json.num)
      in
      (match solve_ms with
      | Some ms when ms < 100. -> ()
      | Some ms -> Alcotest.failf "billion-node %s solve took %.1f ms" name ms
      | None -> Alcotest.fail "no solve_wall_ms");
      let specs = Hslb.Model_store.specs_of_csv csv in
      let before = Gc.allocated_bytes () in
      (match Hslb.Alloc_model.solve ~objective ~n_total:1_000_000_000 specs with
      | Ok a ->
        (* rounding makes consecutive sizes' keys tie or rise out here;
           the walk must still stay inside the budget *)
        let used =
          List.fold_left2
            (fun acc (s : Hslb.Alloc_model.spec) n ->
              acc + (s.fc.Hslb.Classes.cls.Hslb.Classes.count * n))
            0 specs
            (Array.to_list a.Hslb.Alloc_model.nodes_per_task)
        in
        if used > 1_000_000_000 then Alcotest.failf "%s allocation uses %d nodes" name used
      | Error st ->
        Alcotest.failf "in-process %s solve: %s" name (Minlp.Solution.status_to_string st));
      let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
      if mb > 16. then Alcotest.failf "billion-node %s solve allocated %.1f MB" name mb)
    cases

(* the solves of an arena scenario replay (what `hslb loadgen
   --scenario` sends for ci.sh's quick steady zoo) are each answered
   ok, and each reply carries a verified audit *)
let test_serve_scenario_replay_audited () =
  let sc =
    Arena.Scenario.generate ~phases:4 ~tasks_per_phase:24 Arena.Scenario.Steady ~seed:42
  in
  let solves =
    List.filter
      (fun r -> Serve.Json.member "op" r = Some (Serve.Json.Str "solve"))
      (Serve.Loadgen.trace_of_scenario sc)
  in
  let h = make_harness ~jobs:1 ~queue_limit:(List.length solves) () in
  List.iteri
    (fun i r ->
      match r with
      | Serve.Json.Obj fs ->
        Serve.Server.submit h.server
          (Serve.Json.to_string (Serve.Json.Obj (("id", Serve.Json.Num (float_of_int i)) :: fs)))
      | _ -> Alcotest.fail "trace element is not an object")
    solves;
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  Alcotest.(check int) "every solve answered" (List.length solves) (List.length (responses h));
  List.iter
    (fun v ->
      Alcotest.(check string) "ok" "ok" (outcome_of v);
      match audit_of v with
      | Some a when String.starts_with ~prefix:"verified (" a -> ()
      | a ->
        Alcotest.failf "audit %s in %s"
          (Option.value a ~default:"missing")
          (Serve.Json.to_string v))
    (responses h)

(* loadgen's result tallies every reply's audit verdict and every line
   that does not parse: a replay against scripted replies *)
let test_loadgen_tallies_audits () =
  let script = function
    | 0 -> [ {|{"id":0,"outcome":"ok","audit":"verified (exact)"}|} ]
    | 1 -> [ {|{"id":1,"outcome":"ok","audit":"exact-method (hslb.greedy)"}|} ]
    | 2 -> [ {|{"id":2,"outcome":"ok","audit":"REJECTED: witness off its box"}|} ]
    | 3 -> [ {|{"id":3,"outcome":"ok","aud|}; {|{"id":3,"outcome":"error","error":"x"}|} ]
    | 4 -> [ {|{"id":4,"outcome":"ok","audit":"no certificate emitted"}|} ]
    | id -> [ Printf.sprintf {|{"id":%d,"outcome":"ok","stats":{}}|} id ]
  in
  let submit ~reply line =
    match Option.bind (Result.to_option (Serve.Json.parse line)) (Serve.Json.member "id") with
    | Some (Serve.Json.Num id) -> List.iter reply (script (int_of_float id))
    | _ -> Alcotest.failf "request without an id: %s" line
  in
  let trace = List.init 5 (fun _ -> Serve.Json.Obj [ ("op", Serve.Json.Str "ping") ]) in
  let r = Serve.Loadgen.run (Serve.Loadgen.Inproc submit) trace in
  Alcotest.(check int) "all answered" 5 r.Serve.Loadgen.answered;
  Alcotest.(check (list (pair string int)))
    "audits by verdict"
    [ ("verified", 1); ("exact-method", 1); ("rejected", 2) ]
    r.Serve.Loadgen.audits;
  Alcotest.(check int) "malformed lines" 1 r.Serve.Loadgen.malformed;
  let json = Serve.Json.to_string (Serve.Loadgen.result_json r) in
  List.iter
    (fun member ->
      Alcotest.(check bool) ("result JSON carries " ^ member) true
        (contains_substring json member))
    [ {|"audits":{"verified":1,"exact-method":1,"rejected":2}|}; {|"malformed":1|} ]

(* inputs past the wire's caps are refused where they are parsed, each
   with an exact diagnostic, and the server goes on to answer the ping
   behind them. An integral "nodes" past the integer cap is told the
   cap (a non-integer keeps the type diagnostic). A place section is
   refused before any torus is built: x·y·z overflowing to 0, an array
   too large to allocate, a torus needing tens of GB, and a group count
   past 1,024. *)
let test_serve_input_caps () =
  let nodes n id = Printf.sprintf {|{"id":%d,"model_csv":"a,1,1,0,1,0","nodes":%s}|} id n in
  let place topology groups id =
    solve_line ~id
      ~extra:
        (Printf.sprintf
           {|,"v":2,"place":{"topology":%s,"groups":%d,"mem_per_node_gb":1.0,"mem_gb":[0.6,0.5],"comm_mb":[[0,3.5],[3.5,0]]}|}
           topology groups)
      ()
  in
  let torus_error dims =
    Printf.sprintf {|field "place.topology": must have at most 262144 nodes, got %s|} dims
  in
  let cases =
    [
      (nodes "10000000000", {|field "nodes": must be <= 1000000000, got 10000000000|});
      (nodes "9007199254740992", {|field "nodes": must be <= 1000000000, got 9007199254740992|});
      ( nodes "1000000000000000000",
        {|field "nodes": must be <= 1000000000, got 1000000000000000000|} );
      (nodes "1.5", {|field "nodes": expected a positive integer|});
      (place "[2097152,2097152,2097152]" 4, torus_error "2097152x2097152x2097152");
      ( place "[1000000000,1000000000,1000000000]" 4,
        torus_error "1000000000x1000000000x1000000000" );
      (place "[1000,1000,1000]" 4, torus_error "1000x1000x1000");
      (place "[64,64,64]" 2048, {|field "place.groups": must be <= 1024, got 2048|});
    ]
  in
  let h = make_harness ~jobs:1 () in
  List.iteri (fun i (line, _) -> Serve.Server.submit h.server (line (i + 1))) cases;
  Serve.Server.submit h.server {|{"id":99,"op":"ping"}|};
  ignore (Serve.Server.await_drain h.server : Engine.Run_report.t);
  List.iteri
    (fun i (_, msg) ->
      match find_by_id h (i + 1) with
      | None -> Alcotest.failf "request %d unanswered" (i + 1)
      | Some v ->
        Alcotest.(check string) (Printf.sprintf "id %d outcome" (i + 1)) "error" (outcome_of v);
        Alcotest.(check (option string)) msg (Some msg)
          (Option.bind (Serve.Json.member "error" v) Serve.Json.str))
    cases;
  match find_by_id h 99 with
  | Some v ->
    Alcotest.(check bool) "pong" true (Serve.Json.member "pong" v = Some (Serve.Json.Bool true))
  | None -> Alcotest.fail "ping behind the refused inputs unanswered"

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode + errors" `Quick test_json_unicode_and_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
          Alcotest.test_case "version negotiation" `Quick test_protocol_version;
          Alcotest.test_case "resolve op" `Quick test_protocol_resolve;
          Alcotest.test_case "policy hint" `Quick test_protocol_policy;
          Alcotest.test_case "place section" `Quick test_protocol_place;
          Alcotest.test_case "place fingerprint" `Quick test_protocol_place_fingerprint;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |]))
            [ prop_parse_bytes; prop_parse_truncated; prop_parse_objects ] );
      ( "server",
        [
          Alcotest.test_case "concurrent solves" `Quick test_serve_concurrent_solves;
          Alcotest.test_case "overload admission" `Quick test_serve_overload;
          Alcotest.test_case "deadline expired in queue" `Quick test_serve_deadline_expired;
          Alcotest.test_case "own deadlines" `Quick test_serve_own_deadlines;
          Alcotest.test_case "bounded admission" `Quick test_serve_bounded_admission;
          Alcotest.test_case "cache hit" `Quick test_serve_cache_hit;
          Alcotest.test_case "policy hint answered" `Quick test_serve_policy_hint;
          Alcotest.test_case "policy per request" `Quick test_serve_policy_per_request;
          Alcotest.test_case "drain rejects + joins" `Quick test_serve_drain_rejects_and_joins;
          Alcotest.test_case "drain grace cancels" `Quick test_serve_drain_grace_cancels;
          Alcotest.test_case "protocol error + ping" `Quick test_serve_protocol_error_and_ping;
          Alcotest.test_case "stats latency quantiles" `Quick test_serve_stats_latency;
          Alcotest.test_case "telemetry fields" `Quick test_serve_telemetry_fields;
          Alcotest.test_case "resolve unchanged" `Quick test_serve_resolve_unchanged;
          Alcotest.test_case "resolve re-solves on drift" `Quick test_serve_resolve_resolved;
          Alcotest.test_case "resolve prev mismatch" `Quick test_serve_resolve_prev_mismatch;
          Alcotest.test_case "version compat" `Quick test_serve_version_compat;
          Alcotest.test_case "place annotation" `Quick test_serve_place_annotation;
          Alcotest.test_case "answers keyed by solver" `Quick test_serve_solver_keyed;
          Alcotest.test_case "strategy member ignored" `Quick test_serve_strategy_ignored;
          Alcotest.test_case "no admissible allocation is infeasible" `Quick
            test_serve_no_admissible_allocation;
          Alcotest.test_case "non-finite inputs" `Quick test_serve_non_finite_inputs;
          Alcotest.test_case "billion-node budget" `Quick test_serve_huge_budget;
          Alcotest.test_case "scenario replay audited" `Quick test_serve_scenario_replay_audited;
          Alcotest.test_case "input caps" `Quick test_serve_input_caps;
          Alcotest.test_case "loadgen tallies audits" `Quick test_loadgen_tallies_audits;
        ] );
    ]
