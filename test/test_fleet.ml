(* Fleet-layer tests: the consistent-hash ring (determinism, balance,
   ~1/N movement under membership change), the socket transport's wire
   behaviour (framing, the exact numeric-"op" diagnostic, drain), and
   the router end-to-end over two attached backends — sharding by
   fingerprint, cache locality, fan-out aggregation, fleet
   drain, and ring shrink when an attached backend dies. *)

let wait_until ?(timeout = 20.0) msg f =
  let rec go left =
    if f () then ()
    else if left <= 0. then Alcotest.failf "timed out waiting for %s" msg
    else (
      Unix.sleepf 0.01;
      go (left -. 0.01))
  in
  go timeout

(* ---------- Ring ---------- *)

let keys n = List.init n (Printf.sprintf "key-%d")

let test_ring_deterministic () =
  let open Serve.Ring in
  let a = make ~vnodes:64 [ "b0"; "b1"; "b2" ] in
  (* insertion order must not matter: the ring is a pure function of
     the member set *)
  let b = make ~vnodes:64 [ "b2"; "b0"; "b1" ] in
  List.iter
    (fun k ->
      let owner = shard a k in
      Alcotest.(check string) ("stable " ^ k) owner (shard a k);
      Alcotest.(check string) ("order-independent " ^ k) owner (shard b k))
    (keys 500);
  (* equal fingerprints shard equally — the property the router's
     cache locality rests on *)
  let csv = "alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2" in
  let spec model =
    Serve.Protocol.
      {
        model;
        n_total = 32;
        objective = Hslb.Objective.Min_max;
        deadline_ms = None;
        solver = None;
        allowed = None;
        place = None;
      }
  in
  let fp m =
    match Serve.Protocol.fingerprint (spec m) with
    | Ok f -> f
    | Error e -> Alcotest.failf "fingerprint: %s" e
  in
  let f1 = fp (`Inline csv) and f2 = fp (`Inline csv) in
  Alcotest.(check string) "equal instances, equal fingerprints" f1 f2;
  Alcotest.(check string) "equal fingerprints, equal shard" (shard a f1) (shard a f2)

let test_ring_dedup_and_errors () =
  let open Serve.Ring in
  let t = make [ "x"; "y"; "x"; "y"; "x" ] in
  Alcotest.(check (list string)) "duplicates dropped" [ "x"; "y" ] (backends t);
  Alcotest.(check bool) "not empty" false (is_empty t);
  let e = make [] in
  Alcotest.(check bool) "empty" true (is_empty e);
  (match shard e "k" with
  | exception Invalid_argument _ -> ()
  | (_ : string) -> Alcotest.fail "shard on empty ring accepted");
  match make ~vnodes:0 [ "x" ] with
  | exception Invalid_argument _ -> ()
  | (_ : t) -> Alcotest.fail "vnodes 0 accepted"

let shard_counts ring ks =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun k ->
      let b = Serve.Ring.shard ring k in
      Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    ks;
  tbl

let test_ring_balance () =
  (* with enough points per backend no shard may hog the space: this
     is the property the fleet benchmark's cache-capacity margin rests
     on (a 512-vnode 2-ring split 48 keys ~24/24, not 11/37) *)
  let ks = keys 20_000 in
  let check_balance ~vnodes names lo hi =
    let ring = Serve.Ring.make ~vnodes names in
    let counts = shard_counts ring ks in
    List.iter
      (fun name ->
        let share =
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name))
          /. float_of_int (List.length ks)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d-ring share of %s in [%g,%g] (got %g)" (List.length names)
             name lo hi share)
          true
          (share >= lo && share <= hi))
      names
  in
  check_balance ~vnodes:512 [ "backend-0"; "backend-1" ] 0.40 0.60;
  check_balance ~vnodes:256 [ "a"; "b"; "c"; "d" ] 0.15 0.35

let test_ring_stability () =
  let open Serve.Ring in
  let ks = keys 10_000 in
  let before = make ~vnodes:128 [ "b0"; "b1"; "b2"; "b3" ] in
  let after = add before "b4" in
  let moved, stolen =
    List.fold_left
      (fun (moved, stolen) k ->
        let was = shard before k and is_now = shard after k in
        if was = is_now then (moved, stolen)
        else (moved + 1, stolen + if is_now = "b4" then 1 else 0))
      (0, 0) ks
  in
  (* adding the 5th backend remaps ~1/5 of the space... *)
  let frac = float_of_int moved /. float_of_int (List.length ks) in
  Alcotest.(check bool)
    (Printf.sprintf "add moves ~1/5 of keys (got %g)" frac)
    true
    (frac > 0.05 && frac < 0.40);
  (* ...and every moved key moves TO the newcomer — existing shards
     never trade keys among themselves, so their caches stay hot *)
  Alcotest.(check int) "moved keys all go to the new backend" moved stolen;
  (* removal is the exact inverse *)
  let shrunk = remove after "b4" in
  List.iter
    (fun k ->
      Alcotest.(check string) ("remove restores " ^ k) (shard before k) (shard shrunk k))
    ks;
  Alcotest.(check (list string)) "remove unknown is id" (backends before)
    (backends (remove before "nope"))

(* ---------- Protocol regression ---------- *)

let test_numeric_op_message () =
  (* the exact diagnostic is part of the wire contract now — clients
     match on it (see docs/SERVE.md) *)
  match Serve.Protocol.parse_line {|{"id":1,"op":7}|} with
  | { req = Error msg; _ } ->
    Alcotest.(check string) "numeric op diagnostic"
      {|field "op": expected a string, got a number|} msg
  | { req = Ok _; _ } -> Alcotest.fail "numeric op accepted"

(* ---------- Socket transport harness ---------- *)

let sock_counter = Atomic.make 0

let fresh_sock () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hslb-fleet-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add sock_counter 1))

let backend_core () =
  Serve.Service.core_of_server
    (Serve.Server.create
       {
         Serve.Server.jobs = 1;
         queue_limit = 16;
         cache_capacity = 8;
         drain_grace_s = 5.0;
       }
       ~emit:(fun _ -> ()))

(* one in-process serve backend behind a unix socket: Server core +
   Transport_socket listener + Transport.drive on its own domain —
   the same wiring `hslb serve --listen` uses, minus Service.run's
   process-level trimmings *)
type backend = {
  core : Serve.Service.core;
  sock : string;
  driver : unit Domain.t;
}

let start_backend () =
  let core = backend_core () in
  let sock = fresh_sock () in
  let listener =
    Serve.Transport_socket.listen
      ~stop:(fun () -> core.Serve.Service.draining ())
      (Serve.Transport_socket.Unix_path sock)
  in
  let driver =
    Domain.spawn (fun () ->
        Serve.Transport.drive
          (Serve.Transport_socket.listener listener)
          core.Serve.Service.submit;
        Serve.Transport_socket.shutdown listener)
  in
  { core; sock; driver }

(* a backend whose link dies with a request in flight, as a crashed
   process's would: it serves pings and stats through a real core, and
   closes the connection unanswered when a sleep arrives *)
let start_mortal_backend () =
  let core = backend_core () in
  let sock = fresh_sock () in
  let listener =
    Serve.Transport_socket.listen
      ~stop:(fun () -> core.Serve.Service.draining ())
      (Serve.Transport_socket.Unix_path sock)
  in
  let driver =
    Domain.spawn (fun () ->
        (match (Serve.Transport_socket.listener listener).Serve.Transport.accept () with
        | None -> ()
        | Some conn ->
          let rec loop () =
            match conn.Serve.Transport.read_line () with
            | None -> ()
            | Some line -> (
              match (Serve.Protocol.parse_line line).Serve.Protocol.req with
              | Ok (Serve.Protocol.Sleep _) -> conn.Serve.Transport.close ()
              | Ok _ | Error _ ->
                core.Serve.Service.submit ~reply:conn.Serve.Transport.write_line line;
                loop ())
          in
          loop ());
        Serve.Transport_socket.shutdown listener)
  in
  { core; sock; driver }

let stop_backend b =
  b.core.Serve.Service.initiate_drain ();
  let report = b.core.Serve.Service.await_drain () in
  Domain.join b.driver;
  report

let parse_json line =
  match Serve.Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

let outcome_of v =
  match Option.bind (Serve.Json.member "outcome" v) Serve.Json.str with
  | Some o -> o
  | None -> Alcotest.failf "response without outcome: %s" (Serve.Json.to_string v)

let recv_lines ?(timeout_s = 20.) client n =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go acc k =
    if k = 0 then List.rev_map parse_json acc
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out with %d/%d responses" (n - k) n
    else
      match Serve.Transport_socket.Client.recv client with
      | `Line l -> go (l :: acc) (k - 1)
      | `Timeout -> go acc k
      | `Eof -> Alcotest.failf "eof with %d/%d responses" (n - k) n
  in
  go [] n

let model_csv = "alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2"

let solve_line ?(id = 1) ?(nodes = 32) ?(extra = "") () =
  Printf.sprintf {|{"id":%d,"model_csv":%s,"nodes":%d%s}|} id
    (Serve.Json.to_string (Serve.Json.Str model_csv))
    nodes extra

let find_by_id vs id =
  match
    List.find_opt
      (fun v -> Serve.Json.member "id" v = Some (Serve.Json.Num (float_of_int id)))
      vs
  with
  | Some v -> v
  | None -> Alcotest.failf "no response with id %d" id

let test_socket_addr_parse () =
  let open Serve.Transport_socket in
  (match addr_of_string "unix:/tmp/x.sock" with
  | Ok (Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix addr");
  (match addr_of_string "tcp::9000" with
  | Ok (Tcp ("127.0.0.1", 9000)) -> ()
  | _ -> Alcotest.fail "tcp empty-host addr");
  (match addr_of_string "tcp:10.0.0.1:80" with
  | Ok (Tcp ("10.0.0.1", 80)) -> ()
  | _ -> Alcotest.fail "tcp addr");
  List.iter
    (fun bad ->
      match addr_of_string bad with
      | Error _ -> ()
      | Ok a -> Alcotest.failf "accepted %s as %s" bad (addr_to_string a))
    [ "nope"; "tcp:h"; "tcp:h:notaport"; "tcp:h:70000"; "unix:"; "" ]

let test_socket_e2e () =
  let b = start_backend () in
  Fun.protect
    ~finally:(fun () -> ignore (stop_backend b))
    (fun () ->
      let client =
        Serve.Transport_socket.Client.connect (Serve.Transport_socket.Unix_path b.sock)
      in
      let send l =
        Alcotest.(check bool) ("send " ^ l) true
          (Serve.Transport_socket.Client.send client l)
      in
      send {|{"id":1,"op":"ping"}|};
      send {|{"id":2,"op":7}|};
      send (solve_line ~id:3 ());
      let vs = recv_lines client 3 in
      Alcotest.(check string) "ping ok" "ok" (outcome_of (find_by_id vs 1));
      let err = find_by_id vs 2 in
      Alcotest.(check string) "numeric op rejected" "error" (outcome_of err);
      Alcotest.(check (option string))
        "numeric op wire diagnostic"
        (Some {|field "op": expected a string, got a number|})
        (Option.bind (Serve.Json.member "error" err) Serve.Json.str);
      Alcotest.(check string) "solve ok" "ok" (outcome_of (find_by_id vs 3));
      (* drain over the wire: ack arrives, then the server closes *)
      send {|{"id":4,"op":"drain"}|};
      let ack = find_by_id (recv_lines client 1) 4 in
      Alcotest.(check string) "drain acked" "ok" (outcome_of ack);
      wait_until "drain-initiated eof" (fun () ->
          match Serve.Transport_socket.Client.recv client with
          | `Eof -> true
          | `Line _ | `Timeout -> false);
      Serve.Transport_socket.Client.close client)

(* ---------- Router over attached backends ---------- *)

type sink = { mutex : Mutex.t; lines : string list ref }

let make_sink () = { mutex = Mutex.create (); lines = ref [] }

let sink_reply s l = Mutex.protect s.mutex (fun () -> s.lines := l :: !(s.lines))

let sink_lines s = List.rev (Mutex.protect s.mutex (fun () -> !(s.lines)))
let sink_values s = List.map parse_json (sink_lines s)

let int_member key v = Option.bind (Serve.Json.member key v) Serve.Json.int_

let with_two_backend_router f =
  let b0 = start_backend () and b1 = start_backend () in
  let attach name (b : backend) =
    Serve.Router.Attach { name; addr = Serve.Transport_socket.Unix_path b.sock }
  in
  let router =
    Serve.Router.create
      ~cfg:{ (Serve.Router.default_config ()) with Serve.Router.vnodes = 512 }
      ~events:(fun _ -> ())
      [ attach "backend-0" b0; attach "backend-1" b1 ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Router.await_drain router);
      (* the fleet drain fanned a drain op to both backends; their
         cores wind down on their own *)
      ignore (stop_backend b0);
      ignore (stop_backend b1))
    (fun () -> f router (b0, b1))

let backend_field v =
  match Option.bind (Serve.Json.member "backend" v) Serve.Json.str with
  | Some b -> b
  | None -> Alcotest.failf "response without backend field: %s" (Serve.Json.to_string v)

let test_router_shards_and_caches () =
  with_two_backend_router (fun router _ ->
      let s = make_sink () in
      let submit l = Serve.Router.submit router ~reply:(sink_reply s) l in
      (* two requests for the same instance plus one distinct: the
         twins must land on one backend, whose one worker solves the
         first and answers the second from its cache (an oa answer is
         stored at once); nothing reaches the other shard for that
         key *)
      let oa = {|,"solver":"oa"|} in
      submit (solve_line ~id:1 ~extra:oa ());
      submit (solve_line ~id:2 ~extra:oa ());
      submit (solve_line ~id:3 ~nodes:16 ());
      wait_until "3 solve answers" (fun () -> List.length (sink_values s) >= 3);
      let vs = sink_values s in
      List.iter
        (fun id ->
          Alcotest.(check string)
            (Printf.sprintf "id %d ok" id)
            "ok"
            (outcome_of (find_by_id vs id)))
        [ 1; 2; 3 ];
      let b1 = backend_field (find_by_id vs 1) in
      Alcotest.(check string) "equal instances, one shard" b1
        (backend_field (find_by_id vs 2));
      let cache_hit id =
        Option.bind (Serve.Json.member "telemetry" (find_by_id vs id)) (fun tele ->
            Option.bind (Serve.Json.member "cache_hit" tele) Serve.Json.bool_)
      in
      Alcotest.(check (option bool)) "first twin solved" (Some false) (cache_hit 1);
      Alcotest.(check (option bool)) "second twin a cache hit" (Some true) (cache_hit 2);
      (* fan-outs aggregate over both backends *)
      submit {|{"id":10,"op":"ping"}|};
      wait_until "ping answer" (fun () -> List.length (sink_values s) >= 4);
      let pong = find_by_id (sink_values s) 10 in
      Alcotest.(check string) "ping ok" "ok" (outcome_of pong);
      (match Serve.Json.member "backends" pong with
      | Some bs ->
        Alcotest.(check (option int)) "ping total" (Some 2)
          (Option.bind (Serve.Json.member "total" bs) Serve.Json.int_);
        Alcotest.(check (option int)) "ping ok count" (Some 2)
          (Option.bind (Serve.Json.member "ok" bs) Serve.Json.int_)
      | None -> Alcotest.fail "ping without backends aggregate");
      submit {|{"id":11,"op":"stats"}|};
      wait_until "stats answer" (fun () -> List.length (sink_values s) >= 5);
      let stats = find_by_id (sink_values s) 11 in
      match
        Option.bind (Serve.Json.member "stats" stats) (Serve.Json.member "backends")
      with
      | Some (Serve.Json.Obj fields) ->
        Alcotest.(check (list string))
          "stats carry both backends" [ "backend-0"; "backend-1" ]
          (List.sort compare (List.map fst fields))
      | _ -> Alcotest.failf "stats missing backends: %s" (Serve.Json.to_string stats))

let test_router_resolve_passthrough () =
  with_two_backend_router (fun router _ ->
      let s = make_sink () in
      let single = Serve.Json.to_string (Serve.Json.Str "alpha,4,100,0.001,1,0.5") in
      (* a solve and a resolve of the same base must shard by the same
         fingerprint, so the resolve lands where the history lives *)
      Serve.Router.submit router ~reply:(sink_reply s)
        (Printf.sprintf {|{"id":41,"model_csv":%s,"nodes":32}|} single);
      Serve.Router.submit router ~reply:(sink_reply s)
        (Printf.sprintf {|{"id":42,"v":2,"op":"resolve","model_csv":%s,"nodes":32,"prev":[8]}|}
           single);
      wait_until "solve + resolve answers" (fun () -> List.length (sink_values s) >= 2);
      let vs = sink_values s in
      let solve = find_by_id vs 41 and resolve = find_by_id vs 42 in
      Alcotest.(check string) "solve ok" "ok" (outcome_of solve);
      Alcotest.(check string) "resolve ok" "ok" (outcome_of resolve);
      Alcotest.(check (option string)) "certified unchanged" (Some "unchanged")
        (Option.bind (Serve.Json.member "resolve" resolve) Serve.Json.str);
      Alcotest.(check bool) "version survives the router" true
        (Serve.Json.member "v" resolve = Some (Serve.Json.Num 2.));
      Alcotest.(check string) "same shard as the solve" (backend_field solve)
        (backend_field resolve))

let test_router_drain_rejects () =
  with_two_backend_router (fun router _ ->
      let s = make_sink () in
      Serve.Router.initiate_drain router;
      Alcotest.(check bool) "draining" true (Serve.Router.draining router);
      Serve.Router.submit router ~reply:(sink_reply s) (solve_line ~id:21 ());
      wait_until "draining rejection" (fun () -> sink_values s <> []);
      Alcotest.(check string) "solve refused while draining" "draining"
        (outcome_of (find_by_id (sink_values s) 21)))

let test_router_attached_death_shrinks_ring () =
  let b0 = start_backend () and b1 = start_backend () in
  let attach name (b : backend) =
    Serve.Router.Attach { name; addr = Serve.Transport_socket.Unix_path b.sock }
  in
  let router =
    Serve.Router.create
      ~events:(fun _ -> ())
      [ attach "backend-0" b0; attach "backend-1" b1 ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Router.await_drain router);
      ignore (stop_backend b0);
      ignore (stop_backend b1))
    (fun () ->
      let s = make_sink () in
      let submit l = Serve.Router.submit router ~reply:(sink_reply s) l in
      (* kill backend-1 out from under the router: an attached death
         shrinks the ring instead of respawning *)
      ignore (stop_backend b1);
      (* pings answer asynchronously, so any pong may carry the news;
         their ids stay clear of the solves' below *)
      let next_id = ref 1000 in
      wait_until "router notices the death" (fun () ->
          incr next_id;
          submit (Printf.sprintf {|{"id":%d,"op":"ping"}|} !next_id);
          List.exists
            (fun v ->
              Option.bind (Serve.Json.member "id" v) Serve.Json.int_
              |> Option.fold ~none:false ~some:(fun id -> id > 1000)
              &&
              match Serve.Json.member "backends" v with
              | Some bs ->
                Option.bind (Serve.Json.member "ok" bs) Serve.Json.int_ = Some 1
              | None -> false)
            (sink_values s));
      (* every distinct key now shards to the survivor and still solves *)
      let ids = [ 201; 202; 203; 204 ] in
      List.iteri (fun i id -> submit (solve_line ~id ~nodes:(16 + i) ())) ids;
      wait_until "solves answered by the survivor" (fun () ->
          List.for_all
            (fun id ->
              List.exists
                (fun v ->
                  Serve.Json.member "id" v
                  = Some (Serve.Json.Num (float_of_int id)))
                (sink_values s))
            ids);
      let vs = sink_values s in
      List.iter
        (fun id ->
          let v = find_by_id vs id in
          Alcotest.(check string) (Printf.sprintf "id %d ok" id) "ok" (outcome_of v);
          Alcotest.(check string)
            (Printf.sprintf "id %d on the survivor" id)
            "backend-0" (backend_field v))
        ids)

let test_router_drain_report () =
  let b0 = start_backend () and b1 = start_backend () in
  let router =
    Serve.Router.create
      ~events:(fun _ -> ())
      [
        Attach { name = "backend-0"; addr = Serve.Transport_socket.Unix_path b0.sock };
        Attach { name = "backend-1"; addr = Serve.Transport_socket.Unix_path b1.sock };
      ]
  in
  let s = make_sink () in
  Serve.Router.submit router ~reply:(sink_reply s) (solve_line ~id:1 ());
  wait_until "answer before drain" (fun () -> sink_values s <> []);
  let report = Serve.Router.await_drain router in
  Alcotest.(check string) "router report solver" "route"
    report.Engine.Run_report.solver;
  Alcotest.(check string) "router report status" "drained"
    report.Engine.Run_report.status;
  ignore (stop_backend b0);
  ignore (stop_backend b1);
  Alcotest.(check bool) "draining after await" true (Serve.Router.draining router)

(* every reply the router writes itself answers in the client's
   version: at v2 "v" is the second member *)
let test_router_versioned_replies () =
  let b = start_mortal_backend () in
  let router =
    Serve.Router.create
      ~events:(fun _ -> ())
      [ Attach { name = "backend-0"; addr = Serve.Transport_socket.Unix_path b.sock } ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Router.await_drain router);
      ignore (stop_backend b))
    (fun () ->
      let s = make_sink () in
      let answer line id =
        Serve.Router.submit router ~reply:(sink_reply s) line;
        wait_until (Printf.sprintf "answer %d" id) (fun () ->
            List.exists
              (fun v -> Serve.Json.member "id" v = Some (Serve.Json.Num (float_of_int id)))
              (sink_values s));
        find_by_id (sink_values s) id
      in
      let check_v2 what = function
        | Serve.Json.Obj (_ :: ("v", Serve.Json.Num 2.) :: _) -> ()
        | r -> Alcotest.failf "%s: \"v\":2 is not the second member of %s" what
                 (Serve.Json.to_string r)
      in
      let check_range what r =
        Alcotest.(check (option string))
          (what ^ " advertises the protocol range")
          (Some {|{"min":1,"max":2}|})
          (Option.map Serve.Json.to_string (Serve.Json.member "protocol" r))
      in
      ignore (answer {|{"id":1,"op":"ping"}|} 1);
      Alcotest.(check bool) "v1 ping bytes through the router" true
        (List.mem {|{"id":1,"outcome":"ok","pong":true,"backends":{"total":1,"ok":1}}|}
           (sink_lines s));
      let ping = answer {|{"id":2,"v":2,"op":"ping"}|} 2 in
      check_v2 "ping" ping;
      check_range "ping" ping;
      let stats = answer {|{"id":3,"v":2,"op":"stats"}|} 3 in
      check_v2 "stats" stats;
      check_range "stats" stats;
      (* the backend dies (its link closes) with the sleep unanswered:
         the router answers for it *)
      Serve.Router.submit router ~reply:(sink_reply s) {|{"id":4,"v":2,"op":"sleep","ms":1000}|};
      wait_until "orphaned sleep answered" (fun () ->
          List.exists
            (fun v -> Serve.Json.member "id" v = Some (Serve.Json.Num 4.))
            (sink_values s));
      let orphan = find_by_id (sink_values s) 4 in
      check_v2 "orphaned sleep" orphan;
      Alcotest.(check string) "orphaned sleep outcome" "error" (outcome_of orphan);
      Alcotest.(check (option string)) "orphaned sleep error"
        (Some "backend backend-0 died before answering")
        (Option.bind (Serve.Json.member "error" orphan) Serve.Json.str);
      (* a torus whose x*y*z overflows is refused where the router
         parses it, before it fingerprints the instance *)
      let torus =
        answer
          {|{"id":6,"v":2,"model_csv":"a,1,1,0,1,0","nodes":8,"place":{"topology":[2097152,2097152,2097152],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.5],"comm_mb":[[0]]}}|}
          6
      in
      check_v2 "oversize torus" torus;
      Alcotest.(check (option string)) "oversize torus error"
        (Some {|field "place.topology": must have at most 262144 nodes, got 2097152x2097152x2097152|})
        (Option.bind (Serve.Json.member "error" torus) Serve.Json.str);
      check_v2 "drain" (answer {|{"id":5,"v":2,"op":"drain"}|} 5))

(* ---------- Router replies: the backend's bytes, the client's id ---------- *)

(* The reply a router wrote before it spliced bytes: the backend line
   parsed, its id dropped, the client's id first and "backend" last,
   printed again. Kept as the oracle the spliced reply must equal. *)
let tree_reply ~orig ~backend line =
  match Serve.Json.parse line with
  | Ok (Serve.Json.Obj fields) ->
    Serve.Protocol.response ~id:orig
      (List.filter (fun (k, _) -> k <> "id") fields @ [ ("backend", Serve.Json.Str backend) ])
  | Ok _ | Error _ -> Alcotest.failf "not a JSON object: %s" line

(* Lines a real serve core writes, one per outcome and dialect: ok and
   error in v1 and v2, expired and overloaded behind a sleep-held
   worker, both resolve verdicts, and draining *)
let server_replies () =
  let server =
    Serve.Server.create
      {
        Serve.Server.jobs = 1;
        queue_limit = 1;
        cache_capacity = 8;
        drain_grace_s = 5.0;
      }
      ~emit:(fun _ -> ())
  in
  let s = make_sink () in
  let submit l = Serve.Server.submit ~reply:(sink_reply s) server l in
  let await n =
    wait_until (Printf.sprintf "%d server replies" n) (fun () ->
        List.length (sink_lines s) >= n)
  in
  let csv = Serve.Json.to_string (Serve.Json.Str model_csv) in
  let single = Serve.Json.to_string (Serve.Json.Str "alpha,4,100,0.001,1,0.5") in
  submit {|{"id":1,"op":"sleep","ms":200}|};
  wait_until "sleep picked up" (fun () ->
      int_member "queue_depth" (parse_json (Serve.Server.stats_json server)) = Some 0);
  submit (Printf.sprintf {|{"id":2,"v":2,"model_csv":%s,"nodes":32,"deadline_ms":1}|} csv);
  submit (solve_line ~id:3 ());
  submit (Printf.sprintf {|{"id":4,"v":2,"model_csv":%s,"nodes":32}|} csv);
  await 4;
  List.iter submit
    [
      solve_line ~id:5 ();
      Printf.sprintf {|{"id":6,"v":2,"model_csv":%s,"nodes":16}|} csv;
      solve_line ~id:7 ~nodes:0 ();
    ];
  await 7;
  List.iter submit
    [
      Printf.sprintf {|{"id":8,"v":2,"model_csv":%s}|} csv;
      Printf.sprintf {|{"id":9,"v":2,"op":"resolve","model_csv":%s,"nodes":32,"prev":[8]}|} single;
    ];
  await 9;
  submit
    (Printf.sprintf
       {|{"id":10,"v":2,"op":"resolve","model_csv":%s,"nodes":32,"prev":[4],"observe":[{"class":"alpha","samples":[[2,100.5],[4,50.5],[8,25.5],[16,13.0]]}]}|}
       single);
  await 10;
  Serve.Server.initiate_drain server;
  submit (solve_line ~id:11 ());
  submit (Printf.sprintf {|{"id":12,"v":2,"model_csv":%s,"nodes":32}|} csv);
  await 12;
  ignore (Serve.Server.await_drain server : Engine.Run_report.t);
  let lines = sink_lines s in
  let outcomes = List.sort_uniq compare (List.map (fun l -> outcome_of (parse_json l)) lines) in
  Alcotest.(check (list string)) "every outcome captured"
    [ "draining"; "error"; "expired"; "ok"; "overloaded" ] outcomes;
  List.iter
    (fun verdict ->
      Alcotest.(check bool) ("a resolve " ^ verdict) true
        (List.exists
           (fun l -> Serve.Json.member "resolve" (parse_json l) = Some (Serve.Json.Str verdict))
           lines))
    [ "unchanged"; "resolved" ];
  Array.of_list lines

(* [line] with its leading {"id":N replaced by {"id":iid; a line that
   opens otherwise goes out as it is *)
let with_id iid line =
  let head = {|{"id":|} in
  let rec digits j =
    if j < String.length line && line.[j] >= '0' && line.[j] <= '9' then digits (j + 1) else j
  in
  let stop = digits (String.length head) in
  if not (String.starts_with ~prefix:head line) then line
  else head ^ string_of_int iid ^ String.sub line stop (String.length line - stop)

(* A scripted backend: it answers each forwarded request with the raw
   line in the request's "emit" member, under the request's internal
   id; a request without one closes the link, as a crashed backend's
   would *)
let start_scripted_backend () =
  let sock = fresh_sock () in
  let listener =
    Serve.Transport_socket.listen ~stop:(fun () -> false) (Serve.Transport_socket.Unix_path sock)
  in
  let driver =
    Domain.spawn (fun () ->
        (match (Serve.Transport_socket.listener listener).Serve.Transport.accept () with
        | None -> ()
        | Some conn ->
          let rec loop () =
            match conn.Serve.Transport.read_line () with
            | None -> ()
            | Some line -> (
              let req = parse_json line in
              let emit = Option.bind (Serve.Json.member "emit" req) Serve.Json.str in
              match (int_member "id" req, emit) with
              | Some iid, Some emit ->
                conn.Serve.Transport.write_line (with_id iid emit);
                loop ()
              | _ -> conn.Serve.Transport.close ())
          in
          loop ());
        Serve.Transport_socket.shutdown listener)
  in
  (sock, driver)

let with_scripted_router f =
  let sock, driver = start_scripted_backend () in
  let events = make_sink () in
  let router =
    Serve.Router.create ~events:(sink_reply events)
      [ Attach { name = "backend-0"; addr = Serve.Transport_socket.Unix_path sock } ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Router.await_drain router : Engine.Run_report.t);
      Domain.join driver)
    (fun () -> f router events)

(* a sleep whose answer is [emit], under client id [id] *)
let emit_request ~id emit =
  Serve.Json.to_string
    (Serve.Json.Obj
       [
         ("id", id);
         ("op", Serve.Json.Str "sleep");
         ("ms", Serve.Json.Num 0.);
         ("emit", Serve.Json.Str emit);
       ])

let test_router_bad_backend_lines () =
  let ok =
    List.find (fun l -> int_member "id" (parse_json l) = Some 5) (Array.to_list (server_replies ()))
  in
  Alcotest.(check string) "captured an ok solve" "ok" (outcome_of (parse_json ok));
  with_scripted_router (fun router events ->
      let s = make_sink () in
      let submit id emit =
        Serve.Router.submit router ~reply:(sink_reply s) (emit_request ~id emit)
      in
      let num n = Serve.Json.Num (float_of_int n) in
      (* (a) a well-formed answer: the old tree path's bytes *)
      submit (num 1) ok;
      wait_until "well-formed answer" (fun () -> sink_lines s <> []);
      Alcotest.(check (list string)) "well-formed answer, byte for byte"
        [ tree_reply ~orig:(num 1) ~backend:"backend-0" ok ]
        (sink_lines s);
      (* (b) an id prefix on a malformed body, (c) a line cut short,
         (d) valid JSON that is not an object *)
      submit (num 2) {|{"id":0,"outcome":"ok","makespan":}|};
      submit (num 3) (String.sub ok 0 (String.length ok / 2));
      submit (num 5) "[1]";
      let garbage = {|{"event":"backend_garbage","backend":"backend-0"}|} in
      wait_until "three garbage events" (fun () ->
          List.length (List.filter (( = ) garbage) (sink_lines events)) = 3);
      Alcotest.(check int) "garbage reached no client" 1 (List.length (sink_lines s));
      Alcotest.(check (option int)) "counted as protocol errors" (Some 3)
        (int_member "protocol_errors" (parse_json (Serve.Router.stats_json router)));
      (* the link closes: the three requests still owed are answered *)
      Serve.Router.submit router ~reply:(sink_reply s) {|{"id":4,"op":"sleep","ms":0}|};
      wait_until "owed requests answered" (fun () -> List.length (sink_lines s) = 5);
      let vs = sink_values s in
      List.iter
        (fun id ->
          let v = find_by_id vs id in
          Alcotest.(check string) (Printf.sprintf "id %d outcome" id) "error" (outcome_of v);
          Alcotest.(check (option string)) (Printf.sprintf "id %d error" id)
            (Some "backend backend-0 died before answering")
            (Option.bind (Serve.Json.member "error" v) Serve.Json.str))
        [ 2; 3; 4; 5 ])

(* the spliced reply equals the tree path's on every line a real serve
   core writes, under client ids of every shape *)
let test_router_reply_bytes () =
  let replies = server_replies () in
  with_scripted_router (fun router _ ->
      let m = Mutex.create () and c = Condition.create () and got = ref None in
      let sink line =
        Mutex.protect m (fun () ->
            got := Some line;
            Condition.signal c)
      in
      let roundtrip line =
        Serve.Router.submit router ~reply:sink line;
        Mutex.protect m (fun () ->
            while !got = None do
              Condition.wait c m
            done;
            let l = Option.get !got in
            got := None;
            l)
      in
      let id_gen =
        QCheck.Gen.(
          oneof
            [
              map (fun n -> Serve.Json.Num (float_of_int n)) (-1_000_000 -- 1_000_000);
              map (fun n -> Serve.Json.Num (float_of_int n /. 16.)) (-1_000_000 -- 1_000_000);
              map (fun x -> Serve.Json.Num x) (float_range (-1e300) 1e300);
              map (fun s -> Serve.Json.Str s) (string_size (0 -- 12));
              map (fun s -> Serve.Json.Str s) (string_size ~gen:printable (0 -- 12));
            ])
      in
      let prop =
        QCheck.Test.make ~name:"router reply = tree reply" ~count:1000
          (QCheck.make
             ~print:(fun (id, k) ->
               Printf.sprintf "id %s, reply %s" (Serve.Json.to_string id) replies.(k))
             QCheck.Gen.(pair id_gen (0 -- (Array.length replies - 1))))
          (fun (id, k) ->
            roundtrip (emit_request ~id replies.(k))
            = tree_reply ~orig:id ~backend:"backend-0" replies.(k))
      in
      QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |]) prop)

(* ---------- Service.run ---------- *)

(* the process lifecycle in-process: bind, announce, serve one
   connection, drain on a drain op, report *)
let test_service_run_listen () =
  let sock = fresh_sock () in
  let events = make_sink () in
  let run =
    Domain.spawn (fun () ->
        Serve.Service.run ~events:(sink_reply events)
          ~listen:(Some (Serve.Transport_socket.Unix_path sock))
          (backend_core ()))
  in
  wait_until "listening event" (fun () -> sink_lines events <> []);
  Alcotest.(check (list string)) "listening event names the bound address"
    [ Printf.sprintf {|{"event":"listening","addr":"unix:%s"}|} sock ]
    (sink_lines events);
  let client = Serve.Transport_socket.Client.connect (Serve.Transport_socket.Unix_path sock) in
  let send l =
    Alcotest.(check bool) ("send " ^ l) true (Serve.Transport_socket.Client.send client l)
  in
  send {|{"id":1,"op":"sleep","ms":1}|};
  Alcotest.(check string) "reply arrives" "ok"
    (outcome_of (find_by_id (recv_lines client 1) 1));
  send {|{"id":2,"op":"drain"}|};
  Alcotest.(check string) "drain acked" "ok" (outcome_of (find_by_id (recv_lines client 1) 2));
  let report = Domain.join run in
  Serve.Transport_socket.Client.close client;
  Alcotest.(check string) "run returns the drain report" "drained"
    report.Engine.Run_report.status;
  match List.rev (sink_values events) with
  | drained :: _ ->
    Alcotest.(check (option string)) "drained event last" (Some "drained")
      (Option.bind (Serve.Json.member "event" drained) Serve.Json.str);
    let counter k = Option.bind (Serve.Json.member "stats" drained) (int_member k) in
    Alcotest.(check (option int)) "accepted" (Some 1) (counter "accepted");
    Alcotest.(check (option int)) "served" (Some 1) (counter "served")
  | [] -> Alcotest.fail "no events"

(* a drain that ends the reader while a reply is still owed: the
   connection stays open until the sleep's reply is written *)
let test_service_drain_keeps_owed_replies () =
  let sock = fresh_sock () in
  let events = make_sink () in
  let run =
    Domain.spawn (fun () ->
        Serve.Service.run ~events:(sink_reply events)
          ~listen:(Some (Serve.Transport_socket.Unix_path sock))
          (backend_core ()))
  in
  wait_until "listening event" (fun () -> sink_lines events <> []);
  let client = Serve.Transport_socket.Client.connect (Serve.Transport_socket.Unix_path sock) in
  let send l =
    Alcotest.(check bool) ("send " ^ l) true (Serve.Transport_socket.Client.send client l)
  in
  send {|{"id":1,"op":"sleep","ms":300}|};
  send {|{"id":2,"op":"drain"}|};
  let vs = recv_lines client 2 in
  Alcotest.(check string) "sleep answered" "ok" (outcome_of (find_by_id vs 1));
  Alcotest.(check string) "drain acked" "ok" (outcome_of (find_by_id vs 2));
  wait_until "eof after the owed replies" (fun () ->
      match Serve.Transport_socket.Client.recv client with
      | `Eof -> true
      | `Line _ | `Timeout -> false);
  ignore (Domain.join run : Engine.Run_report.t);
  Serve.Transport_socket.Client.close client

(* a report path under a missing directory: the request is answered
   and the drained event still goes out, then run raises *)
(* a --metrics-out file that cannot be written is refused before the
   service binds or answers anything *)
let test_service_metrics_unwritable () =
  let sock = fresh_sock () in
  let metrics_out = Filename.concat (fresh_sock ()) "m.prom" in
  let events = make_sink () and core = backend_core () in
  (match
     Serve.Service.run ~metrics_out ~events:(sink_reply events)
       ~listen:(Some (Serve.Transport_socket.Unix_path sock))
       core
   with
  | _ -> Alcotest.fail "served with an unwritable --metrics-out"
  | exception Serve.Service.Metrics_unwritable (path, reason) ->
    Alcotest.(check string) "path" metrics_out path;
    Alcotest.(check string) "reason" "No such file or directory" reason);
  Alcotest.(check (list string)) "no event, no listener" [] (sink_lines events);
  Alcotest.(check bool) "socket never bound" false (Sys.file_exists sock);
  core.Serve.Service.initiate_drain ();
  ignore (core.Serve.Service.await_drain () : Engine.Run_report.t)

let test_service_report_unwritable () =
  let sock = fresh_sock () in
  (* a fresh path nobody created stands for the missing directory *)
  let report_path = Filename.concat (fresh_sock ()) "report.json" in
  let events = make_sink () in
  let run =
    Domain.spawn (fun () ->
        match
          Serve.Service.run ~report_path ~events:(sink_reply events)
            ~listen:(Some (Serve.Transport_socket.Unix_path sock))
            (backend_core ())
        with
        | _ -> None
        | exception Serve.Service.Report_unwritable (path, _) -> Some path)
  in
  wait_until "listening event" (fun () -> sink_lines events <> []);
  let client = Serve.Transport_socket.Client.connect (Serve.Transport_socket.Unix_path sock) in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("send " ^ l) true (Serve.Transport_socket.Client.send client l))
    [ {|{"id":1,"op":"sleep","ms":1}|}; {|{"id":2,"op":"drain"}|} ];
  let vs = recv_lines client 2 in
  Alcotest.(check string) "request answered" "ok" (outcome_of (find_by_id vs 1));
  Alcotest.(check (option string)) "raised for the report path" (Some report_path)
    (Domain.join run);
  Serve.Transport_socket.Client.close client;
  match List.rev (sink_values events) with
  | drained :: _ ->
    Alcotest.(check (option string)) "drained event last" (Some "drained")
      (Option.bind (Serve.Json.member "event" drained) Serve.Json.str)
  | [] -> Alcotest.fail "no events"

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "dedup + errors" `Quick test_ring_dedup_and_errors;
          Alcotest.test_case "balance" `Quick test_ring_balance;
          Alcotest.test_case "membership stability" `Quick test_ring_stability;
        ] );
      ( "protocol",
        [ Alcotest.test_case "numeric op diagnostic" `Quick test_numeric_op_message ] );
      ( "socket",
        [
          Alcotest.test_case "addr parse" `Quick test_socket_addr_parse;
          Alcotest.test_case "e2e + drain" `Quick test_socket_e2e;
        ] );
      ( "router",
        [
          Alcotest.test_case "shards + caches + fan-out" `Quick
            test_router_shards_and_caches;
          Alcotest.test_case "resolve passthrough" `Quick test_router_resolve_passthrough;
          Alcotest.test_case "drain rejects" `Quick test_router_drain_rejects;
          Alcotest.test_case "attached death shrinks ring" `Quick
            test_router_attached_death_shrinks_ring;
          Alcotest.test_case "drain report" `Quick test_router_drain_report;
          Alcotest.test_case "versioned replies" `Quick test_router_versioned_replies;
          Alcotest.test_case "bad backend lines" `Quick test_router_bad_backend_lines;
          Alcotest.test_case "reply bytes" `Quick test_router_reply_bytes;
        ] );
      ( "service",
        [
          Alcotest.test_case "run over a socket" `Quick test_service_run_listen;
          Alcotest.test_case "drain keeps owed replies" `Quick
            test_service_drain_keeps_owed_replies;
          Alcotest.test_case "unwritable report still drains" `Quick
            test_service_report_unwritable;
          Alcotest.test_case "unwritable metrics refused" `Quick test_service_metrics_unwritable;
        ] );
    ]
