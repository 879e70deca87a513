(* The fleet front-end behind [hslb route]: one Service.core that owns
   N backend serve processes and shards solve requests across them by
   instance fingerprint on a consistent-hash ring. Equal instances
   always land on the same backend, which keys its proven-optimal
   cache by the same fingerprint, so each cache stays shard-local and
   hot; ping/stats/drain fan out to every backend and aggregate.

   Multiplexing: client ids are arbitrary JSON scalars and two
   connections may reuse one, so the router never forwards them. Each
   forwarded request gets a fresh internal integer id; the inflight
   table maps it back to the original id and the reply sink of the
   connection it came from. The answer to a single request is the
   backend's own line, checked to be one JSON object, with the client's
   id spliced in and the backend's name appended. A backend death
   errors out that backend's inflight entries and (for router-spawned
   backends) re-spawns the process in place — the ring is untouched, so
   the shard map is stable across restarts. *)

type target =
  | Spawn of { name : string; prog : string; args : string list; sock : string }
      (* exec [prog args... --listen unix:sock], then connect *)
  | Attach of { name : string; addr : Transport_socket.addr }
      (* pre-started backend (tests, external fleets): connect only *)

let target_name = function Spawn { name; _ } -> name | Attach { name; _ } -> name

let spawn_targets ~prog ~args ~dir ~count =
  List.init count (fun i ->
      Spawn
        {
          name = Printf.sprintf "backend-%d" i;
          prog;
          args;
          sock = Filename.concat dir (Printf.sprintf "backend-%d.sock" i);
        })

type config = {
  vnodes : int;
  drain_grace_s : float;  (* await_drain: how long inflight may linger *)
  spawn_timeout_s : float;  (* a spawned backend's socket must appear *)
  respawn_limit : int;  (* per backend; exceeded -> stays dead *)
}

let default_config () =
  { vnodes = 64; drain_grace_s = 5.0; spawn_timeout_s = 10.0; respawn_limit = 3 }

type backend = {
  bname : string;
  btarget : target;
  mutable client : Transport_socket.Client.t option;
  mutable pid : int option;
  mutable alive : bool;
  mutable forwarded : int;
  mutable deaths : int;
  mutable respawns : int;
  mutable reader : unit Domain.t option;
}

(* one fan-out in flight: every live backend owes one answer *)
type agg = {
  aorig : Json.t;
  av : int;  (* the client's protocol version *)
  areply : (string -> unit) option;  (* None: internal drain fan-out *)
  akind : [ `Ping | `Stats | `Drain ];
  mutable waiting : int;
  mutable oks : int;
  mutable payloads : (string * Json.t) list;  (* backend -> extracted stats *)
}

type pending =
  | Single of { orig : Json.t; v : int; reply : string -> unit; sent_at : float }
  | Member of agg

type t = {
  cfg : config;
  events : string -> unit;
  emit_lock : Mutex.t;
  lock : Mutex.t;
  mutable ring : Ring.t;  (* shrinks only when an attached backend dies *)
  backends : backend list;
  inflight : (int, string * pending) Hashtbl.t;  (* internal id -> owner, owed answer *)
  mutable next_id : int;
  mutable rr : int;  (* round-robin cursor for sleeps *)
  mutable refusing : bool;  (* admission stopped (drain requested) *)
  mutable is_draining : bool;  (* terminal: transports unwind *)
  stopped : bool Atomic.t;  (* reader domains exit *)
  rtt_h : Obs.Metrics.Histogram.t;
  started : float;
  mutable n_requests : int;
  mutable n_forwarded : int;
  mutable n_errors : int;
  mutable n_deaths : int;
  mutable n_respawns : int;
  mutable n_protocol_errors : int;
}

let now () = Unix.gettimeofday ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* all reply sinks and the events sink share one lock: lines from the
   reader domains and the transport domains never interleave *)
let reply_line t sink line =
  Mutex.lock t.emit_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.emit_lock) (fun () -> sink line)

let event t fields = reply_line t t.events (Json.to_string (Json.Obj fields))

(* ---------- child process management ---------- *)

let exec_backend ~prog ~args ~sock =
  let argv = Array.of_list ((prog :: args) @ [ "--listen"; "unix:" ^ sock ]) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process prog argv devnull devnull Unix.stderr)

let reap ~grace_s pid =
  let deadline = now () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        match Unix.waitpid [] pid with
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      end
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let wait_for_socket ~timeout_s ~pid path =
  let deadline = now () +. timeout_s in
  let rec wait () =
    match Transport_socket.Client.connect (Transport_socket.Unix_path path) with
    | c -> Ok c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      let died =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      in
      if died then Error (Printf.sprintf "backend exited before opening %s" path)
      else if now () > deadline then
        Error
          (Printf.sprintf "backend socket %s did not appear in %.1fs" path timeout_s)
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
  in
  wait ()

let connect_target ~timeout_s (target : target) =
  match target with
  | Attach { addr; _ } -> (
    match Transport_socket.Client.connect addr with
    | c -> Ok (c, None)
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot attach %s: %s"
           (Transport_socket.addr_to_string addr)
           (Unix.error_message e)))
  | Spawn { prog; args; sock; _ } -> (
    let pid = exec_backend ~prog ~args ~sock in
    match wait_for_socket ~timeout_s ~pid sock with
    | Ok c -> Ok (c, Some pid)
    | Error msg ->
      reap ~grace_s:0.5 pid;
      Error msg)

(* ---------- stats ---------- *)

let stats_obj t =
  locked t (fun () ->
      Json.Obj
        [
          ("uptime_s", Json.Num (now () -. t.started));
          ("draining", Json.Bool t.refusing);
          ("requests", Json.Num (float_of_int t.n_requests));
          ("forwarded", Json.Num (float_of_int t.n_forwarded));
          ("errors", Json.Num (float_of_int t.n_errors));
          ("backend_deaths", Json.Num (float_of_int t.n_deaths));
          ("respawns", Json.Num (float_of_int t.n_respawns));
          ("protocol_errors", Json.Num (float_of_int t.n_protocol_errors));
          ("inflight", Json.Num (float_of_int (Hashtbl.length t.inflight)));
          ("rtt_ms", Obs.Metrics.Histogram.(summary_json (summary t.rtt_h)));
          ( "backends",
            Json.Arr
              (List.map
                 (fun b ->
                   Json.Obj
                     [
                       ("name", Json.Str b.bname);
                       ("alive", Json.Bool b.alive);
                       ("forwarded", Json.Num (float_of_int b.forwarded));
                       ("deaths", Json.Num (float_of_int b.deaths));
                       ("respawns", Json.Num (float_of_int b.respawns));
                     ])
                 t.backends) );
        ])

let stats_json t = Json.to_string (stats_obj t)

(* ---------- answering ---------- *)

(* every reply the router writes itself is in the client's version [v] *)
let answer_error t ~v ~id ~reply msg =
  locked t (fun () -> t.n_errors <- t.n_errors + 1);
  reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)

let finish_agg t (a : agg) =
  match a.areply with
  | None -> ()  (* internal drain fan-out: nobody to answer *)
  | Some reply -> (
    let total = List.length t.backends in
    let respond fields =
      reply_line t reply
        (Protocol.response ~v:a.av ~id:a.aorig (("outcome", Json.Str "ok") :: fields))
    in
    (* v2 discovers the protocol range through the fleet, as from one backend *)
    let advertised = if a.av >= 2 then [ ("protocol", Protocol.version_range) ] else [] in
    match a.akind with
    | `Ping ->
      respond
        ([
           ("pong", Json.Bool true);
           ( "backends",
             Json.Obj
               [
                 ("total", Json.Num (float_of_int total));
                 ("ok", Json.Num (float_of_int a.oks));
               ] );
         ]
        @ advertised)
    | `Stats ->
      respond
        (( "stats",
           Json.Obj [ ("router", stats_obj t); ("backends", Json.Obj (List.rev a.payloads)) ] )
        :: advertised)
    | `Drain ->
      respond [ ("draining", Json.Bool true); ("backends", Json.Num (float_of_int total)) ];
      (* the ack is out; now the router itself may unwind *)
      locked t (fun () -> t.is_draining <- true))

(* Answer in-flight entries that will never get a backend reply
   (already taken out of [inflight]): a single request is answered
   "backend OWNER [why]"; a fan-out member stops being waited for, and a
   fan-out left owing nothing is answered last. *)
let settle t entries why =
  let finished =
    List.filter_map
      (fun (owner, p) ->
        match p with
        | Single { orig; v; reply; _ } ->
          answer_error t ~v ~id:orig ~reply (Printf.sprintf "backend %s %s" owner why);
          None
        | Member a ->
          if
            locked t (fun () ->
                a.waiting <- a.waiting - 1;
                a.waiting = 0)
          then Some a
          else None)
      entries
  in
  List.iter (finish_agg t) finished

(* ---------- backend responses ---------- *)

(* Every backend answer opens with its internal id, {"id":N, the way
   Protocol.response writes it: the id and the offset just past N's
   digits, where a ',' or the closing '}' follows *)
let answer_id line =
  let head = "{\"id\":" in
  let h = String.length head and n = String.length line in
  let rec digits j = if j < n && line.[j] >= '0' && line.[j] <= '9' then digits (j + 1) else j in
  let stop = digits h in
  if String.starts_with ~prefix:head line && stop < n && (line.[stop] = ',' || line.[stop] = '}')
  then Option.map (fun iid -> (iid, stop)) (int_of_string_opt (String.sub line h (stop - h)))
  else None

(* A single request's answer is the backend's own bytes with the
   client's id in place of N and the backend named last: what the
   parsed line, its id swapped and a "backend" member appended, prints
   as, without building that tree *)
let client_reply ~orig ~backend line stop =
  let close = String.rindex line '}' in
  String.concat ""
    [
      "{\"id\":";
      Json.to_string orig;
      String.sub line stop (close - stop);
      ",\"backend\":";
      Json.to_string (Json.Str backend);
      "}";
    ]

let take_inflight t iid =
  locked t (fun () ->
      match Hashtbl.find_opt t.inflight iid with
      | None -> None
      | Some e ->
        Hashtbl.remove t.inflight iid;
        Some e)

(* a line must be one JSON object (Json.parse) before any of it reaches
   a client; anything else is garbage and answers nothing *)
let handle_backend_line t (b : backend) line =
  match Json.parse line with
  | Ok (Json.Obj _ as v) -> (
    match answer_id line with
    | None -> ()  (* not an answer to anything we sent *)
    | Some (iid, stop) -> (
      match take_inflight t iid with
      | None -> ()  (* already errored out (death race): drop the late answer *)
      | Some (_, Single { orig; reply; sent_at; v = _ }) ->
        Obs.Metrics.Histogram.observe t.rtt_h ((now () -. sent_at) *. 1000.);
        reply_line t reply (client_reply ~orig ~backend:b.bname line stop)
      | Some (_, Member a) ->
        let finished =
          locked t (fun () ->
              a.waiting <- a.waiting - 1;
              (match Json.member "outcome" v with
              | Some (Json.Str "ok") -> a.oks <- a.oks + 1
              | Some _ | None -> ());
              (match a.akind with
              | `Stats ->
                let payload =
                  Option.value (Json.member "stats" v) ~default:Json.Null
                in
                a.payloads <- (b.bname, payload) :: a.payloads
              | `Ping | `Drain -> ());
              a.waiting = 0)
        in
        if finished then finish_agg t a))
  | Ok _ | Error _ ->
    locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
    event t
      [
        ("event", Json.Str "backend_garbage");
        ("backend", Json.Str b.bname);
      ]

(* A backend's link dropped. [graceful] when it was told to drain —
   counters and events stay quiet; the inflight sweep still runs in
   case it died mid-drain owing answers. *)
let on_backend_down t (b : backend) ~graceful =
  let orphans =
    locked t (fun () ->
        b.alive <- false;
        b.client <- None;
        if not graceful then begin
          b.deaths <- b.deaths + 1;
          t.n_deaths <- t.n_deaths + 1;
          (* spawned backends come back under the same name, so the
             ring — and every other shard's locality — is untouched;
             an attached backend is gone for good *)
          match b.btarget with
          | Attach _ -> t.ring <- Ring.remove t.ring b.bname
          | Spawn _ -> ()
        end;
        let mine =
          Hashtbl.fold
            (fun iid ((owner, _) as entry) acc ->
              if owner = b.bname then (iid, entry) :: acc else acc)
            t.inflight []
        in
        List.iter (fun (iid, _) -> Hashtbl.remove t.inflight iid) mine;
        List.map snd mine)
  in
  if not graceful then
    event t [ ("event", Json.Str "backend_death"); ("backend", Json.Str b.bname) ];
  settle t orphans "died before answering"

let rec reader_loop t (b : backend) =
  match b.client with
  | None -> ()
  | Some c -> (
    match Transport_socket.Client.recv c with
    | `Line l ->
      handle_backend_line t b l;
      reader_loop t b
    | `Timeout -> if Atomic.get t.stopped then () else reader_loop t b
    | `Eof ->
      Transport_socket.Client.close c;
      (match b.pid with
      | Some pid ->
        reap ~grace_s:2.0 pid;
        b.pid <- None
      | None -> ());
      if Atomic.get t.stopped then ()
      else begin
        let graceful = locked t (fun () -> t.refusing) in
        on_backend_down t b ~graceful;
        let can_respawn =
          (match b.btarget with Spawn _ -> true | Attach _ -> false)
          && (not graceful)
          && (not (Atomic.get t.stopped))
          && b.respawns < t.cfg.respawn_limit
        in
        if can_respawn then begin
          match connect_target ~timeout_s:t.cfg.spawn_timeout_s b.btarget with
          | Ok (c, pid) ->
            locked t (fun () ->
                b.client <- Some c;
                b.pid <- pid;
                b.alive <- true;
                b.respawns <- b.respawns + 1;
                t.n_respawns <- t.n_respawns + 1);
            event t
              [
                ("event", Json.Str "backend_respawn");
                ("backend", Json.Str b.bname);
              ];
            reader_loop t b
          | Error msg ->
            event t
              [
                ("event", Json.Str "backend_respawn_failed");
                ("backend", Json.Str b.bname);
                ("error", Json.Str msg);
              ]
        end
      end)

(* ---------- forwarding ---------- *)

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let rewrite_request ~iid fields =
  Json.to_string
    (Json.Obj
       (("id", Json.Num (float_of_int iid))
       :: List.filter (fun (k, _) -> k <> "id") fields))

(* a failed send is a death the reader has not seen yet; its sweep may
   have settled the entry already *)
let send_or_settle t c iid fields =
  if not (Transport_socket.Client.send c (rewrite_request ~iid fields)) then
    settle t (Option.to_list (take_inflight t iid)) "died"

let forward_single t (b : backend) ~orig ~v ~reply fields =
  let slot =
    locked t (fun () ->
        match b.client with
        | Some c when b.alive ->
          let iid = fresh_id t in
          Hashtbl.replace t.inflight iid
            (b.bname, Single { orig; v; reply; sent_at = now () });
          b.forwarded <- b.forwarded + 1;
          t.n_forwarded <- t.n_forwarded + 1;
          Some (c, iid)
        | Some _ | None -> None)
  in
  match slot with
  | None -> answer_error t ~v ~id:orig ~reply (Printf.sprintf "backend %s unavailable" b.bname)
  | Some (c, iid) -> send_or_settle t c iid fields

let fan_out t ~orig ~v ~reply akind fields =
  let a, sends =
    locked t (fun () ->
        let live = List.filter (fun b -> b.alive && b.client <> None) t.backends in
        let a =
          {
            aorig = orig;
            av = v;
            areply = reply;
            akind;
            waiting = List.length live;
            oks = 0;
            payloads = [];
          }
        in
        let sends =
          List.map
            (fun b ->
              let iid = fresh_id t in
              Hashtbl.replace t.inflight iid (b.bname, Member a);
              b.forwarded <- b.forwarded + 1;
              t.n_forwarded <- t.n_forwarded + 1;
              (Option.get b.client, iid))
            live
        in
        (a, sends))
  in
  if sends = [] then finish_agg t a
  else List.iter (fun (c, iid) -> send_or_settle t c iid fields) sends

(* ---------- the request path ---------- *)

let pick_round_robin t =
  locked t (fun () ->
      let live = List.filter (fun b -> b.alive && b.client <> None) t.backends in
      match live with
      | [] -> None
      | _ ->
        let n = List.length live in
        t.rr <- (t.rr + 1) mod n;
        Some (List.nth live t.rr))

let backend_named t name = List.find_opt (fun b -> b.bname = name) t.backends

let submit t ~reply line =
  locked t (fun () -> t.n_requests <- t.n_requests + 1);
  (* [fields] is the raw object, forwarded with only the id rewritten —
     the "v" field rides along untouched, so each backend answers in
     the client's own dialect *)
  let { Protocol.id; v; req; fields } = Protocol.parse_line line in
  let refusing = locked t (fun () -> t.refusing) in
  match req with
  | Error msg ->
    locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
    reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)
  | Ok Protocol.Drain ->
    let first =
      locked t (fun () ->
          let f = not t.refusing in
          t.refusing <- true;
          f)
    in
    if first then begin
      event t [ ("event", Json.Str "fleet_drain") ];
      fan_out t ~orig:id ~v ~reply:(Some reply) `Drain [ ("op", Json.Str "drain") ]
    end
    else begin
      (* idempotent: ack again without a second fan-out *)
      reply_line t reply
        (Protocol.response ~v ~id [ ("outcome", Json.Str "ok"); ("draining", Json.Bool true) ]);
      locked t (fun () -> t.is_draining <- true)
    end
  | Ok Protocol.Ping -> fan_out t ~orig:id ~v ~reply:(Some reply) `Ping [ ("op", Json.Str "ping") ]
  | Ok Protocol.Stats ->
    fan_out t ~orig:id ~v ~reply:(Some reply) `Stats [ ("op", Json.Str "stats") ]
  | Ok (Protocol.Sleep _ | Protocol.Solve _ | Protocol.Resolve _) when refusing ->
    reply_line t reply
      (Protocol.error_response ~v ~id ~outcome:"draining"
         "router is draining; not accepting work")
  | Ok (Protocol.Sleep _) -> (
    match pick_round_robin t with
    | None -> answer_error t ~v ~id ~reply "no live backends"
    | Some b -> forward_single t b ~orig:id ~v ~reply fields)
  | Ok (Protocol.Solve _ | Protocol.Resolve _) -> (
    (* solve and resolve shard identically: a resolve must land on the
       backend whose cache holds that instance's history, so both hash
       the same solve fingerprint onto the ring *)
    let p =
      match req with
      | Ok (Protocol.Solve p) -> p
      | Ok (Protocol.Resolve rp) -> rp.Protocol.base
      | Ok _ | Error _ -> assert false
    in
    match Protocol.fingerprint p with
    | Error msg ->
      locked t (fun () -> t.n_protocol_errors <- t.n_protocol_errors + 1);
      reply_line t reply (Protocol.error_response ~v ~id ~outcome:"error" msg)
    | Ok key -> (
      let shard = locked t (fun () -> if Ring.is_empty t.ring then None else Some (Ring.shard t.ring key)) in
      match shard with
      | None -> answer_error t ~v ~id ~reply "no live backends"
      | Some name -> (
        match backend_named t name with
        | None -> answer_error t ~v ~id ~reply (Printf.sprintf "backend %s unavailable" name)
        | Some b -> forward_single t b ~orig:id ~v ~reply fields)))

(* ---------- lifecycle ---------- *)

let draining t = locked t (fun () -> t.is_draining)

let initiate_drain t =
  let first =
    locked t (fun () ->
        let f = not t.refusing in
        t.refusing <- true;
        t.is_draining <- true;
        f)
  in
  if first then begin
    event t [ ("event", Json.Str "fleet_drain") ];
    fan_out t ~orig:Json.Null ~v:Protocol.min_version ~reply:None `Drain
      [ ("op", Json.Str "drain") ]
  end

let await_drain t =
  initiate_drain t;
  (* every owed answer lands (backends drain and answer), or the grace
     runs out and the stragglers are errored *)
  let deadline = now () +. t.cfg.drain_grace_s in
  let rec wait () =
    let n = locked t (fun () -> Hashtbl.length t.inflight) in
    if n = 0 then ()
    else if now () > deadline then
      settle t
        (locked t (fun () ->
             let l = Hashtbl.fold (fun _ entry acc -> entry :: acc) t.inflight [] in
             Hashtbl.reset t.inflight;
             l))
        "did not answer before the drain deadline"
    else begin
      Unix.sleepf 0.02;
      wait ()
    end
  in
  wait ();
  Atomic.set t.stopped true;
  (* drop the links so blocked readers see EOF promptly *)
  List.iter
    (fun b ->
      match b.client with
      | Some c -> Transport_socket.Client.close c
      | None -> ())
    t.backends;
  List.iter
    (fun b ->
      match b.reader with
      | Some d ->
        Domain.join d;
        b.reader <- None
      | None -> ())
    t.backends;
  List.iter
    (fun b ->
      match b.pid with
      | Some pid ->
        reap ~grace_s:2.0 pid;
        b.pid <- None
      | None -> ())
    t.backends;
  let hists =
    let s = Obs.Metrics.Histogram.summary t.rtt_h in
    if s.Obs.Metrics.Histogram.count > 0 then [ ("route_rtt_ms", s) ] else []
  in
  Engine.Run_report.make ~solver:"route" ~status:"drained" ~hists
    ~wall_s:(now () -. t.started)
    (Engine.Telemetry.create ())

let metrics t =
  Obs.Metrics.snapshot ()
  @ [ (Obs.Metrics.Histogram.name t.rtt_h, Obs.Metrics.Histogram t.rtt_h) ]

(* ---------- construction ---------- *)

let create ?(cfg = default_config ()) ?(events = Service.stdout_line) targets =
  if targets = [] then invalid_arg "Router.create: need at least one backend";
  let names = List.map target_name targets in
  let distinct = List.sort_uniq String.compare names in
  if List.length distinct <> List.length names then
    invalid_arg "Router.create: backend names must be distinct";
  let backends =
    List.map
      (fun target ->
        {
          bname = target_name target;
          btarget = target;
          client = None;
          pid = None;
          alive = false;
          forwarded = 0;
          deaths = 0;
          respawns = 0;
          reader = None;
        })
      targets
  in
  let t =
    {
      cfg;
      events;
      emit_lock = Mutex.create ();
      lock = Mutex.create ();
      ring = Ring.make ~vnodes:cfg.vnodes names;
      backends;
      inflight = Hashtbl.create 64;
      next_id = 0;
      rr = 0;
      refusing = false;
      is_draining = false;
      stopped = Atomic.make false;
      rtt_h = Obs.Metrics.Histogram.create ~lo:1e-3 ~hi:1e7 "route_rtt_ms";
      started = now ();
      n_requests = 0;
      n_forwarded = 0;
      n_errors = 0;
      n_deaths = 0;
      n_respawns = 0;
      n_protocol_errors = 0;
    }
  in
  (* bring every backend up before accepting traffic; a failure tears
     down whatever already started *)
  let rec boot = function
    | [] -> ()
    | b :: rest -> (
      match connect_target ~timeout_s:cfg.spawn_timeout_s b.btarget with
      | Ok (c, pid) ->
        b.client <- Some c;
        b.pid <- pid;
        b.alive <- true;
        b.reader <- Some (Domain.spawn (fun () -> reader_loop t b));
        boot rest
      | Error msg ->
        Atomic.set t.stopped true;
        List.iter
          (fun b ->
            (match b.client with
            | Some c -> Transport_socket.Client.close c
            | None -> ());
            (match b.reader with
            | Some d ->
              Domain.join d;
              b.reader <- None
            | None -> ());
            match b.pid with
            | Some pid ->
              reap ~grace_s:0.5 pid;
              b.pid <- None
            | None -> ())
          t.backends;
        failwith (Printf.sprintf "Router.create: %s: %s" b.bname msg))
  in
  boot backends;
  t

let core t =
  {
    Service.submit = (fun ~reply line -> submit t ~reply line);
    initiate_drain = (fun () -> initiate_drain t);
    draining = (fun () -> draining t);
    await_drain = (fun () -> await_drain t);
    stats_json = (fun () -> stats_json t);
    metrics = (fun () -> metrics t);
  }
