(* The lifecycle runner shared by every serving process. [Server.t]
   (one solve backend) and [Router.t] (a fleet front-end) both reduce
   to a [core]; [run] wraps one core with the machinery every
   deployment shape needs — the transport, SIGTERM → drain, the
   periodic Prometheus flusher, the final run report and the terminal
   drained event. *)

type core = {
  name : string;
  submit : Transport.submit;
  initiate_drain : unit -> unit;
  draining : unit -> bool;
  await_drain : unit -> Engine.Run_report.t;
  stats_json : unit -> string;
  metrics : unit -> (string * Obs.Metrics.metric) list;
}

let core_of_server s =
  {
    name = "serve";
    submit = (fun ~reply line -> Server.submit ~reply s line);
    initiate_drain = (fun () -> Server.initiate_drain s);
    draining = (fun () -> Server.draining s);
    await_drain = (fun () -> Server.await_drain s);
    stats_json = (fun () -> Server.stats_json s);
    metrics = (fun () -> Server.metrics s);
  }

exception Report_unwritable of string * string
exception Metrics_unwritable of string * string

let stdout_line line =
  print_string line;
  print_newline ();
  flush stdout

let run ?report_path ?metrics_out ?(metrics_interval_s = 1.0) ?(events = stdout_line)
    ?(listening = []) ~listen core =
  if metrics_interval_s <= 0. then
    invalid_arg "Service.run: metrics_interval_s must be > 0";
  (* periodic Prometheus flush: write-then-rename so scrapers never see
     a half-written exposition. A Sys_error's reason comes without the
     temporary file's name the runtime puts in front of it. *)
  let write_metrics path =
    let tmp = path ^ ".tmp" in
    match
      Obs.Export.write_prometheus tmp (core.metrics ());
      Sys.rename tmp path
    with
    | () -> Ok ()
    | exception Sys_error msg ->
      let prefix = tmp ^ ": " in
      Error
        (if String.starts_with ~prefix msg then
           String.sub msg (String.length prefix) (String.length msg - String.length prefix)
         else msg)
  in
  (* one flush before serving: an exposition that cannot be written is
     refused up front; a later failure is reported, not dropped *)
  Option.iter
    (fun path ->
      match write_metrics path with
      | Ok () -> ()
      | Error reason -> raise (Metrics_unwritable (path, reason)))
    metrics_out;
  let flush_metrics path =
    match write_metrics path with
    | Ok () -> ()
    | Error reason ->
      Printf.eprintf "hslb %s: --metrics-out: cannot write %s: %s\n%!" core.name path reason
  in
  let sigterm = Atomic.make false in
  let previous =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set sigterm true))
  in
  (* the handler only sets a flag: [initiate_drain] takes mutexes, so
     it must never run inside a signal handler. Transports poll [stop],
     notice the flag, unwind, and the drain proper happens below. *)
  let stop () = Atomic.get sigterm || core.draining () in
  let listener, on_disconnect =
    match listen with
    | None ->
      (* one stream: its end is the end of the service *)
      (Transport_stdio.listener ~stop, Some (fun _ -> core.initiate_drain ()))
    | Some addr ->
      let l =
        try Transport_socket.listen ~stop addr
        with e ->
          Sys.set_signal Sys.sigterm previous;
          raise e
      in
      events
        (Json.to_string
           (Json.Obj
              (("event", Json.Str "listening")
              :: ( "addr",
                   Json.Str (Transport_socket.addr_to_string (Transport_socket.bound_addr l)) )
              :: listening)));
      (Transport_socket.listener l, None)
  in
  let metrics_stop = Atomic.make false in
  let flusher =
    Option.map
      (fun path ->
        Domain.spawn (fun () ->
            let rec loop () =
              if Atomic.get metrics_stop then ()
              else begin
                (* nap in small steps so shutdown is prompt even with a
                   long flush interval *)
                let slept = ref 0. in
                while !slept < metrics_interval_s && not (Atomic.get metrics_stop) do
                  let step = Float.min 0.02 (metrics_interval_s -. !slept) in
                  Unix.sleepf step;
                  slept := !slept +. step
                done;
                flush_metrics path;
                loop ()
              end
            in
            loop ()))
      metrics_out
  in
  Transport.drive ?on_disconnect listener core.submit;
  listener.Transport.shutdown ();
  core.initiate_drain ();
  let report = core.await_drain () in
  Atomic.set metrics_stop true;
  Option.iter Domain.join flusher;
  (* final flush covers everything served, including the tail between
     the last periodic write and the drain *)
  Option.iter flush_metrics metrics_out;
  (* a report that cannot be written still lets the drained event out:
     every request was answered, and clients wait for that line *)
  let unwritable =
    match report_path with
    | Some path -> (
      match Engine.Run_report.write_json path report with
      | () -> None
      | exception Sys_error msg -> Some (path, msg))
    | None -> None
  in
  events
    (Printf.sprintf "{\"event\":\"drained\",\"stats\":%s,\"report\":%s}"
       (core.stats_json ())
       (Engine.Run_report.to_json report));
  Sys.set_signal Sys.sigterm previous;
  match unwritable with
  | Some (path, msg) -> raise (Report_unwritable (path, msg))
  | None -> report
