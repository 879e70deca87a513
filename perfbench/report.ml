(* What a run prints: a human-readable table (each metric with its unit
   and sample count), then, as the last line of stdout, the one-line
   JSON result. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  basis : string;  (** what the value was computed over, e.g. "n=1043 requests" *)
}

let m name unit_ value basis = { name; unit_; value; basis }

type t = {
  workload : string;
  seed : int;
  traced : bool;
  digest : string;
  notes : string list;  (** per-instance detail, exact counters *)
  metrics : metric list;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few check failures, verbatim *)
}

let print r =
  Printf.printf "perfbench %s seed=%d trace=%d inputs-md5=%s\n" r.workload r.seed
    (if r.traced then 1 else 0)
    r.digest;
  List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
  List.iter
    (fun x -> Printf.printf "  %-30s %16.6f %-6s %s\n" x.name x.value x.unit_ x.basis)
    r.metrics;
  Printf.printf "  ops attempted %d, failed %d\n" r.attempted r.failed;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.failures;
  let module J = Obs.Json in
  let metrics =
    J.Obj
      (List.map
         (fun x -> (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit_) ]))
         r.metrics)
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (r.failed = 0));
            ("attempted", J.Num (float_of_int r.attempted));
            ("failed", J.Num (float_of_int r.failed));
            ("metrics", metrics);
          ]))

(* The metrics BENCHMARK.json declares under [section] ("end_to_end" or
   "per_layer"), as (name, unit) in file order: the one list of what a
   run prints. *)
let declared section =
  let module J = Obs.Json in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let entries =
    match J.parse text with
    | Ok doc -> Option.bind (J.member section doc) J.arr
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match entries with
  | None -> failwith ("BENCHMARK.json: no " ^ section ^ " list")
  | Some es ->
    List.map
      (fun e ->
        match (Option.bind (J.member "name" e) J.str, Option.bind (J.member "unit" e) J.str) with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed " ^ section ^ " entry " ^ J.to_string e))
      es

(* Order [ms] as BENCHMARK.json lists [section], fill the metrics this
   workload does not reach with 0, and refuse a metric or unit the file
   does not declare, so the output always matches it. *)
let complete section ms =
  let names = declared section in
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then failwith ("metric " ^ x.name ^ " is not finite");
      match List.assoc_opt x.name names with
      | Some u when u = x.unit_ -> ()
      | Some u -> failwith (Printf.sprintf "metric %s: unit %s, expected %s" x.name x.unit_ u)
      | None -> failwith ("unknown metric " ^ x.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with
      | Some x -> x
      | None when section = "end_to_end" -> failwith ("no value for " ^ name)
      | None -> m name unit_ 0. "(layer not on this workload's path)")
    names

(* VmHWM, the resident-set high-water mark, of a live process *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* allocation (MiB) and major collections between two Gc snapshots *)
let gc_delta (a : Gc.stat) (b : Gc.stat) =
  let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  ( (words b -. words a) *. float_of_int (Sys.word_size / 8) /. 1048576.,
    float_of_int (b.Gc.major_collections - a.Gc.major_collections) )
