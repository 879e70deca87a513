type id = int

type t = {
  id : id;
  parent : id option;
  name : string;
  cat : string;
  args : (string * string) list;
  start_s : float;
  dur_s : float;
  domain : int;
}

let next_id = Atomic.make 1

(* Completed spans accumulate under a mutex; an optional streaming sink
   additionally sees each span as it closes (NDJSON export). Spans are
   few and long-lived relative to the work they measure (a solver
   phase, a pool task, a request), so a plain mutex is fine here —
   the hot counters live in Metrics, not in the span sink. *)
let sink_lock = Mutex.create ()
let sink : t list ref = ref []
let stream : (t -> unit) option ref = ref None

(* The "current span" is domain-local: nesting on one domain builds the
   parent chain implicitly, and [context]/[in_context] carry it across
   Domain.spawn so a pool task running on a worker domain still parents
   to the span that launched it. *)
let current : id option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let context () = Domain.DLS.get current

let in_context ctx f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let record sp =
  Mutex.lock sink_lock;
  sink := sp :: !sink;
  let emit = !stream in
  Mutex.unlock sink_lock;
  match emit with
  | Some f -> ( try f sp with _ -> ())
  | None -> ()

let with_span ?(cat = "") ?parent ?(args = []) name f =
  if not (Control.enabled ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent =
      match parent with Some _ as p -> p | None -> Domain.DLS.get current
    in
    let saved = Domain.DLS.get current in
    Domain.DLS.set current (Some id);
    let start_s = Clock.now_s () in
    let finish () =
      let dur_s = Clock.now_s () -. start_s in
      Domain.DLS.set current saved;
      record
        {
          id;
          parent;
          name;
          cat;
          args;
          start_s;
          dur_s;
          domain = (Domain.self () :> int);
        }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let drain () =
  Mutex.lock sink_lock;
  let sps = List.rev !sink in
  sink := [];
  Mutex.unlock sink_lock;
  sps

let clear () = ignore (drain ())

let set_stream f =
  Mutex.lock sink_lock;
  stream := f;
  Mutex.unlock sink_lock
