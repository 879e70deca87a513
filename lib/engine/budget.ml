type reason = Deadline | Node_limit | Iter_limit | Cancelled

let reason_to_string = function
  | Deadline -> "deadline"
  | Node_limit -> "node-limit"
  | Iter_limit -> "iter-limit"
  | Cancelled -> "cancelled"

type t = {
  deadline_s : float option;
  max_nodes : int option;
  max_iters : int option;
  cancel : Cancel.t option;
  poll_fuse : (int * reason) option;
}

let make ?deadline_s ?max_nodes ?max_iters ?cancel ?poll_fuse () =
  (match poll_fuse with
  | Some (k, _) when k < 1 -> invalid_arg "Budget.make: poll_fuse must trip after >= 1 polls"
  | Some _ | None -> ());
  { deadline_s; max_nodes; max_iters; cancel; poll_fuse }

let unlimited = make ()

(* counters are atomic so an armed budget stays sound when a solver on
   another domain charges it (a solve spawned onto a worker domain while
   its caller keeps the budget), and a deadline covers every solver
   layer of the run *)
type armed = {
  spec : t;
  start : float;
  counted_nodes : int Atomic.t;
  counted_iters : int Atomic.t;
  counted_polls : int Atomic.t;
}

let arm spec =
  {
    spec;
    start = Unix.gettimeofday ();
    counted_nodes = Atomic.make 0;
    counted_iters = Atomic.make 0;
    counted_polls = Atomic.make 0;
  }

let add_nodes a n = ignore (Atomic.fetch_and_add a.counted_nodes n)
let add_iters a n = ignore (Atomic.fetch_and_add a.counted_iters n)
let nodes a = Atomic.get a.counted_nodes
let iters a = Atomic.get a.counted_iters
let polls a = Atomic.get a.counted_polls
let elapsed_s a = Unix.gettimeofday () -. a.start

(* the stop verdict at a given poll count; the fuse is checked first so
   fault injection is deterministic whatever other limits are set *)
let verdict a ~polls:np =
  let fused =
    match a.spec.poll_fuse with Some (k, r) when np >= k -> Some r | Some _ | None -> None
  in
  match fused with
  | Some _ as s -> s
  | None -> (
    let cancelled = match a.spec.cancel with Some c -> Cancel.cancelled c | None -> false in
    if cancelled then Some Cancelled
    else
      match a.spec.deadline_s with
      | Some d when Unix.gettimeofday () -. a.start >= d -> Some Deadline
      | _ -> (
        match a.spec.max_nodes with
        | Some n when Atomic.get a.counted_nodes >= n -> Some Node_limit
        | _ -> (
          match a.spec.max_iters with
          | Some n when Atomic.get a.counted_iters >= n -> Some Iter_limit
          | _ -> None)))

(* registered at module init so the poll hot path never touches the
   registry lock; bumped only while observability is enabled *)
let polls_total = Obs.Metrics.counter "engine_budget_polls_total"

let check a =
  if Obs.Control.enabled () then Obs.Metrics.Counter.incr polls_total;
  let np = Atomic.fetch_and_add a.counted_polls 1 + 1 in
  verdict a ~polls:np

let inspect a = verdict a ~polls:(Atomic.get a.counted_polls)

let fuse_tripped a =
  match a.spec.poll_fuse with
  | Some (k, _) -> Atomic.get a.counted_polls >= k
  | None -> false

let stopped = function None -> None | Some a -> check a
let inspected = function None -> None | Some a -> inspect a
