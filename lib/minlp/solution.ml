type reason = Engine.Status.reason =
  | Node_limit
  | Iter_limit
  | Round_limit
  | Deadline
  | Cancelled

type status = Engine.Status.t =
  | Optimal
  | Feasible of reason
  | Infeasible
  | Unbounded
  | Budget_exhausted of reason

type stats = { nodes : int; lp_solves : int; nlp_solves : int; cuts : int }
type t = { status : status; x : float array; obj : float; bound : float; stats : stats }

let empty_stats = { nodes = 0; lp_solves = 0; nlp_solves = 0; cuts = 0 }
let reason_to_string = Engine.Status.reason_to_string
let status_to_string = Engine.Status.to_string

let has_incumbent s =
  match s.status with
  | Optimal | Feasible _ -> Array.length s.x > 0
  | Budget_exhausted _ -> Array.length s.x > 0
  | Infeasible | Unbounded -> false

let reason_of_budget = Engine.Status.reason_of_budget

let certify ~producer ?budget ?(minimize = true) ?(tol = 1e-6) ?(pruned = 0) s =
  let witness = if has_incumbent s then Some (Array.copy s.x) else None in
  let evidence =
    match (s.status, witness) with
    | Optimal, Some _ ->
      (* a rel-gap stop proves optimality through the bound; a drained
         tree proves it through the cover (bound = incumbent then, so
         the gap test subsumes it — the cover form survives for solvers
         that report a coarser bound than their pruning used) *)
      let key = if minimize then s.obj else -.s.obj in
      if Float.is_finite s.bound && key -. s.bound <= tol *. (1. +. Float.abs key) then
        Engine.Certificate.Gap_closed
      else
        Engine.Certificate.Cover_exhausted
          { Engine.Certificate.explored = s.stats.nodes; pruned; open_branches = 0 }
    | (Feasible _ | Budget_exhausted _), Some _ -> Engine.Certificate.Incumbent_only
    | _, _ -> Engine.Certificate.No_witness
  in
  Engine.Certificate.make ~producer ~claimed_status:s.status ?witness ~claimed_obj:s.obj
    ~claimed_bound:s.bound ~minimize ~tol ~evidence
    ?budget_stop:
      (match Engine.Budget.inspected budget with
      | Some r -> Some (Engine.Budget.reason_to_string r)
      | None -> None)
    ()

let to_result ~producer ?budget ?minimize ?tol ?pruned s =
  if has_incumbent s then
    Ok
      {
        Engine.Solver_intf.value = s;
        cert = certify ~producer ?budget ?minimize ?tol ?pruned s;
      }
  else Error s.status

let pp fmt s =
  Format.fprintf fmt "@[<h>%s obj=%g bound=%g nodes=%d lp=%d nlp=%d cuts=%d@]"
    (status_to_string s.status) s.obj s.bound s.stats.nodes s.stats.lp_solves s.stats.nlp_solves
    s.stats.cuts
