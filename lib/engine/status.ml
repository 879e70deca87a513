type reason = Node_limit | Iter_limit | Round_limit | Deadline | Cancelled

type t =
  | Optimal
  | Feasible of reason
  | Infeasible
  | Unbounded
  | Budget_exhausted of reason

let reason_to_string = function
  | Node_limit -> "node-limit"
  | Iter_limit -> "iteration-limit"
  | Round_limit -> "round-limit"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

let to_string = function
  | Optimal -> "optimal"
  | Feasible r -> Printf.sprintf "feasible (%s)" (reason_to_string r)
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Budget_exhausted r -> Printf.sprintf "budget-exhausted (%s)" (reason_to_string r)

let reason_of_string = function
  | "node-limit" -> Some Node_limit
  | "iteration-limit" -> Some Iter_limit
  | "round-limit" -> Some Round_limit
  | "deadline" -> Some Deadline
  | "cancelled" -> Some Cancelled
  | _ -> None

let of_string s =
  let reason_of prefix =
    let n = String.length prefix and l = String.length s in
    if l > n + 2 && String.sub s 0 n = prefix && s.[n] = ' ' && s.[n + 1] = '('
       && s.[l - 1] = ')'
    then reason_of_string (String.sub s (n + 2) (l - n - 3))
    else None
  in
  match s with
  | "optimal" -> Some Optimal
  | "infeasible" -> Some Infeasible
  | "unbounded" -> Some Unbounded
  | _ -> (
    match reason_of "feasible" with
    | Some r -> Some (Feasible r)
    | None -> (
      match reason_of "budget-exhausted" with
      | Some r -> Some (Budget_exhausted r)
      | None -> None))

let is_final = function
  | Optimal | Infeasible | Unbounded -> true
  | Feasible _ | Budget_exhausted _ -> false

let reason_of_budget = function
  | Budget.Deadline -> Deadline
  | Budget.Node_limit -> Node_limit
  | Budget.Iter_limit -> Iter_limit
  | Budget.Cancelled -> Cancelled

let pp fmt t = Format.pp_print_string fmt (to_string t)
