type violation =
  | Missing_witness
  | Witness_dimension of { expected : int; got : int }
  | Bound_violated of { var : int; value : float; lo : float; hi : float }
  | Constraint_violated of { name : string; violation : float }
  | Not_integral of { var : int; value : float }
  | Sos1_violated of { nonzero : int }
  | Objective_mismatch of { claimed : float; actual : float }
  | Bound_above_incumbent of { bound : float; incumbent : float }
  | Gap_open of { gap : float; allowed : float }
  | Open_branches of int
  | Evidence_mismatch of string

let violation_to_string = function
  | Missing_witness -> "claimed status requires a witness, none attached"
  | Witness_dimension { expected; got } ->
    Printf.sprintf "witness has %d variables, model has %d" got expected
  | Bound_violated { var; value; lo; hi } ->
    Printf.sprintf "x.(%d) = %g outside [%g, %g]" var value lo hi
  | Constraint_violated { name; violation } ->
    Printf.sprintf "constraint %s violated by %g" name violation
  | Not_integral { var; value } -> Printf.sprintf "x.(%d) = %g not integral" var value
  | Sos1_violated { nonzero } -> Printf.sprintf "SOS1 set with %d nonzero members" nonzero
  | Objective_mismatch { claimed; actual } ->
    Printf.sprintf "claimed objective %g, model evaluates %g" claimed actual
  | Bound_above_incumbent { bound; incumbent } ->
    Printf.sprintf "claimed bound %g above incumbent value %g" bound incumbent
  | Gap_open { gap; allowed } ->
    Printf.sprintf "gap-closed evidence leaves gap %g > allowed %g" gap allowed
  | Open_branches n -> Printf.sprintf "cover-exhausted evidence admits %d open branches" n
  | Evidence_mismatch s -> s

type verdict = (unit, violation list) result

let summary = function
  | Ok () -> "ok"
  | Error vs -> String.concat "; " (List.map violation_to_string vs)

let rel v = 1. +. Float.abs v

let witness_violations ~tol (p : Minlp.Problem.t) x =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  for j = 0 to p.num_vars - 1 do
    let v = x.(j) in
    let slack = tol *. rel v in
    if v < p.lo.(j) -. slack || v > p.hi.(j) +. slack then
      add (Bound_violated { var = j; value = v; lo = p.lo.(j); hi = p.hi.(j) });
    match p.kinds.(j) with
    | Minlp.Problem.Integer | Minlp.Problem.Binary ->
      if Float.abs (v -. Float.round v) > tol *. rel v then
        add (Not_integral { var = j; value = v })
    | Minlp.Problem.Continuous -> ()
  done;
  List.iter
    (fun (c : Minlp.Problem.constr) ->
      let lhs = Minlp.Expr.eval c.expr x in
      let viol =
        match c.sense with
        | Lp.Lp_problem.Le -> lhs -. c.rhs
        | Lp.Lp_problem.Ge -> c.rhs -. lhs
        | Lp.Lp_problem.Eq -> Float.abs (lhs -. c.rhs)
      in
      if viol > tol *. rel c.rhs then
        add (Constraint_violated { name = c.cname; violation = viol }))
    p.constraints;
  List.iter
    (fun members ->
      let nonzero =
        List.length (List.filter (fun (j, _) -> Float.abs x.(j) > tol) members)
      in
      if nonzero > 1 then add (Sos1_violated { nonzero }))
    p.sos1;
  List.rev !acc

let check_minlp ?(tol = 1e-5) (p : Minlp.Problem.t) (cert : Engine.Certificate.t) =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  (match cert.Engine.Certificate.witness with
  | None -> (
    match cert.claimed_status with
    | Engine.Status.Optimal | Engine.Status.Feasible _ -> add Missing_witness
    | Engine.Status.Infeasible | Engine.Status.Unbounded | Engine.Status.Budget_exhausted _
      -> ())
  | Some x ->
    if Array.length x <> p.num_vars then
      add (Witness_dimension { expected = p.num_vars; got = Array.length x })
    else begin
      List.iter add (witness_violations ~tol p x);
      let actual = Minlp.Problem.objective_value p x in
      if Float.abs (actual -. cert.claimed_obj) > tol *. rel actual then
        add (Objective_mismatch { claimed = cert.claimed_obj; actual });
      let key = Engine.Certificate.key cert cert.claimed_obj in
      if Float.is_finite cert.claimed_bound && cert.claimed_bound > key +. (tol *. rel key)
      then add (Bound_above_incumbent { bound = cert.claimed_bound; incumbent = key })
    end);
  (match cert.claimed_status with
  | Engine.Status.Optimal -> (
    match cert.evidence with
    | Engine.Certificate.Gap_closed ->
      if not (Float.is_finite cert.claimed_bound) then
        add (Evidence_mismatch "gap-closed evidence without a finite bound")
      else
        let key = Engine.Certificate.key cert cert.claimed_obj in
        let allowed = (cert.tol +. tol) *. rel key in
        let gap = key -. cert.claimed_bound in
        if gap > allowed then add (Gap_open { gap; allowed })
    | Engine.Certificate.Cover_exhausted c ->
      if c.open_branches > 0 then add (Open_branches c.open_branches);
      if c.explored < 1 then add (Evidence_mismatch "cover-exhausted with an empty cover")
    | Engine.Certificate.Exact_method _ -> ()
    | Engine.Certificate.Incumbent_only ->
      add (Evidence_mismatch "optimal claimed on incumbent-only evidence")
    | Engine.Certificate.No_witness ->
      add (Evidence_mismatch "optimal claimed on no-witness evidence"))
  | Engine.Status.Infeasible | Engine.Status.Unbounded -> (
    match cert.evidence with
    | Engine.Certificate.No_witness -> ()
    | Engine.Certificate.Gap_closed | Engine.Certificate.Cover_exhausted _
    | Engine.Certificate.Exact_method _ | Engine.Certificate.Incumbent_only ->
      add (Evidence_mismatch "empty-handed final status must carry no-witness evidence"))
  | Engine.Status.Feasible _ | Engine.Status.Budget_exhausted _ -> ());
  match List.rev !acc with [] -> Ok () | vs -> Error vs
