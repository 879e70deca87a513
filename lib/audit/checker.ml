type violation =
  | Missing_witness
  | Witness_dimension of { expected : int; got : int }
  | Bound_violated of { var : int; value : float; lo : float; hi : float }
  | Not_a_sweet_spot of { var : int; value : float }
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
  | Not_a_sweet_spot { var; value } ->
    Printf.sprintf "x.(%d) = %g is not one of its class's sweet spots" var value
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

(* The checks every certificate gets, whatever space its witness is in.
   [witness x] judges a witness of length [dim]: what is wrong with it,
   and the objective there ([nan] when it has none). An [Optimal] claim
   on [Threshold] or [Exact_method] evidence is judged by [threshold]
   and [exact_method]: only the space's own check knows what they
   prove. *)
let check ~tol ~dim ~witness ~threshold ~exact_method (cert : Engine.Certificate.t) =
  let acc = ref [] in
  let add v = acc := v :: !acc in
  let judged = function Ok () -> () | Error msg -> add (Evidence_mismatch msg) in
  (match cert.Engine.Certificate.witness with
  | None -> (
    match cert.claimed_status with
    | Engine.Status.Optimal | Engine.Status.Feasible _ -> add Missing_witness
    | Engine.Status.Infeasible | Engine.Status.Unbounded | Engine.Status.Budget_exhausted _
      -> ())
  | Some x ->
    if Array.length x <> dim then
      add (Witness_dimension { expected = dim; got = Array.length x })
    else begin
      let vs, actual = witness x in
      List.iter add vs;
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
    | Engine.Certificate.Threshold sides -> judged (threshold sides)
    | Engine.Certificate.Exact_method _ -> judged exact_method
    | Engine.Certificate.Incumbent_only ->
      add (Evidence_mismatch "optimal claimed on incumbent-only evidence")
    | Engine.Certificate.No_witness ->
      add (Evidence_mismatch "optimal claimed on no-witness evidence"))
  | Engine.Status.Infeasible | Engine.Status.Unbounded -> (
    match cert.evidence with
    | Engine.Certificate.No_witness -> ()
    | Engine.Certificate.Gap_closed | Engine.Certificate.Cover_exhausted _
    | Engine.Certificate.Threshold _ | Engine.Certificate.Exact_method _
    | Engine.Certificate.Incumbent_only ->
      add (Evidence_mismatch "empty-handed final status must carry no-witness evidence"))
  | Engine.Status.Feasible _ | Engine.Status.Budget_exhausted _ -> ());
  match List.rev !acc with [] -> Ok () | vs -> Error vs

(* the checker's own feasibility slack, relative where the quantity has
   a scale *)
let default_tol = 1e-5

let check_minlp ?(tol = default_tol) (p : Minlp.Problem.t) cert =
  check ~tol ~dim:p.num_vars
    ~witness:(fun x -> (witness_violations ~tol p x, Minlp.Problem.objective_value p x))
    ~threshold:(fun _ ->
      Error "threshold evidence is in nodes per task: the allocation's specs re-check it")
    ~exact_method:(Error "exact-method evidence names nothing the model can re-check")
    cert

(* ---------- allocations, from their specs ---------- *)

(* Each class's admissible sizes come from its spec alone: the integers
   of its box [max 1 n_min, min n_max N], or its sweet spots inside
   that box. *)
type ladder = { lo : int; hi : int; spots : int array option }

let ladder ~n_total (spec : Hslb.Alloc_model.spec) =
  let lo = max 1 spec.n_min and hi = min spec.n_max n_total in
  let inside l = List.filter (fun v -> v >= lo && v <= hi) (List.sort_uniq compare l) in
  { lo; hi; spots = Option.map (fun l -> Array.of_list (inside l)) spec.allowed }

let admissible l v =
  v >= l.lo && v <= l.hi && match l.spots with None -> true | Some s -> Array.mem v s

(* the admissible size [step] places above an admissible [v] *)
let neighbour l v ~step =
  match l.spots with
  | None -> if v + step >= l.lo && v + step <= l.hi then Some (v + step) else None
  | Some s ->
    Option.bind (Array.find_index (( = ) v) s) (fun i ->
        if i + step >= 0 && i + step < Array.length s then Some s.(i + step) else None)

(* How far in-box [sizes] ([None] counts nothing) overdraw the budget,
   if they do: one rule for witnesses and threshold proofs. The fit is
   decided in ints, so nothing rounds or overflows at any N; only the
   amount is a float. *)
let overdraw ~n_total specs sizes =
  let count c = specs.(c).Hslb.Alloc_model.fc.cls.count in
  let rec walk c left over =
    if c = Array.length sizes then over
    else
      match sizes.(c) with
      | Some v when v > left / count c ->
        let by = (float_of_int (count c) *. float_of_int v) -. float_of_int left in
        walk (c + 1) 0 (Some (by +. Option.value over ~default:0.))
      | Some v -> walk (c + 1) (left - (count c * v)) over
      | None -> walk (c + 1) left over
  in
  walk 0 n_total None

(* Verify [Threshold sides] at T* = the claimed objective, one side per
   class, in nodes per task. With eta = cert.tol * (1 + |T*|), a class
   beats T* at size v when its time there reads under T* - eta. Below
   v: v beats T* and its admissible predecessor does not, so
   (convexity) no smaller size does either. Floor m: m does not beat T*
   and neither admissible neighbour reads lower, so (convexity) no size
   does. Then no allocation finishes before T* - eta: some class has a
   floor, or every class needs at least its below size and those
   overflow the budget. *)
let threshold_proof ~n_total specs ls (cert : Engine.Certificate.t) sides =
  let fail fmt = Printf.ksprintf (fun s -> Error ("threshold: " ^ s)) fmt in
  let k = Array.length specs in
  let t_star = cert.claimed_obj in
  let eta = cert.tol *. rel t_star in
  let side c =
    let spec : Hslb.Alloc_model.spec = specs.(c) and l = ls.(c) in
    let name = spec.fc.cls.name and law = spec.fc.fit.law in
    let time = Scaling_law.eval_int law in
    let beats v = time v -. t_star < -.eta in
    if not (Scaling_law.is_convex law) then
      fail "class %s has a negative law coefficient, so its time is not convex" name
    else
      match sides.(c) with
      | Engine.Certificate.Below v -> (
        if not (admissible l v) then fail "class %s: below size %d is not admissible" name v
        else if not (beats v) then fail "class %s does not beat T* at its below size %d" name v
        else
          match neighbour l v ~step:(-1) with
          | Some u when beats u ->
            fail "class %s already beats T* at size %d, under its below size %d" name u v
          | Some _ | None -> Ok ())
      | Engine.Certificate.Floor m -> (
        if not (admissible l m) then fail "class %s: floor size %d is not admissible" name m
        else if beats m then fail "class %s beats T* at its floor size %d" name m
        else
          let lower step =
            Option.bind (neighbour l m ~step) (fun u ->
                if time u < time m then Some u else None)
          in
          match List.filter_map lower [ -1; 1 ] with
          | u :: _ -> fail "class %s reads lower at size %d than at its floor size %d" name u m
          | [] -> Ok ())
  in
  let rec sides_hold c =
    if c = k then Ok () else Result.bind (side c) (fun () -> sides_hold (c + 1))
  in
  let below = Array.map (function Engine.Certificate.Below v -> Some v | Floor _ -> None) sides in
  if Array.length sides <> k then fail "%d sides for %d classes" (Array.length sides) k
  else if not (Float.is_finite t_star) then fail "claimed objective %g is not finite" t_star
  else
    Result.bind (sides_hold 0) (fun () ->
        if Array.mem None below || Option.is_some (overdraw ~n_total specs below) then Ok ()
        else fail "the below sizes fit the budget of %d nodes" n_total)

(* the sizes of a witness in nodes per task, what is wrong with them,
   and the objective there ([nan] once a size has no time) *)
let allocation_witness ~objective ~n_total specs ls x =
  let vs = ref [] in
  let add v = vs := v :: !vs in
  let size c v =
    let l = ls.(c) in
    if not (Float.is_integer v) then (add (Not_integral { var = c; value = v }); None)
    else if v < float_of_int l.lo || v > float_of_int l.hi then (
      add (Bound_violated { var = c; value = v; lo = float_of_int l.lo; hi = float_of_int l.hi });
      None)
    else begin
      if not (admissible l (int_of_float v)) then add (Not_a_sweet_spot { var = c; value = v });
      Some (int_of_float v)
    end
  in
  let sizes = Array.mapi size x in
  Option.iter
    (fun violation -> add (Constraint_violated { name = "budget"; violation }))
    (overdraw ~n_total specs sizes);
  let times =
    Array.mapi
      (fun c v ->
        Option.fold ~none:nan ~some:(Scaling_law.eval_int specs.(c).fc.fit.law) v)
      sizes
  in
  let value =
    match objective with
    | Hslb.Objective.Min_max -> Array.fold_left Float.max neg_infinity times
    | Max_min -> Array.fold_left Float.min infinity times
    | Min_sum ->
      let total = ref 0. in
      Array.iteri
        (fun c t -> total := !total +. (float_of_int specs.(c).fc.cls.count *. t))
        times;
      !total
  in
  (List.rev !vs, value)

let check_allocation ~objective ~n_total specs (cert : Engine.Certificate.t) =
  match Engine.Solver_choice.of_string cert.producer with
  | Ok s when List.mem s Engine.Solver_choice.minlp ->
    let problem, _, _ = Hslb.Alloc_model.build_minlp ~objective ~n_total specs in
    check_minlp problem cert
  | Ok _ | Error _ ->
    let specs = Array.of_list specs in
    let ls = Array.map (ladder ~n_total) specs in
    let min_max = objective = Hslb.Objective.Min_max in
    check ~tol:default_tol ~dim:(Array.length specs)
      ~witness:(allocation_witness ~objective ~n_total specs ls)
      ~threshold:(fun sides ->
        if min_max then threshold_proof ~n_total specs ls cert sides
        else
          Error
            (Printf.sprintf "threshold evidence on a %s allocation"
               (Hslb.Objective.to_string objective)))
      ~exact_method:
        (if min_max then
           Error "exact-method evidence on a min-max allocation, whose optimum has a threshold \
                  witness"
         else Ok ())
      cert

let optimality_checked (cert : Engine.Certificate.t) =
  match cert.evidence with
  | Engine.Certificate.Exact_method _ -> false
  | Engine.Certificate.Gap_closed | Cover_exhausted _ | Threshold _ | Incumbent_only
  | No_witness ->
    true
