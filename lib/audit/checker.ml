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

(* ---------- threshold evidence ---------- *)

(* the admissible values of an integer size variable, ascending: the
   integers of its box, or — when an equality row pins it to
   Σ w_k·z_k over the binaries of one SOS1 set — the weights (and 0)
   inside that box *)
type admissible = Box of int * int | Values of int array

let admissible (p : Minlp.Problem.t) n =
  let to_int f = int_of_float (Float.max (-4e18) (Float.min 4e18 f)) in
  let lo = to_int (Float.ceil p.lo.(n)) and hi = to_int (Float.floor p.hi.(n)) in
  let links_to set (c : Minlp.Problem.constr) =
    c.sense = Lp.Lp_problem.Eq
    && Minlp.Expr.is_linear c.expr
    &&
    let coeffs, const = Minlp.Expr.linear_parts c.expr in
    c.rhs -. const = 0.
    && List.length coeffs = List.length set + 1
    && List.assoc_opt n coeffs = Some 1.
    && List.for_all
         (fun (z, w) ->
           p.kinds.(z) = Minlp.Problem.Binary && List.assoc_opt z coeffs = Some (-.w))
         set
  in
  match
    List.find_opt
      (fun set ->
        List.for_all (fun (_, w) -> Float.is_integer w) set
        && List.exists (links_to set) p.constraints)
      p.sos1
  with
  | None -> Box (lo, hi)
  | Some set ->
    Values
      (Array.of_list
         (List.sort_uniq compare
            (List.filter
               (fun v -> v >= lo && v <= hi)
               (0 :: List.map (fun (_, w) -> int_of_float w) set))))

let is_admissible a v =
  match a with Box (lo, hi) -> v >= lo && v <= hi | Values vs -> Array.mem v vs

(* the admissible neighbours of an admissible [v] *)
let neighbour a v ~step =
  match a with
  | Box (lo, hi) -> if v + step >= lo && v + step <= hi then Some (v + step) else None
  | Values vs ->
    let rec find i = if vs.(i) = v then i else find (i + 1) in
    let j = find 0 + step in
    if j >= 0 && j < Array.length vs then Some vs.(j) else None

(* the least value an allocation can give variable [j] *)
let least (p : Minlp.Problem.t) j =
  match (p.kinds.(j), admissible p j) with
  | Minlp.Problem.Integer, Values vs when Array.length vs > 0 -> float_of_int vs.(0)
  | Minlp.Problem.Integer, (Box _ | Values _) -> Float.ceil p.lo.(j)
  | (Minlp.Problem.Continuous | Minlp.Problem.Binary), _ -> p.lo.(j)

(* Verify [Threshold sides] at T* = the claimed objective, from the
   model's own rows. The objective must be one minimized variable T.
   Each row mentioning T is a time row g(n) - T <= rhs (dT = -1, so
   the row bounds T below by g(n)) over one integer size n, or over T
   alone (a class whose time ignores its size), with g of the law_form
   shape, so convex in n; one side per time row, in row order. With eta = cert.tol * (1 + |T*|), a row beats T* at n
   when it reads below -eta there. Below v: v beats T* and its
   admissible predecessor does not, so (convexity) no smaller
   size does either. Floor m: m does not beat T* and neither neighbour
   reads lower, so (convexity) no size does. A size-free row needs no
   size: its side only says whether it beats T*. Then no allocation
   finishes before T* - eta: some row has a floor, or every sized class
   needs at least its below size, every other variable its least
   admissible value, and a linear <= row with positive coefficients
   overflows at those values. *)
(* whether [e] reads a*n^-c + b*n + d - T with a, b, c, d >= 0 (any
   number of such terms; n = -1 for a size-free row): the form a
   scaling law's time row takes, and convex in n *)
let rec law_form ~t ~n (e : Minlp.Expr.t) =
  match e with
  | Add es -> List.for_all (law_form ~t ~n) es
  | Const d -> d >= 0.
  | Neg (Var j) -> j = t
  | Var j -> j = n
  | Mul (Const b, Var j) -> b >= 0. && j = n
  | Pow (Var j, q) -> j = n && q <= 0.
  | Mul (Const a, Pow (Var j, q)) -> a >= 0. && j = n && q <= 0.
  | Mul _ | Neg _ | Div _ | Pow _ | Exp _ | Log _ -> false

let threshold_violations (p : Minlp.Problem.t) (cert : Engine.Certificate.t) x sides =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error ("threshold: " ^ s)) fmt in
  let t_star = cert.claimed_obj in
  let eta = cert.tol *. rel t_star in
  let* t =
    match p.objective with
    | Minlp.Expr.Var t when p.minimize -> Ok t
    | _ -> fail "the objective is not one minimized variable"
  in
  let rows =
    List.filter
      (fun (c : Minlp.Problem.constr) -> List.mem t (Minlp.Expr.vars c.expr))
      p.constraints
  in
  let* () =
    if List.length rows = Array.length sides then Ok ()
    else fail "%d sides for %d time rows" (Array.length sides) (List.length rows)
  in
  (* each row's size variable, or -1 for a size-free row *)
  let* sizes =
    List.fold_left
      (fun acc (c : Minlp.Problem.constr) ->
        let* acc = acc in
        let time_row =
          c.sense = Lp.Lp_problem.Le
          && Minlp.Expr.simplify (Minlp.Expr.diff c.expr t) = Minlp.Expr.Const (-1.)
        in
        match List.filter (( <> ) t) (Minlp.Expr.vars c.expr) with
        | ([] | [ _ ]) as ns when time_row ->
          let n = match ns with [ n ] -> n | _ -> -1 in
          if not (law_form ~t ~n c.expr) then
            fail "row %s is not a*n^-c + b*n + d - T with a, b, c, d >= 0" c.cname
          else if n < 0 then Ok (-1 :: acc)
          else if p.kinds.(n) <> Minlp.Problem.Integer then
            fail "row %s: size x.(%d) is not integer" c.cname n
          else if List.mem n acc then fail "two time rows share size x.(%d)" n
          else Ok (n :: acc)
        | _ -> fail "row %s is not a time row g(n) - T <= rhs over at most one size" c.cname)
      (Ok []) rows
  in
  let sizes = Array.of_list (List.rev sizes) and rows = Array.of_list rows in
  if not (Float.is_finite t_star) then fail "claimed objective %g is not finite" t_star
  else begin
    let pt = Array.copy x in
    let row i v =
      if sizes.(i) >= 0 then pt.(sizes.(i)) <- float_of_int v;
      pt.(t) <- t_star;
      Minlp.Expr.eval rows.(i).expr pt -. rows.(i).rhs
    in
    let beats i v = row i v < -.eta in
    let side i =
      let name = rows.(i).cname in
      match sides.(i) with
      | Engine.Certificate.Below _ when sizes.(i) < 0 ->
        if beats i 0 then Ok () else fail "row %s does not beat T*" name
      | Engine.Certificate.Floor _ when sizes.(i) < 0 ->
        if beats i 0 then fail "row %s beats T* at every size" name else Ok ()
      | Engine.Certificate.Below v ->
        let a = admissible p sizes.(i) in
        if not (is_admissible a v) then fail "row %s: below size %d is not admissible" name v
        else if not (beats i v) then fail "row %s does not beat T* at its below size %d" name v
        else (
          match neighbour a v ~step:(-1) with
          | Some u when beats i u ->
            fail "row %s already beats T* at size %d, under its below size %d" name u v
          | Some _ | None -> Ok ())
      | Engine.Certificate.Floor m -> (
        let a = admissible p sizes.(i) in
        if not (is_admissible a m) then fail "row %s: floor size %d is not admissible" name m
        else if beats i m then fail "row %s beats T* at its floor size %d" name m
        else
          let lower u = row i u < row i m in
          match
            List.filter_map
              (fun step ->
                Option.bind (neighbour a m ~step) (fun u -> if lower u then Some u else None))
              [ -1; 1 ]
          with
          | u :: _ -> fail "row %s reads lower at size %d than at its floor size %d" name u m
          | [] -> Ok ())
    in
    let* () =
      Array.fold_left
        (fun acc i -> Result.bind acc (fun () -> side i))
        (Ok ())
        (Array.init (Array.length sides) Fun.id)
    in
    if Array.exists (function Engine.Certificate.Floor _ -> true | Below _ -> false) sides
    then Ok ()
    else
      let bound j =
        let rec find i =
          if i = Array.length sizes then least p j
          else if sizes.(i) = j then
            match sides.(i) with Engine.Certificate.Below v | Floor v -> float_of_int v
          else find (i + 1)
        in
        find 0
      in
      let budget_rows =
        List.filter_map
          (fun (c : Minlp.Problem.constr) ->
            if c.sense = Lp.Lp_problem.Le && Minlp.Expr.is_linear c.expr then
              let coeffs, const = Minlp.Expr.linear_parts c.expr in
              if coeffs <> [] && List.for_all (fun (_, a) -> a > 0.) coeffs then
                Some (c, List.fold_left (fun acc (j, a) -> acc +. (a *. bound j)) const coeffs)
              else None
            else None)
          p.constraints
      in
      let overflows ((c : Minlp.Problem.constr), used) = used > c.rhs in
      match budget_rows with
      | [] -> fail "no budget row"
      | _ when List.exists overflows budget_rows -> Ok ()
      | (c, used) :: _ -> fail "the below sizes fit row %s (%g <= %g)" c.cname used c.rhs
  end

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
    | Engine.Certificate.Threshold sides -> (
      match cert.witness with
      | Some x when Array.length x = p.num_vars -> (
        match threshold_violations p cert x sides with
        | Ok () -> ()
        | Error msg -> add (Evidence_mismatch msg))
      | Some _ | None -> ())
    | Engine.Certificate.Exact_method _ ->
      add (Evidence_mismatch "exact-method evidence names nothing the model can re-check")
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
