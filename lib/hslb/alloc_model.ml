type spec = {
  fc : Classes.fitted;
  n_min : int;
  n_max : int;
  allowed : int list option;
}

let spec_of ?(n_min = 1) ?(n_max = max_int) ?allowed fc =
  if n_min < 1 || n_max < n_min then invalid_arg "Alloc_model.spec_of: bad node range";
  (match allowed with
  | Some [] -> invalid_arg "Alloc_model.spec_of: empty allowed list"
  | Some l -> List.iter (fun n -> if n < 1 then invalid_arg "Alloc_model.spec_of: allowed < 1") l
  | None -> ());
  { fc; n_min; n_max; allowed }

type allocation = {
  nodes_per_task : int array;
  predicted_makespan : float;
  predicted_times : float array;
  status : Minlp.Solution.status;
  stats : Minlp.Solution.stats;
  certificate : Engine.Certificate.t option;
}

let law_expr (law : Scaling_law.t) n_var =
  let open Minlp.Expr in
  let n = var n_var in
  add
    [
      scale law.Scaling_law.a (pow n (-.law.Scaling_law.c));
      scale law.Scaling_law.b n;
      const law.Scaling_law.d;
    ]

let effective_range ~n_total spec =
  (Stdlib.min spec.n_min n_total |> Stdlib.max 1, Stdlib.min spec.n_max n_total)

(* restrict an integer variable to a discrete value list: binaries +
   SOS1, with linking rows n = Σ z_k·v_k, Σ z_k = 1 *)
let restrict_to_values b ~var:n_var values =
  (* duplicates would put two SOS1 members at the same weight and make
     the set-branching split degenerate; unsorted input only hurts
     debuggability — normalize both *)
  let values = List.sort_uniq compare values in
  let zs = List.map (fun _ -> Minlp.Problem.Builder.add_var b Minlp.Problem.Binary) values in
  Minlp.Problem.Builder.add_constr b
    (Minlp.Expr.linear (List.map (fun z -> (z, 1.)) zs))
    Lp.Lp_problem.Eq 1.;
  Minlp.Problem.Builder.add_constr b
    (Minlp.Expr.add
       (Minlp.Expr.var n_var
       :: List.map2 (fun z v -> Minlp.Expr.scale (-.float_of_int v) (Minlp.Expr.var z)) zs values))
    Lp.Lp_problem.Eq 0.;
  Minlp.Problem.Builder.add_sos1 b (List.map2 (fun z v -> (z, float_of_int v)) zs values);
  List.combine zs values

let build_minlp ~objective ~n_total specs =
  if specs = [] then invalid_arg "Alloc_model.build_minlp: no classes";
  if n_total < 1 then invalid_arg "Alloc_model.build_minlp: n_total must be >= 1";
  let b = Minlp.Problem.Builder.create () in
  match objective with
  | Objective.Max_min -> invalid_arg "Alloc_model.build_minlp: Max_min uses the bisection solver"
  | Objective.Min_max | Objective.Min_sum ->
    let has_t = objective = Objective.Min_max in
    let t_var =
      if has_t then
        Some (Minlp.Problem.Builder.add_var b ~name:"T" ~lo:0. ~hi:1e12 Minlp.Problem.Continuous)
      else None
    in
    let n_vars =
      List.mapi
        (fun i spec ->
          let lo, hi = effective_range ~n_total spec in
          Minlp.Problem.Builder.add_var b
            ~name:(Printf.sprintf "n_%s" spec.fc.Classes.cls.Classes.name)
            ~lo:(float_of_int lo) ~hi:(float_of_int hi) Minlp.Problem.Integer
          |> fun v ->
          ignore i;
          v)
        specs
    in
    (* per-class time constraints / objective terms; for [Min_sum] the
       per-class epigraph variables are kept for the warm-start lift *)
    let t_sum_vars =
      match t_var with
    | Some t ->
      Minlp.Problem.Builder.set_objective b (Minlp.Expr.var t);
      List.iteri
        (fun i spec ->
          let n_var = List.nth n_vars i in
          Minlp.Problem.Builder.add_constr b
            ~name:(Printf.sprintf "time_%s" spec.fc.Classes.cls.Classes.name)
            Minlp.Expr.(law_expr spec.fc.Classes.fit.Fitting.law n_var - var t)
            Lp.Lp_problem.Le 0.)
        specs;
      []
    | None ->
      (* separable epigraph: one t_c per class keeps every nonlinear
         constraint two-dimensional, which makes the outer-approximation
         cuts sharp (a single 2F-dimensional epigraph makes OA crawl) *)
      let t_vars =
        List.mapi
          (fun i spec ->
            let n_var = List.nth n_vars i in
            let t_c =
              Minlp.Problem.Builder.add_var b
                ~name:(Printf.sprintf "t_%s" spec.fc.Classes.cls.Classes.name)
                ~lo:0. ~hi:1e12 Minlp.Problem.Continuous
            in
            Minlp.Problem.Builder.add_constr b
              ~name:(Printf.sprintf "sumtime_%s" spec.fc.Classes.cls.Classes.name)
              Minlp.Expr.(
                scale
                  (float_of_int spec.fc.Classes.cls.Classes.count)
                  (law_expr spec.fc.Classes.fit.Fitting.law n_var)
                - var t_c)
              Lp.Lp_problem.Le 0.;
            t_c)
          specs
      in
      Minlp.Problem.Builder.set_objective b
        (Minlp.Expr.linear (List.map (fun t -> (t, 1.)) t_vars));
      t_vars
    in
    (* node budget *)
    Minlp.Problem.Builder.add_constr b ~name:"budget"
      (Minlp.Expr.linear
         (List.mapi
            (fun i spec ->
              (List.nth n_vars i, float_of_int spec.fc.Classes.cls.Classes.count))
            specs))
      Lp.Lp_problem.Le (float_of_int n_total);
    (* sweet spots *)
    let z_maps =
      List.concat
        (List.mapi
           (fun i spec ->
             match spec.allowed with
             | None -> []
             | Some values ->
               let lo, hi = effective_range ~n_total spec in
               let feasible_values = List.filter (fun v -> v >= lo && v <= hi) values in
               if feasible_values = [] then
                 invalid_arg "Alloc_model.build_minlp: no allowed value inside node range";
               [ (i, restrict_to_values b ~var:(List.nth n_vars i) feasible_values) ])
           specs)
    in
    let problem = Minlp.Problem.Builder.build b in
    let n_vars_arr = Array.of_list n_vars in
    let specs_arr = Array.of_list specs in
    (* lift a nodes-per-class vector into the full variable space:
       epigraph value(s) from the fitted laws, sweet-spot binaries set
       to the matching value *)
    let lift nodes =
      if Array.length nodes <> Array.length n_vars_arr then
        invalid_arg "Alloc_model.build_minlp: lift: wrong vector length";
      let x = Array.make problem.Minlp.Problem.num_vars 0. in
      Array.iteri (fun i nv -> x.(nv) <- float_of_int nodes.(i)) n_vars_arr;
      let time i =
        Scaling_law.eval_int specs_arr.(i).fc.Classes.fit.Fitting.law nodes.(i)
      in
      (match t_var with
      | Some t ->
        let m = ref 0. in
        Array.iteri (fun i _ -> m := Float.max !m (time i)) n_vars_arr;
        x.(t) <- !m
      | None ->
        List.iteri
          (fun i t_c ->
            x.(t_c) <-
              float_of_int specs_arr.(i).fc.Classes.cls.Classes.count *. time i)
          t_sum_vars);
      List.iter
        (fun (i, zs) -> List.iter (fun (z, v) -> if v = nodes.(i) then x.(z) <- 1.) zs)
        z_maps;
      x
    in
    (problem, n_vars_arr, lift)

let predicted_of specs nodes =
  let times =
    Array.of_list
      (List.mapi
         (fun i spec -> Scaling_law.eval_int spec.fc.Classes.fit.Fitting.law nodes.(i))
         specs)
  in
  (Array.fold_left Float.max 0. times, times)

(* the smallest admissible size of every class: the least member of its
   box [n_min, min n_max N], or of its sweet-spot list inside that box.
   [Error Infeasible] when some class has none, or when those sizes
   already overflow the node budget: no objective has an allocation
   then. *)
let smallest_sizes ~n_total specs =
  let smallest spec =
    let lo = Stdlib.max 1 spec.n_min and hi = Stdlib.min spec.n_max n_total in
    let admissible = match spec.allowed with None -> [ lo ] | Some values -> values in
    List.find_opt (fun v -> v >= lo && v <= hi) (List.sort compare admissible)
  in
  let sizes = List.map smallest specs in
  if List.mem None sizes then Error Minlp.Solution.Infeasible
  else
    let sizes = List.map Option.get sizes in
    let used =
      List.fold_left2
        (fun acc spec n -> acc + (spec.fc.Classes.cls.Classes.count * n))
        0 specs sizes
    in
    if used > n_total then Error Minlp.Solution.Infeasible else Ok (Array.of_list sizes)

(* --- Max_min: customized bisection over the achievable minimum time --- *)

let max_min_solve ~n_total specs =
  let specs_arr = Array.of_list specs in
  let k = Array.length specs_arr in
  (* restrict to the decreasing region of each fitted curve *)
  let decreasing_cap spec =
    let _, hi = effective_range ~n_total spec in
    let law = spec.fc.Classes.fit.Fitting.law in
    let opt = Scaling_law.optimal_nodes law ~max_nodes:(float_of_int hi) in
    Stdlib.max 1 (int_of_float (Float.floor opt))
  in
  let value_list spec =
    let lo, _ = effective_range ~n_total spec in
    let cap = decreasing_cap spec in
    match spec.allowed with
    | Some values -> List.sort compare (List.filter (fun v -> v >= lo && v <= cap) values)
    | None -> List.init (Stdlib.max 0 (cap - lo + 1)) (fun i -> lo + i)
  in
  let values = Array.map value_list specs_arr in
  (* a class whose admissible sizes all lie past its curve's minimum
     has no size on the decreasing branch *)
  if Array.mem [] values then Error Minlp.Solution.Infeasible
  else begin
  let time spec n = Scaling_law.eval_int spec.fc.Classes.fit.Fitting.law n in
  (* cap_i(t): largest feasible size with time >= t *)
  let cap_at i t =
    let spec = specs_arr.(i) in
    List.fold_left (fun acc v -> if time spec v >= t then Stdlib.max acc v else acc) (-1) values.(i)
  in
  let budget_ok t =
    let total = ref 0 in
    let ok = ref true in
    for i = 0 to k - 1 do
      let cap = cap_at i t in
      if cap < 0 then ok := false
      else total := !total + (specs_arr.(i).fc.Classes.cls.Classes.count * cap)
    done;
    !ok && !total >= n_total
  in
  (* the minimum time cannot exceed any class's time at its smallest size *)
  let t_hi =
    Array.fold_left
      (fun acc (spec, vs) -> Float.min acc (time spec (List.hd vs)))
      infinity
      (Array.map2 (fun s v -> (s, v)) specs_arr values)
  in
  let t_star =
    if budget_ok t_hi then t_hi
    else begin
      let lo = ref 0. and hi = ref t_hi in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        if budget_ok mid then lo := mid else hi := mid
      done;
      !lo
    end
  in
  (* realize an allocation: start from the smallest sizes, grow toward the
     caps, spending remaining budget on the slowest class first *)
  let caps = Array.init k (fun i -> Stdlib.max (cap_at i t_star) (List.hd values.(i))) in
  let nodes = Array.map List.hd values in
  let counts = Array.map (fun s -> s.fc.Classes.cls.Classes.count) specs_arr in
  let used = ref 0 in
  Array.iteri (fun i n -> used := !used + (counts.(i) * n)) nodes;
  let next_value i cur =
    let rec go = function
      | [] -> None
      | v :: rest -> if v > cur then Some v else go rest
    in
    go values.(i)
  in
  let progress = ref true in
  while !progress do
    progress := false;
    (* slowest class first *)
    let order = Array.init k Fun.id in
    Array.sort
      (fun i j -> compare (time specs_arr.(j) nodes.(j)) (time specs_arr.(i) nodes.(i)))
      order;
    Array.iter
      (fun i ->
        if not !progress then
          match next_value i nodes.(i) with
          | Some v when v <= caps.(i) && !used + (counts.(i) * (v - nodes.(i))) <= n_total ->
            used := !used + (counts.(i) * (v - nodes.(i)));
            nodes.(i) <- v;
            progress := true
          | Some _ | None -> ())
      order
  done;
  let predicted_makespan, predicted_times = predicted_of specs nodes in
  Ok
    {
      nodes_per_task = nodes;
      predicted_makespan;
      predicted_times;
      status = Minlp.Solution.Optimal;
      stats = Minlp.Solution.empty_stats;
      certificate =
        Some
          (Engine.Certificate.make ~producer:"hslb.bisection"
             ~claimed_status:Minlp.Solution.Optimal
             ~witness:(Array.map float_of_int nodes)
             ~claimed_obj:predicted_makespan ~minimize:false
             ~evidence:
               (Engine.Certificate.Exact_method
                  "bisection over monotone per-class time curves")
             ());
    }
  end

(* Min_sum is a separable convex resource-allocation problem, solvable
   exactly by greedy marginal allocation (Ibaraki & Katoh — the paper's
   reference [11] for customized polynomial-time solvers): start at the
   minimum sizes and repeatedly give a node to the class with the best
   total-time decrease. Greedy is optimal because each class cost is
   convex in its (integer) node count. [start] holds the smallest
   admissible sizes (smallest_sizes). *)
let min_sum_greedy ~n_total ~start specs =
  let specs_arr = Array.of_list specs in
  let k = Array.length specs_arr in
  let counts = Array.map (fun s -> s.fc.Classes.cls.Classes.count) specs_arr in
  let time i n = Scaling_law.eval_int specs_arr.(i).fc.Classes.fit.Fitting.law n in
  let hi = Array.map (fun s -> Stdlib.min s.n_max n_total) specs_arr in
  let allowed_next i cur =
    match specs_arr.(i).allowed with
    | None -> if cur + 1 <= hi.(i) then Some (cur + 1) else None
    | Some values ->
      List.fold_left
        (fun acc v ->
          if v > cur && v <= hi.(i) then
            match acc with Some best when best <= v -> acc | Some _ | None -> Some v
          else acc)
        None values
  in
  let nodes = Array.copy start in
  let used = ref 0 in
  Array.iteri (fun i n -> used := !used + (counts.(i) * n)) nodes;
  let progress = ref true in
  while !progress do
    progress := false;
    (* best marginal improvement per node spent *)
    let best = ref (-1) and best_gain = ref 0. and best_next = ref 0 in
    for i = 0 to k - 1 do
      match allowed_next i nodes.(i) with
      | Some next when !used + (counts.(i) * (next - nodes.(i))) <= n_total ->
        let gain =
          float_of_int counts.(i)
          *. (time i nodes.(i) -. time i next)
          /. float_of_int (counts.(i) * (next - nodes.(i)))
        in
        if gain > !best_gain then begin
          best := i;
          best_gain := gain;
          best_next := next
        end
      | Some _ | None -> ()
    done;
    if !best >= 0 && !best_gain > 0. then begin
      used := !used + (counts.(!best) * (!best_next - nodes.(!best)));
      nodes.(!best) <- !best_next;
      progress := true
    end
  done;
  let predicted_makespan, predicted_times = predicted_of specs nodes in
  let total_time = ref 0. in
  Array.iteri
    (fun i n -> total_time := !total_time +. (float_of_int counts.(i) *. time i n))
    nodes;
  {
    nodes_per_task = nodes;
    predicted_makespan;
    predicted_times;
    status = Minlp.Solution.Optimal;
    stats = Minlp.Solution.empty_stats;
    certificate =
      Some
        (Engine.Certificate.make ~producer:"hslb.greedy"
           ~claimed_status:Minlp.Solution.Optimal
           ~witness:(Array.map float_of_int nodes)
           ~claimed_obj:!total_time ~claimed_bound:!total_time
           ~evidence:
             (Engine.Certificate.Exact_method
                "greedy marginal allocation on a separable convex objective \
                 (Ibaraki-Katoh)")
           ());
  }

(* --- Min_max: exact threshold search --- *)

(* least i in [lo, hi] with [p i], or hi + 1 when none; [p] is false
   then true. Even where [p] is not monotone the answer is a boundary:
   [p i] holds and [p (i - 1)] does not (or i = lo). *)
let first_true lo hi p =
  let lo = ref lo and hi = ref (hi + 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if p mid then hi := mid else lo := mid + 1
  done;
  !lo

(* One class on its admissible sizes, addressed by index in increasing
   size: the box [max 1 n_min, min n_max N], or the sweet spots inside
   it. [bottom] is the least index minimizing [time]: the law is convex,
   so the step time (i + 1) - time i only grows and its sign bisects
   (exactly on the integers, where Scaling_law.optimal_nodes is a
   tolerance-bound real minimizer). No size range is ever enumerated;
   every lookup is a bisection. *)
type ladder = {
  count : int;
  size : int -> int;
  time : int -> float;
  last : int;
  bottom : int;
}

let ladder ~n_total spec =
  let lo = Stdlib.max 1 spec.n_min and hi = Stdlib.min spec.n_max n_total in
  let last, size =
    match spec.allowed with
    | None -> (hi - lo, fun i -> lo + i)
    | Some values ->
      let inside = List.filter (fun v -> v >= lo && v <= hi) (List.sort_uniq compare values) in
      let a = Array.of_list inside in
      (Array.length a - 1, Array.get a)
  in
  let law = spec.fc.Classes.fit.Fitting.law in
  let time i = Scaling_law.eval_int law (size i) in
  let bottom = first_true 0 last (fun i -> i = last || time (i + 1) >= time i) in
  { count = spec.fc.Classes.cls.Classes.count; size; time; last; bottom }

(* The allocation: from the smallest sizes, repeatedly give the slowest
   class (lowest index among ties) one admissible step while that
   strictly lowers its time and fits the budget. A class whose step
   does not fit is done, for the budget only shrinks. Taken in order,
   the steps form one sequence of falling times; the first step that
   does not fit fixes the makespan at the optimum T* (no allocation
   brings every class under it), and the rest spends the leftover
   nodes. The sequence is replayed in at most k + 1 rounds: each finds
   by bisection the lowest level L at which every step above L still
   fits, takes them, then offers the classes tied at L their steps in
   index order, and at least one of those does not fit. *)
let descend ~n_total ls =
  let k = Array.length ls in
  let cur = Array.make k 0 in
  let active = Array.map (fun l -> l.bottom > 0) ls in
  let left = ref n_total in
  Array.iter (fun l -> left := !left - (l.count * l.size 0)) ls;
  let move c i =
    let l = ls.(c) in
    left := !left - (l.count * (l.size i - l.size cur.(c)));
    cur.(c) <- i;
    if i = l.bottom then active.(c) <- false
  in
  (* where class [c] stops once every step above [level] is taken *)
  let reach c level =
    let l = ls.(c) in
    Stdlib.min l.bottom (first_true cur.(c) l.bottom (fun i -> l.time i <= level))
  in
  let fits level =
    let rec go c left =
      c = k
      ||
      if not active.(c) then go (c + 1) left
      else
        let l = ls.(c) in
        let d = l.size (reach c level) - l.size cur.(c) in
        d <= left / l.count && go (c + 1) (left - (l.count * d))
    in
    go 0 !left
  in
  (* the largest [f c] over the active classes that have one *)
  let over f =
    let best = ref neg_infinity in
    Array.iteri
      (fun c a -> if a then Option.iter (fun t -> best := Float.max !best t) (f c))
      active;
    !best
  in
  (* the lowest level taking the same steps as [level] *)
  let settle level =
    over (fun c ->
        let t = ls.(c).time (reach c level) in
        if t <= level then Some t else None)
  in
  (* the highest level under [level] that takes one more step *)
  let next level =
    over (fun c ->
        let l = ls.(c) in
        let i = first_true cur.(c) l.bottom (fun i -> l.time i < level) in
        if i <= l.bottom then Some (l.time i) else None)
  in
  (* the lowest level that fits, given that [hi] fits and [lo] does not *)
  let rec lowest lo hi =
    let t = next hi in
    if t <= lo || not (fits t) then hi
    else
      let hi = settle t in
      let mid = lo +. ((hi -. lo) /. 2.) in
      if not (lo < mid && mid < hi) then lowest lo hi
      else if fits mid then lowest lo (settle mid)
      else lowest mid hi
  in
  let rec round () =
    if Array.exists Fun.id active then
      if fits neg_infinity then Array.iteri (fun c a -> if a then move c ls.(c).bottom) active
      else begin
        (* under every active class's bottom time nothing fits *)
        let under = Float.pred (-.over (fun c -> Some (-.ls.(c).time ls.(c).bottom))) in
        let level = lowest under (over (fun c -> Some (ls.(c).time cur.(c)))) in
        Array.iteri (fun c a -> if a then move c (reach c level)) active;
        let top = over (fun c -> Some (ls.(c).time cur.(c))) in
        Array.iteri
          (fun c a ->
            let l = ls.(c) in
            if a && l.time cur.(c) = top then
              if l.size (cur.(c) + 1) - l.size cur.(c) <= !left / l.count then
                move c (cur.(c) + 1)
              else active.(c) <- false)
          active;
        round ()
      end
  in
  round ();
  cur

(* The certificate's tolerance: the witness proves no allocation
   finishes before T* (1 - 1e-9) or so, which absorbs the last-bit
   differences between the fitted law and the model row evaluating it *)
let threshold_tol = 1e-9

(* The optimality witness, computed on the rows of the MINLP the
   auditor rebuilds and in its arithmetic (docs/AUDIT.md): for each
   time row, the least admissible size beating T* (reading below
   -eta), or, when none does, the size minimizing the row. *)
let threshold_sides (problem : Minlp.Problem.t) n_vars ls t_star =
  let t = match problem.objective with Minlp.Expr.Var t -> t | _ -> assert false in
  let rows =
    Array.of_list
      (List.filter
         (fun (c : Minlp.Problem.constr) -> List.mem t (Minlp.Expr.vars c.expr))
         problem.constraints)
  in
  let eta = threshold_tol *. (1. +. Float.abs t_star) in
  let pt = Array.make problem.num_vars 0. in
  Array.mapi
    (fun c (l : ladder) ->
      let row i =
        pt.(n_vars.(c)) <- float_of_int (l.size i);
        pt.(t) <- t_star;
        Minlp.Expr.eval rows.(c).expr pt -. rows.(c).rhs
      in
      let m = first_true 0 l.last (fun i -> i = l.last || row (i + 1) >= row i) in
      if row m < -.eta then
        Engine.Certificate.Below (l.size (first_true 0 m (fun i -> row i < -.eta)))
      else Engine.Certificate.Floor (l.size m))
    ls

let exact_solve ?budget ~n_total specs =
  (* past 2^53 consecutive sizes share one float, and no time step is
     strict any more *)
  if n_total > 1 lsl 53 then
    invalid_arg "Alloc_model.solve: solver exact needs n_total <= 2^53";
  List.iter
    (fun spec ->
      if not (Scaling_law.is_convex spec.fc.Classes.fit.Fitting.law) then
        invalid_arg
          (Printf.sprintf
             "Alloc_model.solve: solver exact needs convex laws; class %s has a negative \
              coefficient"
             spec.fc.Classes.cls.Classes.name))
    specs;
  match Engine.Budget.stopped budget with
  | Some r -> Error (Minlp.Solution.Budget_exhausted (Minlp.Solution.reason_of_budget r))
  | None ->
    let ls = Array.of_list (List.map (ladder ~n_total) specs) in
    let cur = descend ~n_total ls in
    let nodes = Array.mapi (fun c i -> ls.(c).size i) cur in
    let problem, n_vars, lift = build_minlp ~objective:Objective.Min_max ~n_total specs in
    let x = lift nodes in
    let predicted_makespan, predicted_times = predicted_of specs nodes in
    let sides = threshold_sides problem n_vars ls predicted_makespan in
    (* some class has a floor, or the below sizes overflow the budget *)
    let rec proven c used =
      c < Array.length sides
      &&
      match sides.(c) with
      | Engine.Certificate.Floor _ -> true
      | Below v ->
        v > (n_total - used) / ls.(c).count || proven (c + 1) (used + (ls.(c).count * v))
    in
    if not (proven 0 0) then
      failwith "Alloc_model.solve: the threshold witness does not close";
    Ok
      {
        nodes_per_task = nodes;
        predicted_makespan;
        predicted_times;
        status = Minlp.Solution.Optimal;
        stats = Minlp.Solution.empty_stats;
        certificate =
          Some
            (Engine.Certificate.make
               ~producer:(Engine.Solver_choice.to_string Engine.Solver_choice.Exact)
               ~claimed_status:Minlp.Solution.Optimal ~witness:x
               ~claimed_obj:predicted_makespan ~claimed_bound:predicted_makespan
               ~tol:threshold_tol ~evidence:(Engine.Certificate.Threshold sides) ());
      }

(* canonical, injective solve fingerprint: the solver, then the
   instance with length-prefixed names, round-tripping float formats and
   sorted-deduplicated allowed lists (the model dedups them too). Equal
   fingerprints imply equal instances solved by the same solver. *)
let fingerprint ~solver ~objective ~n_total specs =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "alloc-v2|%s|%s|%d|%d"
       (Engine.Solver_choice.to_string solver)
       (Objective.to_string objective) n_total (List.length specs));
  List.iter
    (fun spec ->
      let law = spec.fc.Classes.fit.Fitting.law in
      let name = spec.fc.Classes.cls.Classes.name in
      Buffer.add_string b
        (Printf.sprintf "|%d:%s,%d,%d,%d,%.17g,%.17g,%.17g,%.17g," (String.length name)
           name spec.fc.Classes.cls.Classes.count spec.n_min spec.n_max law.Scaling_law.a
           law.Scaling_law.b law.Scaling_law.c law.Scaling_law.d);
      match spec.allowed with
      | None -> Buffer.add_char b '*'
      | Some values ->
        List.iter
          (fun v -> Buffer.add_string b (Printf.sprintf "a%d" v))
          (List.sort_uniq compare values))
    specs;
  Buffer.contents b

(* Min_max: the MINLP, warm-started from the caller's nodes-per-class
   vector or the greedy min-sum allocation (it respects the budget row,
   the boxes and the sweet-spot lists, so it lifts to a feasible point).
   Priming the incumbent both prunes the tree and guarantees a usable
   answer when the budget runs out. *)
let min_max_solve ~solver ?budget ?warm_start ?trace ~n_total ~start specs =
  let problem, n_vars, lift = build_minlp ~objective:Objective.Min_max ~n_total specs in
  let warm =
    match warm_start with
    | Some nodes -> nodes
    | None -> (min_sum_greedy ~n_total ~start specs).nodes_per_task
  in
  let sol, cert =
    Minlp.Solver.run ~rel_gap:Minlp.Solver.model_rel_gap ?budget ?tally:trace
      ~warm_start:(lift warm) solver problem
  in
  if Minlp.Solution.has_incumbent sol then
    let nodes = Array.map (fun v -> int_of_float (Float.round sol.Minlp.Solution.x.(v))) n_vars in
    let predicted_makespan, predicted_times = predicted_of specs nodes in
    Ok
      {
        nodes_per_task = nodes;
        predicted_makespan;
        predicted_times;
        status = sol.Minlp.Solution.status;
        stats = sol.Minlp.Solution.stats;
        certificate = Some cert;
      }
  else Error sol.Minlp.Solution.status

let default_solver = Engine.Solver_choice.Exact

(* Budget-exhausted incumbents depend on wall-clock luck and must not
   be replayed as answers. An exact min-max answer takes tens of
   microseconds, about what storing it takes: stored at once, an
   instance stream that never repeats within the cache's reach pushed
   thousands of entries a second through the LRU and grew the serve
   backend's peak RSS by a tenth, so it waits for its key to recur. *)
let memoize ~solver ~objective cache key result =
  match result with
  | Ok alloc when alloc.status = Minlp.Solution.Optimal ->
    let recurring = objective = Objective.Min_max && solver = Engine.Solver_choice.Exact in
    Runtime.Cache.put ~recurring cache key alloc
  | Ok _ | Error _ -> ()

let solve ?(solver = default_solver) ?(objective = Objective.Min_max) ?budget
    ?cancel ?warm_start ?trace ?cache ~n_total specs =
  if specs = [] then invalid_arg "Alloc_model.solve: no classes";
  let budget = Engine.Budget.join ?budget ?cancel () in
  let key = lazy (fingerprint ~solver ~objective ~n_total specs) in
  let cached =
    match cache with Some c -> Runtime.Cache.find c (Lazy.force key) | None -> None
  in
  match cached with
  | Some alloc -> Ok alloc
  | None ->
    let result =
      Result.bind (smallest_sizes ~n_total specs) (fun start ->
          match objective with
          | Objective.Max_min -> max_min_solve ~n_total specs
          | Objective.Min_sum -> Ok (min_sum_greedy ~n_total ~start specs)
          | Objective.Min_max -> (
            match solver with
            | Engine.Solver_choice.Exact -> exact_solve ?budget ~n_total specs
            | Engine.Solver_choice.Oa | Engine.Solver_choice.Bnb
            | Engine.Solver_choice.Oa_multi ->
              min_max_solve ~solver ?budget ?warm_start ?trace ~n_total ~start specs))
    in
    Option.iter (fun c -> memoize ~solver ~objective c (Lazy.force key) result) cache;
    result
