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

(* --- Ladders: one class's admissible sizes, walked by bisection --- *)

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
   every lookup is a bisection. [time] remembers its answers in
   [memo_slots] direct-mapped slots: the walks revisit the same indices
   from bisection to bisection, and a ladder of at most [memo_slots]
   sizes evaluates each size's law at most once. *)
type ladder = {
  count : int;
  size : int -> int;
  time : int -> float;
  last : int;
  bottom : int;
}

let memo_slots = 256

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
  let slots = Stdlib.max 1 (Stdlib.min (last + 1) memo_slots) in
  let seen = Array.make slots (-1) and times = Array.make slots 0. in
  let time i =
    let s = i mod slots in
    if seen.(s) = i then times.(s)
    else begin
      let t = Scaling_law.eval_int law (size i) in
      seen.(s) <- i;
      times.(s) <- t;
      t
    end
  in
  let bottom = first_true 0 last (fun i -> i = last || time (i + 1) >= time i) in
  { count = spec.fc.Classes.cls.Classes.count; size; time; last; bottom }

(* The walk every objective's allocation comes from: from the smallest
   sizes, repeatedly give the class whose next step ranks highest by
   [key] (lowest index among ties) that step, while the class is short
   of its [stop] index and the step fits the budget. A class whose step
   does not fit is done, for the budget only shrinks. [key l i] ranks
   the step from index i of ladder l and must not rise along
   [0, stop]. Taken in order, the steps form one sequence of keys that
   never rise, replayed in at most k + 1 rounds: each finds by
   bisection the lowest level L at which every step above L still
   fits, takes them, then gives the classes at L, in index order, their
   steps keyed L while they fit, and at least one class runs out of
   budget there. Where rounding makes a key rise (consecutive sizes
   past ~10^8 nodes), the walk may leave that order, but it still never
   overdraws the budget. Returns the sizes reached, the slowest of
   their times and each one's time, read off the ladders. *)
let descend ~n_total ~key ~stop ls =
  let k = Array.length ls in
  let cur = Array.make k 0 in
  let active = Array.map (fun s -> s > 0) stop in
  let left = ref n_total in
  Array.iter (fun l -> left := !left - (l.count * l.size 0)) ls;
  let key c i = key ls.(c) i in
  let move c i =
    let l = ls.(c) in
    left := !left - (l.count * (l.size i - l.size cur.(c)));
    cur.(c) <- i;
    if i = stop.(c) then active.(c) <- false
  in
  (* where class [c] stops once every step above [level] is taken *)
  let reach c level =
    Stdlib.min stop.(c) (first_true cur.(c) stop.(c) (fun i -> key c i <= level))
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
  (* the lowest level taking the same steps as the levels just under
     [level] *)
  let next level =
    over (fun c ->
        let i = first_true cur.(c) stop.(c) (fun i -> key c i < level) in
        if i <= stop.(c) then Some (key c i) else None)
  in
  (* the lowest level that fits, given that [hi] fits and [lo] does not.
     It returns only levels [fits] passed: where a key rises, bisections
     at nearby levels can land on different boundaries. *)
  let rec lowest lo hi =
    let t = next hi in
    if t <= lo || not (fits t) then hi
    else
      let mid = lo +. ((t -. lo) /. 2.) in
      if not (lo < mid && mid < t) then lowest lo t
      else if fits mid then lowest lo mid
      else lowest mid t
  in
  (* the highest key at the current sizes *)
  let current () = over (fun c -> Some (key c cur.(c))) in
  let rec round () =
    if Array.exists Fun.id active then
      if fits neg_infinity then Array.iteri (fun c a -> if a then move c stop.(c)) active
      else begin
        (* under every active class's key at its stop nothing fits *)
        let under = Float.pred (-.over (fun c -> Some (-.key c stop.(c)))) in
        (* the level of the current sizes takes no step, unless a key
           rises *)
        let hi = current () in
        if fits hi then begin
          let level = lowest under hi in
          Array.iteri (fun c a -> if a then move c (reach c level)) active
        end;
        let top = current () in
        Array.iteri
          (fun c a ->
            let l = ls.(c) in
            if a && key c cur.(c) = top then begin
              (* its steps keyed [top], as many as fit *)
              let j = reach c (Float.pred top) in
              let i =
                first_true cur.(c) j (fun i -> l.size i - l.size cur.(c) > !left / l.count) - 1
              in
              move c i;
              if i < j then active.(c) <- false
            end)
          active;
        round ()
      end
  in
  round ();
  let times = Array.mapi (fun c i -> ls.(c).time i) cur in
  (Array.mapi (fun c i -> ls.(c).size i) cur, Array.fold_left Float.max 0. times, times)

let bottoms ls = Array.map (fun l -> l.bottom) ls

(* --- Max_min: customized bisection over the achievable minimum time --- *)

(* Each class keeps to the decreasing branch of its curve, up to
   ⌊Scaling_law.optimal_nodes⌋. There its largest size with time >= t
   bisects, and so does the greatest t* at which those sizes cover the
   budget. The allocation is the walk with the slowest class first,
   capped at those sizes for t*. *)
let max_min ~n_total ls specs =
  (* the last index on each class's decreasing branch *)
  let ends =
    Array.map2
      (fun l spec ->
        let opt =
          Scaling_law.optimal_nodes spec.fc.Classes.fit.Fitting.law
            ~max_nodes:(float_of_int (Stdlib.min spec.n_max n_total))
        in
        let cap = Stdlib.max 1 (int_of_float (Float.floor opt)) in
        first_true 0 l.last (fun i -> l.size i > cap) - 1)
      ls (Array.of_list specs)
  in
  (* a class whose admissible sizes all lie past its curve's minimum
     has no size on the decreasing branch *)
  if Array.exists (fun e -> e < 0) ends then Error Minlp.Solution.Infeasible
  else begin
    (* the largest index with time >= t, or -1 *)
    let cap c t = first_true 0 ends.(c) (fun i -> ls.(c).time i < t) - 1 in
    let covers t =
      let rec go c total =
        if c = Array.length ls then total >= n_total
        else
          let i = cap c t in
          i >= 0 && go (c + 1) (total + (ls.(c).count * ls.(c).size i))
      in
      go 0 0
    in
    (* the minimum time cannot exceed any class's time at its smallest size *)
    let t_hi = Array.fold_left (fun acc l -> Float.min acc (l.time 0)) infinity ls in
    let t_star =
      if covers t_hi then t_hi
      else begin
        let lo = ref 0. and hi = ref t_hi in
        for _ = 1 to 60 do
          let mid = 0.5 *. (!lo +. !hi) in
          if covers mid then lo := mid else hi := mid
        done;
        !lo
      end
    in
    let stop = Array.mapi (fun c _ -> Stdlib.max 0 (cap c t_star)) ls in
    let nodes, predicted_makespan, predicted_times =
      descend ~n_total ~key:(fun l -> l.time) ~stop ls
    in
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
               ~claimed_obj:(Array.fold_left Float.min infinity predicted_times)
               ~minimize:false
               ~evidence:
                 (Engine.Certificate.Exact_method
                    "bisection over monotone per-class time curves")
               ());
      }
  end

(* --- Min_sum: greedy marginal allocation --- *)

(* Min_sum by greedy marginal allocation (Ibaraki & Katoh — the
   paper's reference [11] for customized polynomial-time solvers): from
   the smallest sizes, repeatedly give the class with the best
   total-time decrease per node spent its next step. Each class cost is
   convex in its node count, so that gain falls along each ladder, and
   the greedy is the walk keyed by [gain], down to each class's bottom.
   It is exact when every step costs one node (count 1, no sweet
   spots); steps of several nodes make the budget a knapsack, where it
   can stop above the optimum. No step leaves the last size. *)
let gain l i =
  if i = l.last then 0.
  else
    float_of_int l.count *. (l.time i -. l.time (i + 1))
    /. float_of_int (l.count * (l.size (i + 1) - l.size i))

let min_sum ~n_total ls =
  let nodes, predicted_makespan, predicted_times =
    descend ~n_total ~key:gain ~stop:(bottoms ls) ls
  in
  let total_time = ref 0. in
  Array.iteri
    (fun c t -> total_time := !total_time +. (float_of_int ls.(c).count *. t))
    predicted_times;
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

(* The certificate's tolerance: the witness proves no allocation
   finishes before T* (1 - 1e-9) or so, a margin that keeps the proof
   clear of the rounding in time - T* *)
let threshold_tol = 1e-9

(* The optimality witness (docs/AUDIT.md), in the arithmetic the
   auditor re-derives it in, Scaling_law.eval_int: for each class, the
   least admissible size whose time is under T* by more than eta, or,
   when none is, its bottom, the least size minimizing its time. *)
let threshold_sides ls t_star =
  let eta = threshold_tol *. (1. +. Float.abs t_star) in
  Array.map
    (fun l ->
      let beats i = l.time i -. t_star < -.eta in
      if beats l.bottom then Engine.Certificate.Below (l.size (first_true 0 l.bottom beats))
      else Engine.Certificate.Floor (l.size l.bottom))
    ls

(* The walk keyed by time, down to each class's bottom, steps the
   slowest class while that strictly lowers its time. The first step
   that does not fit fixes the makespan at the optimum T* (no
   allocation brings every class under it), and the rest spends the
   leftover nodes. *)
let exact_solve ~n_total ls specs =
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
  let nodes, predicted_makespan, predicted_times =
    descend ~n_total ~key:(fun l -> l.time) ~stop:(bottoms ls) ls
  in
  let sides = threshold_sides ls predicted_makespan in
  (* some class has a floor, or the below sizes overflow the budget *)
  let rec proven c used =
    c < Array.length sides
    &&
    match sides.(c) with
    | Engine.Certificate.Floor _ -> true
    | Below v ->
      v > (n_total - used) / ls.(c).count || proven (c + 1) (used + (ls.(c).count * v))
  in
  if not (proven 0 0) then failwith "Alloc_model.solve: the threshold witness does not close";
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
           ~claimed_status:Minlp.Solution.Optimal
           ~witness:(Array.map float_of_int nodes)
           ~claimed_obj:predicted_makespan ~claimed_bound:predicted_makespan
           ~tol:threshold_tol ~evidence:(Engine.Certificate.Threshold sides) ());
  }

(* canonical, injective solve fingerprint: the solver, then the
   instance with length-prefixed names, each float as the 8 bytes of
   its bit pattern (fixed width, exact) and sorted-deduplicated allowed
   lists (the model dedups them too). Equal fingerprints imply equal
   instances solved by the same solver. *)
let fingerprint ~solver ~objective ~n_total specs =
  let b = Buffer.create 256 in
  let str s = Buffer.add_string b s in
  let int sep n =
    Buffer.add_char b sep;
    str (string_of_int n)
  in
  let float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  str "alloc-v3|";
  str (Engine.Solver_choice.to_string solver);
  str "|";
  str (Objective.to_string objective);
  int '|' n_total;
  int '|' (List.length specs);
  List.iter
    (fun spec ->
      let law = spec.fc.Classes.fit.Fitting.law in
      let name = spec.fc.Classes.cls.Classes.name in
      int '|' (String.length name);
      str ":";
      str name;
      int ',' spec.fc.Classes.cls.Classes.count;
      int ',' spec.n_min;
      int ',' spec.n_max;
      str ",";
      float law.Scaling_law.a;
      float law.Scaling_law.b;
      float law.Scaling_law.c;
      float law.Scaling_law.d;
      match spec.allowed with
      | None -> str "*"
      | Some values -> List.iter (int 'a') (List.sort_uniq compare values))
    specs;
  Buffer.contents b

(* Min_max: the MINLP, warm-started from the caller's nodes-per-class
   vector or the greedy min-sum allocation (it respects the budget row,
   the boxes and the sweet-spot lists, so it lifts to a feasible point).
   Priming the incumbent both prunes the tree and guarantees a usable
   answer when the budget runs out. *)
let min_max_solve ~solver ?budget ?warm_start ?trace ~n_total ls specs =
  let problem, n_vars, lift = build_minlp ~objective:Objective.Min_max ~n_total specs in
  let warm =
    match warm_start with
    | Some nodes -> nodes
    | None -> (min_sum ~n_total ls).nodes_per_task
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
    let ls = Array.of_list (List.map (ladder ~n_total) specs) in
    let result =
      (* no objective has an allocation when some class has no
         admissible size, or when the smallest ones overflow the budget *)
      if
        Array.exists (fun l -> l.last < 0) ls
        || Array.fold_left (fun used l -> used + (l.count * l.size 0)) 0 ls > n_total
      then Error Minlp.Solution.Infeasible
      else
        match (objective, solver) with
        | Objective.Min_max, (Engine.Solver_choice.Oa | Bnb | Oa_multi) ->
          min_max_solve ~solver ?budget ?warm_start ?trace ~n_total ls specs
        | _ -> (
          (* the customized paths check the budget once, on entry *)
          match Engine.Budget.stopped budget with
          | Some r ->
            Error (Minlp.Solution.Budget_exhausted (Minlp.Solution.reason_of_budget r))
          | None -> (
            match objective with
            | Objective.Max_min -> max_min ~n_total ls specs
            | Objective.Min_sum -> Ok (min_sum ~n_total ls)
            | Objective.Min_max -> Ok (exact_solve ~n_total ls specs)))
    in
    Option.iter (fun c -> memoize ~solver ~objective c (Lazy.force key) result) cache;
    result

type reoptimality = {
  incumbent_makespan : float;
  optimum : allocation;
  gap_rel : float;
  keep : bool;
}

(* An incumbent is admissible when each class's size is on its ladder
   (inside the box, and among the sweet spots when there are any) and
   the sizes fit the budget; then the instance is feasible and the
   threshold search has an optimum to price it against. *)
let reoptimality ~eps ~n_total ~incumbent specs =
  if specs = [] then invalid_arg "Alloc_model.reoptimality: no classes";
  let ls = Array.of_list (List.map (ladder ~n_total) specs) in
  let k = Array.length ls in
  let on_ladder l x =
    let i = first_true 0 l.last (fun i -> l.size i >= x) in
    i <= l.last && l.size i = x
  in
  let rec admissible c left =
    c = k
    ||
    let l = ls.(c) and x = incumbent.(c) in
    on_ladder l x && x <= left / l.count && admissible (c + 1) (left - (l.count * x))
  in
  if Array.length incumbent <> k || not (admissible 0 n_total) then None
  else
    let optimum = exact_solve ~n_total ls specs in
    let incumbent_makespan, _ = predicted_of specs incumbent in
    let gap_rel =
      (incumbent_makespan -. optimum.predicted_makespan)
      /. Float.max optimum.predicted_makespan 1e-12
    in
    Some { incumbent_makespan; optimum; gap_rel; keep = gap_rel <= eps }
