(* Oracles for test_hslb's properties. The max-min bisection and
   min-sum greedy that Hslb.Alloc_model ran before both moved onto its
   ladder walk, kept verbatim but for their certificates, which no
   property reads: they enumerate every size and give one step per loop
   turn, so they are only fit for small budgets. The exact min-sum
   optimum, by dynamic programming over the budget, for small budgets
   too. And the continuous min-max relaxation bound, a lower bound on
   every allocation's makespan that no exact optimum may undercut. *)
open Hslb
open Alloc_model

let effective_range ~n_total spec =
  (Stdlib.min spec.n_min n_total |> Stdlib.max 1, Stdlib.min spec.n_max n_total)

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
      certificate = None;
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
  {
    nodes_per_task = nodes;
    predicted_makespan;
    predicted_times;
    status = Minlp.Solution.Optimal;
    stats = Minlp.Solution.empty_stats;
    certificate = None;
  }

(* the dispatch Alloc_model.solve ran for the two objectives *)
let solve ~objective ~n_total specs =
  Result.bind (smallest_sizes ~n_total specs) (fun start ->
      match objective with
      | Objective.Max_min -> max_min_solve ~n_total specs
      | Objective.Min_sum -> Ok (min_sum_greedy ~n_total ~start specs)
      | Objective.Min_max -> invalid_arg "Alloc_oracle.solve: max-min and min-sum only")

(* --- Min_sum: the exact optimum by dynamic programming --- *)

(* best.(b): the least count-weighted total time of the classes so far
   on at most b nodes, summed in class order as the greedy sums it.
   Every class tries each admissible size, so the work is O(k · N ·
   sizes): small budgets only. Returns that least total over every
   class and an allocation reaching it, or [None] when none exists. *)
let min_sum_dp ~n_total specs =
  let sizes spec =
    let lo = Stdlib.max 1 spec.n_min and hi = Stdlib.min spec.n_max n_total in
    match spec.allowed with
    | Some values -> List.filter (fun v -> v >= lo && v <= hi) values
    | None -> List.init (Stdlib.max 0 (hi - lo + 1)) (fun i -> lo + i)
  in
  let best = ref (Array.make (n_total + 1) 0.) in
  let choices =
    List.map
      (fun spec ->
        let count = spec.fc.Classes.cls.Classes.count in
        let time = Scaling_law.eval_int spec.fc.Classes.fit.Fitting.law in
        let sizes = List.map (fun v -> (v, float_of_int count *. time v)) (sizes spec) in
        let prev = !best in
        let next = Array.make (n_total + 1) infinity in
        let choice = Array.make (n_total + 1) 0 in
        for b = 0 to n_total do
          List.iter
            (fun (v, cost) ->
              if count * v <= b then
                let t = prev.(b - (count * v)) +. cost in
                if t < next.(b) then begin
                  next.(b) <- t;
                  choice.(b) <- v
                end)
            sizes
        done;
        best := next;
        (count, choice))
      specs
  in
  if Float.is_finite !best.(n_total) then begin
    (* walk the choices back from the last class *)
    let nodes = ref [] and b = ref n_total in
    List.iter
      (fun (count, choice) ->
        let v = choice.(!b) in
        nodes := v :: !nodes;
        b := !b - (count * v))
      (List.rev choices);
    Some (!best.(n_total), Array.of_list !nodes)
  end
  else None

(* --- The continuous min-max relaxation bound --- *)

(* Drop integrality and the sweet spots, keep each class's box and the
   budget: the optimum L of what is left bounds every allocation's
   makespan from below. L is found by bisection on the target T. Each
   class's time is convex, so the least real size meeting T is itself
   a bisection on the decreasing branch of its curve, and T is
   reachable iff those sizes fit the budget. [infinity] when even the
   smallest sizes overflow it. *)
let relaxation_bound ~n_total specs =
  let classes =
    List.map
      (fun spec ->
        let law = spec.fc.Classes.fit.Fitting.law in
        let lo, hi = effective_range ~n_total spec in
        let lo = float_of_int lo and hi = float_of_int hi in
        let xstar = Float.max lo (Float.min hi (Scaling_law.optimal_nodes law ~max_nodes:hi)) in
        (law, float_of_int spec.fc.Classes.cls.Classes.count, lo, xstar))
      specs
  in
  (* the least x in [lo, xstar] meeting [target], or None *)
  let xmin (law, _, lo, xstar) target =
    if Scaling_law.eval law lo <= target then Some lo
    else if Scaling_law.eval law xstar > target then None
    else begin
      let a = ref lo and b = ref xstar in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!a +. !b) in
        if Scaling_law.eval law mid <= target then b := mid else a := mid
      done;
      Some !b
    end
  in
  let feasible target =
    let need =
      List.fold_left
        (fun acc ((_, count, _, _) as c) ->
          match xmin c target with None -> infinity | Some x -> acc +. (count *. x))
        0. classes
    in
    need <= float_of_int n_total +. 1e-9
  in
  let worst f = List.fold_left (fun acc c -> Float.max acc (f c)) neg_infinity classes in
  (* below t_lo some class meets the target at no size; at t_hi every
     class meets it at its smallest *)
  let t_lo = worst (fun (law, _, _, xstar) -> Scaling_law.eval law xstar) in
  let t_hi = worst (fun (law, _, lo, _) -> Scaling_law.eval law lo) in
  if not (feasible t_hi) then infinity
  else if feasible t_lo then t_lo
  else begin
    let a = ref t_lo and b = ref t_hi in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!a +. !b) in
      if feasible mid then b := mid else a := mid
    done;
    (* the infeasible end: no allocation beats it *)
    !a
  end
