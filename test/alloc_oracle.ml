(* The max-min bisection and min-sum greedy that Hslb.Alloc_model ran
   before both moved onto its ladder walk, kept verbatim as oracles for
   test_hslb's property: they enumerate every size and give one step
   per loop turn, so they are only fit for small budgets. *)
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

(* the dispatch Alloc_model.solve ran for the two objectives *)
let solve ~objective ~n_total specs =
  Result.bind (smallest_sizes ~n_total specs) (fun start ->
      match objective with
      | Objective.Max_min -> max_min_solve ~n_total specs
      | Objective.Min_sum -> Ok (min_sum_greedy ~n_total ~start specs)
      | Objective.Min_max -> invalid_arg "Alloc_oracle.solve: max-min and min-sum only")
