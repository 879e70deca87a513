type branching = Most_fractional | Pseudocost

type options = {
  max_nodes : int;
  tol_int : float;
  rel_gap : float;
  branch_sos_first : bool;
  depth_first : bool;
  branching : branching;
}

let default_options =
  {
    max_nodes = 100_000;
    tol_int = 1e-6;
    rel_gap = 1e-9;
    branch_sos_first = true;
    depth_first = false;
    branching = Pseudocost;
  }

type callback =
  float array ->
  float ->
  [ `Accept
  | `Reject of Lp.Lp_problem.constr list
  | `Reject_with_incumbent of Lp.Lp_problem.constr list * float array * float ]

(* provenance of a node: which variable/direction created it, the
   parent's LP value and the fractional part — the data pseudocost
   learning needs when the node is solved *)
type origin = { bvar : int; up : bool; parent_obj : float; frac : float }

type node = {
  nlo : float array;
  nhi : float array;
  depth : int;
  bound : float;
  origin : origin option;
}

(* split a violated SOS1 set at the weighted average of the LP point *)
let sos_split members x =
  let sorted = List.sort (fun (_, w1) (_, w2) -> compare w1 w2) members in
  let wsum = List.fold_left (fun acc (j, _) -> acc +. Float.abs x.(j)) 0. sorted in
  let wavg =
    if wsum <= 0. then 0.
    else List.fold_left (fun acc (j, w) -> acc +. (w *. Float.abs x.(j))) 0. sorted /. wsum
  in
  let s1, s2 = List.partition (fun (_, w) -> w <= wavg) sorted in
  if s1 = [] || s2 = [] then begin
    let arr = Array.of_list sorted in
    let half = Array.length arr / 2 in
    ( Array.to_list (Array.sub arr 0 (Stdlib.max 1 half)),
      Array.to_list (Array.sub arr (Stdlib.max 1 half) (Array.length arr - Stdlib.max 1 half)) )
  end
  else (s1, s2)

let run ?(options = default_options) ?(extra_rows = []) ?on_integral ?budget ?tally
    ?warm_start (p : Problem.t) =
  let lin_rows, nl = Problem.split_constraints p in
  if nl <> [] then invalid_arg "Milp.run: problem has nonlinear constraints";
  let obj = Problem.linear_objective p in
  let base_rows = lin_rows @ extra_rows in
  let cut_pool = ref [] in
  let num_cuts = ref 0 in
  let lp_solves = ref 0 in
  let nodes_processed = ref 0 in
  (* min-sense key so pruning logic is uniform *)
  let key v = if p.minimize then v else -.v in
  let incumbent = ref None in
  let incumbent_key = ref infinity in
  (* Warm start: a feasible point primes the incumbent, so pruning cuts
     off everything above its value from the first node on. An
     infeasible point is silently ignored. *)
  (match warm_start with
  | Some x0
    when Array.length x0 = p.num_vars && Problem.feasible ~tol:options.tol_int p x0 ->
    let x0 = Problem.round_integral p x0 in
    let obj0 = Problem.objective_value p x0 in
    incumbent := Some (x0, obj0);
    incumbent_key := key obj0;
    Engine.Telemetry.set_warm_start_used tally
  | Some _ | None -> ());
  (* LP template cache: rows only change when the cut pool grows, so
     rebuild the row skeleton per cut version and give each node a
     single-copy bound swap instead of the old
     make/set_objective/add_constraints/set_bounds-per-variable churn *)
  let lp_template = ref None in
  let lp_template_cuts = ref (-1) in
  let solve_lp node =
    incr lp_solves;
    let base =
      match !lp_template with
      | Some t when !lp_template_cuts = !num_cuts -> t
      | Some _ | None ->
        let lp =
          Lp.Lp_problem.make ~minimize:p.minimize ~names:p.names ~num_vars:p.num_vars ()
        in
        let lp = Lp.Lp_problem.set_objective lp obj in
        let lp = Lp.Lp_problem.add_constraints lp (base_rows @ !cut_pool) in
        lp_template := Some lp;
        lp_template_cuts := !num_cuts;
        lp
    in
    let lp = Lp.Lp_problem.with_bounds base ~lo:node.nlo ~hi:node.nhi in
    Lp.Simplex.run ?budget ?tally lp
  in
  let leq =
    if options.depth_first then fun a b -> a.depth >= b.depth
    else fun a b -> a.bound <= b.bound
  in
  let open_nodes = Ds.Heap.create ~leq in
  Ds.Heap.push open_nodes
    { nlo = Array.copy p.lo; nhi = Array.copy p.hi; depth = 0; bound = neg_infinity; origin = None };
  let unbounded = ref false in
  (* why the search stopped early, if it did: a solver-internal cap or
     the engine budget *)
  let stopped : [ `Internal of Solution.reason | `Budget of Solution.reason ] option ref =
    ref None
  in
  (* pseudocost tables: learned objective degradation per unit
     fractionality, per variable and direction *)
  let pc_sum_up = Array.make p.num_vars 0. and pc_n_up = Array.make p.num_vars 0 in
  let pc_sum_dn = Array.make p.num_vars 0. and pc_n_dn = Array.make p.num_vars 0 in
  let pc_global_avg () =
    let s = ref 0. and n = ref 0 in
    Array.iteri
      (fun j v ->
        s := !s +. v +. pc_sum_dn.(j);
        n := !n + pc_n_up.(j) + pc_n_dn.(j))
      pc_sum_up;
    if !n = 0 then 1. else Float.max 1e-6 (!s /. float_of_int !n)
  in
  let pc_estimate sums counts j =
    if counts.(j) = 0 then pc_global_avg () else Float.max 1e-9 (sums.(j) /. float_of_int counts.(j))
  in
  let learn node child_obj =
    match node.origin with
    | None -> ()
    | Some { bvar; up; parent_obj; frac } ->
      let degradation = Float.max 0. (key child_obj -. key parent_obj) in
      if up then begin
        pc_sum_up.(bvar) <- pc_sum_up.(bvar) +. (degradation /. Float.max 1e-6 (1. -. frac));
        pc_n_up.(bvar) <- pc_n_up.(bvar) + 1
      end
      else begin
        pc_sum_dn.(bvar) <- pc_sum_dn.(bvar) +. (degradation /. Float.max 1e-6 frac);
        pc_n_dn.(bvar) <- pc_n_dn.(bvar) + 1
      end
  in
  (* pick the branching variable: most-fractional, or best pseudocost
     product score over all fractional candidates *)
  let pick_branch_var x =
    match options.branching with
    | Most_fractional -> Problem.most_fractional ~tol:options.tol_int p x
    | Pseudocost ->
      let best = ref None and best_score = ref neg_infinity in
      Array.iteri
        (fun j kind ->
          match kind with
          | Problem.Integer | Problem.Binary ->
            let f = Float.abs (x.(j) -. Float.round x.(j)) in
            if f > options.tol_int then begin
              let d = pc_estimate pc_sum_dn pc_n_dn j *. f in
              let u = pc_estimate pc_sum_up pc_n_up j *. (1. -. f) in
              let score = Float.max d 1e-9 *. Float.max u 1e-9 in
              if score > !best_score then begin
                best_score := score;
                best := Some j
              end
            end
          | Problem.Continuous -> ())
        p.kinds;
      !best
  in
  let push_child node j ~lo ~hi ~x ~obj ~up =
    let nlo = Array.copy node.nlo and nhi = Array.copy node.nhi in
    nlo.(j) <- Float.max nlo.(j) lo;
    nhi.(j) <- Float.min nhi.(j) hi;
    if nlo.(j) <= nhi.(j) then begin
      let frac = x.(j) -. Float.floor x.(j) in
      Ds.Heap.push open_nodes
        {
          nlo;
          nhi;
          depth = node.depth + 1;
          bound = node.bound;
          origin = Some { bvar = j; up; parent_obj = obj; frac };
        }
    end
  in
  (* fix every member of an SOS1 subset to zero in a child node *)
  let push_sos_child node subset =
    let nlo = Array.copy node.nlo and nhi = Array.copy node.nhi in
    let feasible = ref true in
    List.iter
      (fun (j, _) ->
        if nlo.(j) > 0. || nhi.(j) < 0. then feasible := false
        else begin
          nlo.(j) <- 0.;
          nhi.(j) <- 0.
        end)
      subset;
    if !feasible then
      Ds.Heap.push open_nodes
        { nlo; nhi; depth = node.depth + 1; bound = node.bound; origin = None }
  in
  let gap_closed () =
    match Ds.Heap.peek_opt open_nodes with
    | None -> true
    | Some top ->
      (not options.depth_first)
      && !incumbent_key < infinity
      && !incumbent_key -. top.bound <= options.rel_gap *. Float.max 1. (Float.abs !incumbent_key)
  in
  let continue_loop = ref true in
  while !continue_loop && (not !unbounded) && not (Ds.Heap.is_empty open_nodes) do
    if gap_closed () && !incumbent_key < infinity then continue_loop := false
    else
      match Engine.Budget.stopped budget with
      | Some r ->
        stopped := Some (`Budget (Solution.reason_of_budget r));
        continue_loop := false
      | None ->
    if !nodes_processed >= options.max_nodes then begin
      stopped := Some (`Internal Solution.Node_limit);
      continue_loop := false
    end
    else begin
      let node = Ds.Heap.pop open_nodes in
      if node.bound >= !incumbent_key -. (options.rel_gap *. Float.max 1. (Float.abs !incumbent_key))
      then Engine.Telemetry.bump tally Engine.Telemetry.add_nodes_pruned 1
      else begin
        incr nodes_processed;
        (match budget with Some b -> Engine.Budget.add_nodes b 1 | None -> ());
        Engine.Telemetry.bump tally Engine.Telemetry.add_nodes_expanded 1;
        let s = solve_lp node in
        match s.Lp.Simplex.status with
        | Lp.Simplex.Infeasible -> Engine.Telemetry.bump tally Engine.Telemetry.add_nodes_pruned 1
        | Lp.Simplex.Iteration_limit ->
          (* keep draining the heap: other nodes may still solve within
             their own pivot budget (the engine budget is checked at the
             top of the loop and stops the whole search) *)
          if !stopped = None then stopped := Some (`Internal Solution.Iter_limit)
        | Lp.Simplex.Unbounded -> if node.depth = 0 then unbounded := true
        | Lp.Simplex.Optimal ->
          learn node s.Lp.Simplex.obj;
          let k = key s.Lp.Simplex.obj in
          if k >= !incumbent_key -. (options.rel_gap *. Float.max 1. (Float.abs !incumbent_key))
          then ()
          else begin
            let x = s.Lp.Simplex.x in
            let sos_viol =
              if options.branch_sos_first then Problem.violated_sos1 ~tol:options.tol_int p x
              else None
            in
            match sos_viol with
            | Some members ->
              let s1, s2 = sos_split members x in
              let node = { node with bound = k } in
              push_sos_child node s1;
              push_sos_child node s2
            | None -> (
              match pick_branch_var x with
              | Some j ->
                let node = { node with bound = k } in
                push_child node j ~lo:neg_infinity ~hi:(Float.floor x.(j)) ~x
                  ~obj:s.Lp.Simplex.obj ~up:false;
                push_child node j ~lo:(Float.ceil x.(j)) ~hi:infinity ~x ~obj:s.Lp.Simplex.obj
                  ~up:true
              | None -> (
                (* integral; SOS1 sets may still be violated when
                   branch_sos_first is off and members are continuous —
                   branch on the set in that case *)
                match Problem.violated_sos1 ~tol:options.tol_int p x with
                | Some members ->
                  let s1, s2 = sos_split members x in
                  let node = { node with bound = k } in
                  push_sos_child node s1;
                  push_sos_child node s2
                | None -> (
                  let x = Problem.round_integral p x in
                  let verdict =
                    match on_integral with
                    | None -> `Accept
                    | Some cb -> cb x s.Lp.Simplex.obj
                  in
                  match verdict with
                  | `Accept ->
                    if k < !incumbent_key then begin
                      incumbent_key := k;
                      incumbent := Some (x, s.Lp.Simplex.obj);
                      Engine.Telemetry.bump tally Engine.Telemetry.add_incumbent_updates 1
                    end
                  | `Reject cuts ->
                    cut_pool := cuts @ !cut_pool;
                    num_cuts := !num_cuts + List.length cuts;
                    Engine.Telemetry.bump tally Engine.Telemetry.add_oa_cuts (List.length cuts);
                    (* re-open this node: its LP must now respect the cuts *)
                    Ds.Heap.push open_nodes { node with bound = k }
                  | `Reject_with_incumbent (cuts, x', obj') ->
                    cut_pool := cuts @ !cut_pool;
                    num_cuts := !num_cuts + List.length cuts;
                    Engine.Telemetry.bump tally Engine.Telemetry.add_oa_cuts (List.length cuts);
                    let k' = key obj' in
                    if k' < !incumbent_key then begin
                      incumbent_key := k';
                      incumbent := Some (Problem.round_integral p x', obj');
                      Engine.Telemetry.bump tally Engine.Telemetry.add_incumbent_updates 1
                    end;
                    Ds.Heap.push open_nodes { node with bound = k })))
          end
      end
    end
  done;
  let best_open_bound =
    Ds.Heap.fold (fun acc n -> Float.min acc n.bound) infinity open_nodes
  in
  let bound = Float.min !incumbent_key best_open_bound in
  let stats =
    { Solution.nodes = !nodes_processed; lp_solves = !lp_solves; nlp_solves = 0; cuts = !num_cuts }
  in
  if !unbounded then
    { Solution.status = Solution.Unbounded; x = [||]; obj = nan; bound = neg_infinity; stats }
  else begin
    (* a budget stop can land inside a node's LP: the aborted simplex
       reads as an iteration limit, the node's subtree is abandoned, and
       the heap can drain to empty without the top-of-loop check ever
       firing. Re-inspect the budget before classifying the result —
       without charging a poll, since this is bookkeeping, not solving —
       and let a budget stop take precedence over an internal label that
       the abort may have masqueraded under. *)
    (match !stopped with
    | Some (`Budget _) -> ()
    | None | Some (`Internal _) -> (
      match Engine.Budget.inspected budget with
      | Some r -> stopped := Some (`Budget (Solution.reason_of_budget r))
      | None -> ()));
    match !incumbent with
    | Some (x, obj) ->
      (* an iteration-limited run abandoned the aborted node's subtree,
         so an emptied heap proves nothing there: only an unstopped run
         may claim optimality (the node cap fires between whole nodes
         and always leaves the heap non-empty, so it lands in the
         Feasible arm naturally) *)
      let status =
        match !stopped with
        | Some (`Budget r) -> Solution.Budget_exhausted r
        | Some (`Internal r) -> Solution.Feasible r
        | None -> Solution.Optimal
      in
      { Solution.status; x; obj; bound; stats }
    | None ->
      let status =
        match !stopped with
        | Some (`Internal r | `Budget r) -> Solution.Budget_exhausted r
        | None -> Solution.Infeasible
      in
      { Solution.status; x = [||]; obj = nan; bound; stats }
  end
