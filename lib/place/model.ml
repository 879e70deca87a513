type instance = {
  topology : Topology.t;
  groups : int array array;
  names : string array;
  duration_s : float array array;
  mem_gb : float array;
  mem_per_node_gb : float;
  comm_mb : float array array;
  hop_cost_s_per_mb : float;
}

let num_tasks inst = Array.length inst.names
let num_groups inst = Array.length inst.groups

let capacity_gb inst g = float_of_int (Array.length inst.groups.(g)) *. inst.mem_per_node_gb

(* ---------- construction: every malformed or memory-infeasible
   instance is rejected here, before any solver sees it ---------- *)

let check_shapes ~topology ~groups ~names ~duration_s ~mem_gb ~mem_per_node_gb ~comm_mb
    ~hop_cost_s_per_mb =
  let nt = Array.length names and ng = Array.length groups in
  if nt = 0 then invalid_arg "Place.Model.make: no tasks";
  if ng = 0 then invalid_arg "Place.Model.make: no groups";
  if mem_per_node_gb <= 0. then
    invalid_arg
      (Printf.sprintf "Place.Model.make: mem_per_node_gb must be positive, got %g"
         mem_per_node_gb);
  if hop_cost_s_per_mb < 0. || not (Float.is_finite hop_cost_s_per_mb) then
    invalid_arg
      (Printf.sprintf "Place.Model.make: hop_cost_s_per_mb must be finite and non-negative, got %g"
         hop_cost_s_per_mb);
  let nodes = Topology.num_nodes topology in
  let seen = Array.make nodes false in
  Array.iteri
    (fun g ids ->
      if Array.length ids = 0 then
        invalid_arg (Printf.sprintf "Place.Model.make: group %d is empty" g);
      Array.iter
        (fun id ->
          if id < 0 || id >= nodes then
            invalid_arg
              (Printf.sprintf "Place.Model.make: group %d holds node %d, outside the %d-node torus"
                 g id nodes);
          if seen.(id) then
            invalid_arg
              (Printf.sprintf "Place.Model.make: node %d appears in two groups" id);
          seen.(id) <- true)
        ids)
    groups;
  if Array.length duration_s <> nt then
    invalid_arg
      (Printf.sprintf "Place.Model.make: duration_s has %d rows, expected %d (one per task)"
         (Array.length duration_s) nt);
  Array.iteri
    (fun t row ->
      if Array.length row <> ng then
        invalid_arg
          (Printf.sprintf
             "Place.Model.make: duration_s row %d has %d entries, expected %d (one per group)" t
             (Array.length row) ng);
      Array.iter
        (fun d ->
          if not (Float.is_finite d) || d < 0. then
            invalid_arg
              (Printf.sprintf "Place.Model.make: duration of task %S must be finite and non-negative"
                 names.(t)))
        row)
    duration_s;
  if Array.length mem_gb <> nt then
    invalid_arg
      (Printf.sprintf "Place.Model.make: mem_gb has %d entries, expected %d (one per task)"
         (Array.length mem_gb) nt);
  Array.iteri
    (fun t m ->
      if not (Float.is_finite m) || m < 0. then
        invalid_arg
          (Printf.sprintf "Place.Model.make: memory of task %S must be finite and non-negative"
             names.(t)))
    mem_gb;
  if Array.length comm_mb <> nt then
    invalid_arg
      (Printf.sprintf "Place.Model.make: comm_mb has %d rows, expected %d (one per task)"
         (Array.length comm_mb) nt);
  Array.iteri
    (fun i row ->
      if Array.length row <> nt then
        invalid_arg
          (Printf.sprintf "Place.Model.make: comm_mb row %d has %d entries, expected %d" i
             (Array.length row) nt);
      if comm_mb.(i).(i) <> 0. then
        invalid_arg (Printf.sprintf "Place.Model.make: comm_mb has a nonzero diagonal at %d" i);
      Array.iteri
        (fun j v ->
          if not (Float.is_finite v) || v < 0. then
            invalid_arg
              (Printf.sprintf "Place.Model.make: comm_mb (%d,%d) must be finite and non-negative"
                 i j);
          if v <> comm_mb.(j).(i) then
            invalid_arg (Printf.sprintf "Place.Model.make: comm_mb is not symmetric at (%d,%d)" i j))
        row)
    comm_mb

(* the two necessary conditions checkable without solving a bin
   packing: every class alone must fit the roomiest group, and the
   total must fit the machine. Messages follow the
   Fitting.recommended_sizes convention: one precise sentence per case,
   naming the offending value. *)
let check_memory ~groups ~names ~mem_gb ~mem_per_node_gb =
  let cap g = float_of_int (Array.length groups.(g)) *. mem_per_node_gb in
  let biggest = ref 0 in
  Array.iteri (fun g _ -> if cap g > cap !biggest then biggest := g) groups;
  Array.iteri
    (fun t m ->
      if m > cap !biggest then
        invalid_arg
          (Printf.sprintf
             "Place.Model.make: class %S needs %.3f GB but group %d (%d nodes at %.3f GB/node) \
              holds only %.3f GB"
             names.(t) m !biggest
             (Array.length groups.(!biggest))
             mem_per_node_gb (cap !biggest)))
    mem_gb;
  let total = Array.fold_left ( +. ) 0. mem_gb in
  let capacity = Array.fold_left (fun acc ids -> acc +. (float_of_int (Array.length ids) *. mem_per_node_gb)) 0. groups in
  if total > capacity then
    invalid_arg
      (Printf.sprintf
         "Place.Model.make: classes need %.3f GB in total but the %d groups hold only %.3f GB"
         total (Array.length groups) capacity)

let make ~topology ~groups ~names ~duration_s ~mem_gb ~mem_per_node_gb ~comm_mb
    ~hop_cost_s_per_mb () =
  check_shapes ~topology ~groups ~names ~duration_s ~mem_gb ~mem_per_node_gb ~comm_mb
    ~hop_cost_s_per_mb;
  check_memory ~groups ~names ~mem_gb ~mem_per_node_gb;
  {
    topology;
    groups = Array.map Array.copy groups;
    names = Array.copy names;
    duration_s = Array.map Array.copy duration_s;
    mem_gb = Array.copy mem_gb;
    mem_per_node_gb;
    comm_mb = Array.map Array.copy comm_mb;
    hop_cost_s_per_mb;
  }

(* ---------- evaluation ---------- *)

let hop_matrix inst =
  let ng = num_groups inst in
  let h = Array.make_matrix ng ng 0 in
  for g = 0 to ng - 1 do
    for g' = g + 1 to ng - 1 do
      let d = ref max_int in
      Array.iter
        (fun a ->
          Array.iter
            (fun b -> d := Stdlib.min !d (Topology.distance inst.topology a b))
            inst.groups.(g'))
        inst.groups.(g);
      h.(g).(g') <- !d;
      h.(g').(g) <- !d
    done
  done;
  h

let check_assignment inst assignment =
  let nt = num_tasks inst and ng = num_groups inst in
  if Array.length assignment <> nt then
    invalid_arg
      (Printf.sprintf "Place.Model.eval: assignment has %d entries, expected %d (one per task)"
         (Array.length assignment) nt);
  Array.iteri
    (fun t g ->
      if g < 0 || g >= ng then
        invalid_arg
          (Printf.sprintf "Place.Model.eval: task %S assigned to group %d, outside 0..%d"
             inst.names.(t) g (ng - 1)))
    assignment

type eval = { makespan_s : float; comm_cost_s : float; total_s : float }

let eval_with ~hop inst assignment =
  let nt = num_tasks inst and ng = num_groups inst in
  let load = Array.make ng 0. in
  for t = 0 to nt - 1 do
    let g = assignment.(t) in
    load.(g) <- load.(g) +. inst.duration_s.(t).(g)
  done;
  let makespan_s = Array.fold_left Float.max 0. load in
  let comm = ref 0. in
  for i = 0 to nt - 1 do
    for j = i + 1 to nt - 1 do
      let v = inst.comm_mb.(i).(j) in
      if v > 0. then
        comm :=
          !comm
          +. (v
             *. float_of_int hop.(assignment.(i)).(assignment.(j))
             *. inst.hop_cost_s_per_mb)
    done
  done;
  { makespan_s; comm_cost_s = !comm; total_s = makespan_s +. !comm }

let eval inst assignment =
  check_assignment inst assignment;
  eval_with ~hop:(hop_matrix inst) inst assignment

let feasible_memory inst assignment =
  check_assignment inst assignment;
  let used = Array.make (num_groups inst) 0. in
  Array.iteri (fun t g -> used.(g) <- used.(g) +. inst.mem_gb.(t)) assignment;
  let ok = ref true in
  Array.iteri (fun g u -> if u > capacity_gb inst g +. 1e-9 then ok := false) used;
  !ok

(* ---------- fingerprint ----------
   Built like Alloc_model.fingerprint, a version tag, every dimension
   and length-prefixed names, with round-tripping %.17g floats, so
   distinct instances cannot collide. The topology shape and the group
   carve are part of the key — two instances differing only in where
   their nodes sit must never share a cached answer. *)

let fingerprint ?(base = "") inst =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "place-v1|";
  Buffer.add_string buf (Printf.sprintf "%d:%s|" (String.length base) base);
  let (t : Topology.t) = inst.topology in
  Buffer.add_string buf (Printf.sprintf "%dx%dx%d|" t.Topology.dim_x t.Topology.dim_y t.Topology.dim_z);
  Array.iter
    (fun ids ->
      Buffer.add_char buf 'g';
      Array.iter (fun id -> Buffer.add_string buf (Printf.sprintf "%d," id)) ids;
      Buffer.add_char buf ';')
    inst.groups;
  Array.iteri
    (fun t name ->
      Buffer.add_string buf (Printf.sprintf "|%d:%s," (String.length name) name);
      Buffer.add_string buf (Printf.sprintf "%.17g," inst.mem_gb.(t));
      Array.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%.17g," d)) inst.duration_s.(t))
    inst.names;
  Buffer.add_string buf (Printf.sprintf "|m%.17g|h%.17g|c" inst.mem_per_node_gb inst.hop_cost_s_per_mb);
  let nt = num_tasks inst in
  for i = 0 to nt - 1 do
    for j = i + 1 to nt - 1 do
      Buffer.add_string buf (Printf.sprintf "%.17g," inst.comm_mb.(i).(j))
    done
  done;
  Buffer.contents buf

(* ---------- the exact path: placement MILP ----------

   min  T + sum c_ijgh * w_ijgh
   s.t. sum_g x_tg = 1                      (every task lands somewhere)
        sum_t dur_tg x_tg <= T              (epigraph makespan per group)
        sum_t mem_t x_tg <= cap_g           (memory knapsack per group)
        w_ijgh >= x_ig + x_jh - 1           (comm pricing, both orientations
        w_ijgh >= x_ih + x_jg - 1            of the unordered group pair)

   with x binary and w continuous in [0,1]. The w rows are the standard
   exact linearization of the product x_ig*x_jh under a minimization
   with non-negative prices: at any integral x the cheapest feasible w
   is exactly the product, so the MILP optimum is the true QAP-style
   optimum and Bnb/Oa certificates transfer unchanged. *)

let build_milp inst =
  let nt = num_tasks inst and ng = num_groups inst in
  let hop = hop_matrix inst in
  let b = Minlp.Problem.Builder.create () in
  let t_var = Minlp.Problem.Builder.add_var b ~name:"T" ~lo:0. ~hi:1e12 Minlp.Problem.Continuous in
  let x = Array.make_matrix nt ng 0 in
  for t = 0 to nt - 1 do
    for g = 0 to ng - 1 do
      x.(t).(g) <-
        Minlp.Problem.Builder.add_var b ~name:(Printf.sprintf "x_%d_%d" t g) Minlp.Problem.Binary
    done
  done;
  (* one w per comm pair per unordered group pair with a nonzero price *)
  let w = ref [] in
  for i = 0 to nt - 1 do
    for j = i + 1 to nt - 1 do
      if inst.comm_mb.(i).(j) > 0. then
        for g = 0 to ng - 1 do
          for h = g + 1 to ng - 1 do
            let price =
              inst.comm_mb.(i).(j) *. float_of_int hop.(g).(h) *. inst.hop_cost_s_per_mb
            in
            if price > 0. then begin
              let v =
                Minlp.Problem.Builder.add_var b
                  ~name:(Printf.sprintf "w_%d_%d_%d_%d" i j g h)
                  ~lo:0. ~hi:1. Minlp.Problem.Continuous
              in
              w := (i, j, g, h, v, price) :: !w
            end
          done
        done
    done
  done;
  let w = List.rev !w in
  Minlp.Problem.Builder.set_objective b
    (Minlp.Expr.add
       (Minlp.Expr.var t_var
       :: List.map (fun (_, _, _, _, v, price) -> Minlp.Expr.scale price (Minlp.Expr.var v)) w));
  for t = 0 to nt - 1 do
    Minlp.Problem.Builder.add_constr b
      ~name:(Printf.sprintf "assign_%d" t)
      (Minlp.Expr.linear (List.init ng (fun g -> (x.(t).(g), 1.))))
      Lp.Lp_problem.Eq 1.
  done;
  for g = 0 to ng - 1 do
    Minlp.Problem.Builder.add_constr b
      ~name:(Printf.sprintf "load_%d" g)
      (Minlp.Expr.add
         (Minlp.Expr.neg (Minlp.Expr.var t_var)
         :: List.init nt (fun t ->
                Minlp.Expr.scale inst.duration_s.(t).(g) (Minlp.Expr.var x.(t).(g)))))
      Lp.Lp_problem.Le 0.;
    Minlp.Problem.Builder.add_constr b
      ~name:(Printf.sprintf "mem_%d" g)
      (Minlp.Expr.linear (List.init nt (fun t -> (x.(t).(g), inst.mem_gb.(t)))))
      Lp.Lp_problem.Le (capacity_gb inst g)
  done;
  List.iter
    (fun (i, j, g, h, v, _) ->
      Minlp.Problem.Builder.add_constr b
        ~name:(Printf.sprintf "comm_%d_%d_%d_%d" i j g h)
        (Minlp.Expr.linear [ (x.(i).(g), 1.); (x.(j).(h), 1.); (v, -1.) ])
        Lp.Lp_problem.Le 1.;
      Minlp.Problem.Builder.add_constr b
        ~name:(Printf.sprintf "comm_%d_%d_%d_%d'" i j g h)
        (Minlp.Expr.linear [ (x.(i).(h), 1.); (x.(j).(g), 1.); (v, -1.) ])
        Lp.Lp_problem.Le 1.)
    w;
  let problem = Minlp.Problem.Builder.build b in
  let n_vars = 1 + (nt * ng) + List.length w in
  let lift assignment =
    check_assignment inst assignment;
    let point = Array.make n_vars 0. in
    Array.iteri (fun t g -> point.(x.(t).(g)) <- 1.) assignment;
    let load = Array.make ng 0. in
    Array.iteri (fun t g -> load.(g) <- load.(g) +. inst.duration_s.(t).(g)) assignment;
    point.(t_var) <- Array.fold_left Float.max 0. load;
    List.iter
      (fun (i, j, g, h, v, _) ->
        if
          (assignment.(i) = g && assignment.(j) = h)
          || (assignment.(i) = h && assignment.(j) = g)
        then point.(v) <- 1.)
      w;
    point
  in
  (problem, lift)

(* ---------- the MINLP solve path ---------- *)

type solved = {
  assignment : int array;
  evaluation : eval;
  status : Minlp.Solution.status;
  stats : Minlp.Solution.stats;
  certificate : Engine.Certificate.t option;
}

let solve_minlp ?(solver = Engine.Solver_choice.Oa) ?budget ?cancel ?warm_start ?trace inst =
  let budget = Engine.Budget.join ?budget ?cancel () in
  let problem, lift = build_milp inst in
  let sol, cert =
    Minlp.Solver.run ~rel_gap:Minlp.Solver.model_rel_gap ?budget ?tally:trace
      ?warm_start:(Option.map lift warm_start) solver problem
  in
  if Minlp.Solution.has_incumbent sol then begin
    let nt = num_tasks inst and ng = num_groups inst in
    let assignment = Array.make nt 0 in
    for t = 0 to nt - 1 do
      let best = ref 0 in
      for g = 1 to ng - 1 do
        (* x variables start at index 1, row-major by task *)
        if sol.Minlp.Solution.x.(1 + (t * ng) + g) > sol.Minlp.Solution.x.(1 + (t * ng) + !best)
        then best := g
      done;
      assignment.(t) <- !best
    done;
    Ok
      {
        assignment;
        evaluation = eval inst assignment;
        status = sol.Minlp.Solution.status;
        stats = sol.Minlp.Solution.stats;
        certificate = Some cert;
      }
  end
  else Error sol.Minlp.Solution.status
