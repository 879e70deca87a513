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

(* One class on its admissible sizes, addressed by index in increasing
   size: the box [max 1 n_min, min n_max N] from [lo], or the sweet
   spots inside it. [bottom] is the least index minimizing its time: the
   law is convex, so the step time (i + 1) - time i only grows and its
   sign bisects (exactly on the integers, where
   Scaling_law.optimal_nodes is a tolerance-bound real minimizer). No
   size range is ever enumerated; every lookup is a bisection. Times
   are remembered in [memo_slots] direct-mapped slots: the walks revisit
   the same indices from bisection to bisection, and a ladder of at most
   [memo_slots] sizes evaluates each size's law at most once. The walk
   reads them straight off [times], so no key read boxes a float. *)
type ladder = {
  count : int;
  lo : int;
  spots : int array option;
  last : int;
  law : Scaling_law.t;
  seen : int array;  (** the index each slot holds, or -1 *)
  times : float array;  (** its time *)
  mutable bottom : int;
}

let memo_slots = 256

let[@inline] size l i = match l.spots with None -> l.lo + i | Some a -> a.(i)

(* the slot holding index [i]'s time, filled on first use *)
let slot l i =
  let s = i mod Array.length l.seen in
  if l.seen.(s) <> i then begin
    l.times.(s) <- Scaling_law.eval_int l.law (size l i);
    l.seen.(s) <- i
  end;
  s

let[@inline] time l i = l.times.(slot l i)

(* Float.max, inlined so neither operand is boxed *)
let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan x then x else y
  else if Float.is_nan y then y else x

(* Each bisection below returns the least i in [lo, hi] at which its
   predicate holds, or hi + 1 when it holds nowhere; every predicate is
   false then true. Even where one is not monotone the answer is a
   boundary: the predicate holds at i and not at i - 1 (or i = lo).
   Each is a loop of its own, so no bisection takes a closure. *)

(* predicate: [size l i - base > bound] *)
let first_over l lo hi base bound =
  let lo = ref lo and hi = ref (hi + 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if size l mid - base > bound then hi := mid else lo := mid + 1
  done;
  !lo

(* predicate: [time l i -. base < t], over [0, hi] *)
let first_time_under l hi base t =
  let lo = ref 0 and hi = ref (hi + 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if time l mid -. base < t then hi := mid else lo := mid + 1
  done;
  !lo

let ladder ~n_total spec =
  let lo = Stdlib.max 1 spec.n_min and hi = Stdlib.min spec.n_max n_total in
  let last, spots =
    match spec.allowed with
    | None -> (hi - lo, None)
    | Some values ->
      let a =
        Array.of_list (List.filter (fun v -> v >= lo && v <= hi) (List.sort_uniq compare values))
      in
      (Array.length a - 1, Some a)
  in
  let slots = Stdlib.max 1 (Stdlib.min (last + 1) memo_slots) in
  let l =
    {
      count = spec.fc.Classes.cls.Classes.count;
      lo;
      spots;
      last;
      law = spec.fc.Classes.fit.Fitting.law;
      seen = Array.make slots (-1);
      times = Array.make slots 0.;
      bottom = 0;
    }
  in
  (* the first index whose step does not lower the time *)
  let lo = ref 0 and hi = ref (last + 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if mid = last || time l (mid + 1) >= time l mid then hi := mid else lo := mid + 1
  done;
  l.bottom <- !lo;
  l

(* The walk every objective's allocation comes from: from the smallest
   sizes, repeatedly give the class whose next step ranks highest by its
   key (lowest index among ties) that step, while the class is short of
   its [stop] index and the step fits the budget. A class whose step
   does not fit is done, for the budget only shrinks. The key of the
   step from index i is its time, or under [gain] min-sum's gain, and
   must not rise along [0, stop]. Taken in order, the steps form one
   sequence of keys that never rise, replayed in at most k + 1 rounds:
   each finds by bisection the lowest level L at which every step above
   L still fits, takes them, then gives the classes at L, in index
   order, their steps keyed L while they fit, and at least one class
   runs out of budget there. Where rounding makes a key rise
   (consecutive sizes past ~10^8 nodes), the walk may leave that order,
   but it still never overdraws the budget. The state lives in one
   record of ints, bools and floats, and the level a bisection tests
   sits in [lv.(0)], so no step allocates. *)
type walk = {
  ls : ladder array;
  gain : bool;
  stop : int array;
  cur : int array;
  active : bool array;
  mutable left : int;
  lv : float array;  (** [lv.(0)]: the level under test; [lv.(1)]: [next]'s answer *)
}

(* the key of class [c]'s step from index i: its time, or under [gain]
   min-sum's gain, the total-time decrease per node of the step. Each
   class cost is convex in its node count, so the gain falls along the
   ladder; no step leaves the last size. Inlined, so the key is never
   boxed. *)
let[@inline] key w c i =
  let l = w.ls.(c) in
  if not w.gain then time l i
  else if i = l.last then 0.
  else
    float_of_int l.count *. (time l i -. time l (i + 1))
    /. float_of_int (l.count * (size l (i + 1) - size l i))

(* predicate: the key of class [c]'s step from i is under the level, or
   at it when not [strict] *)
let first_under w c ~strict lo hi =
  let level = w.lv.(0) in
  let lo = ref lo and hi = ref (hi + 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    let k = key w c mid in
    if if strict then k < level else k <= level then hi := mid else lo := mid + 1
  done;
  !lo

let move w c i =
  let l = w.ls.(c) in
  w.left <- w.left - (l.count * (size l i - size l w.cur.(c)));
  w.cur.(c) <- i;
  if i = w.stop.(c) then w.active.(c) <- false

(* where class [c] stops once every step above the level is taken *)
let reach w c = Stdlib.min w.stop.(c) (first_under w c ~strict:false w.cur.(c) w.stop.(c))

(* whether the active classes can all take every step above the level *)
let fits w =
  let c = ref 0 and left = ref w.left and ok = ref true in
  while !ok && !c < Array.length w.ls do
    if w.active.(!c) then begin
      let l = w.ls.(!c) in
      let d = size l (reach w !c) - size l w.cur.(!c) in
      if d <= !left / l.count then left := !left - (l.count * d) else ok := false
    end;
    incr c
  done;
  !ok

(* into [lv.(1)]: the lowest level taking the same steps as the levels
   just under the level *)
let next w =
  let best = ref neg_infinity in
  for c = 0 to Array.length w.ls - 1 do
    if w.active.(c) then begin
      let i = first_under w c ~strict:true w.cur.(c) w.stop.(c) in
      if i <= w.stop.(c) then best := fmax !best (key w c i)
    end
  done;
  w.lv.(1) <- !best

(* the lowest level that fits, given that [hi] fits and [lo] does not.
   It returns only levels [fits] passed: where a key rises, bisections
   at nearby levels can land on different boundaries. *)
let lowest w lo hi =
  let lo = ref lo and hi = ref hi and found = ref false in
  while not !found do
    w.lv.(0) <- !hi;
    next w;
    let t = w.lv.(1) in
    w.lv.(0) <- t;
    if t <= !lo || not (fits w) then found := true
    else begin
      let mid = !lo +. ((t -. !lo) /. 2.) in
      if not (!lo < mid && mid < t) then hi := t
      else begin
        w.lv.(0) <- mid;
        if fits w then hi := mid
        else begin
          lo := mid;
          hi := t
        end
      end
    end
  done;
  !hi

(* the highest key at the current sizes *)
let[@inline] current w =
  let best = ref neg_infinity in
  for c = 0 to Array.length w.ls - 1 do
    if w.active.(c) then best := fmax !best (key w c w.cur.(c))
  done;
  !best

(* Returns the sizes reached, the slowest of their times and each one's
   time, read off the ladders. *)
let descend ~n_total ~gain ~stop ls =
  let k = Array.length ls in
  let w =
    {
      ls;
      gain;
      stop;
      cur = Array.make k 0;
      active = Array.map (fun s -> s > 0) stop;
      left = n_total;
      lv = Array.make 2 0.;
    }
  in
  for c = 0 to k - 1 do
    w.left <- w.left - (ls.(c).count * size ls.(c) 0)
  done;
  while Array.exists Fun.id w.active do
    w.lv.(0) <- neg_infinity;
    if fits w then
      for c = 0 to k - 1 do
        if w.active.(c) then move w c stop.(c)
      done
    else begin
      (* under every active class's key at its stop nothing fits *)
      let best = ref neg_infinity in
      for c = 0 to k - 1 do
        if w.active.(c) then best := fmax !best (-.key w c stop.(c))
      done;
      let under = Float.pred (-. !best) in
      (* the level of the current sizes takes no step, unless a key
         rises *)
      let hi = current w in
      w.lv.(0) <- hi;
      if fits w then begin
        w.lv.(0) <- lowest w under hi;
        for c = 0 to k - 1 do
          if w.active.(c) then move w c (reach w c)
        done
      end;
      let top = current w in
      w.lv.(0) <- Float.pred top;
      for c = 0 to k - 1 do
        if w.active.(c) && key w c w.cur.(c) = top then begin
          (* its steps keyed [top], as many as fit *)
          let l = ls.(c) in
          let j = reach w c in
          let i = first_over l w.cur.(c) j (size l w.cur.(c)) (w.left / l.count) - 1 in
          move w c i;
          if i < j then w.active.(c) <- false
        end
      done
    end
  done;
  let times = Array.mapi (fun c i -> time ls.(c) i) w.cur in
  (Array.mapi (fun c i -> size ls.(c) i) w.cur, Array.fold_left Float.max 0. times, times)

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
        first_over l 0 l.last 0 cap - 1)
      ls (Array.of_list specs)
  in
  (* a class whose admissible sizes all lie past its curve's minimum
     has no size on the decreasing branch *)
  if Array.exists (fun e -> e < 0) ends then Error Minlp.Solution.Infeasible
  else begin
    (* the largest index with time >= t, or -1 *)
    let cap c t = first_time_under ls.(c) ends.(c) 0. t - 1 in
    let covers t =
      let rec go c total =
        if c = Array.length ls then total >= n_total
        else
          let i = cap c t in
          i >= 0 && go (c + 1) (total + (ls.(c).count * size ls.(c) i))
      in
      go 0 0
    in
    (* the minimum time cannot exceed any class's time at its smallest size *)
    let t_hi = Array.fold_left (fun acc l -> Float.min acc (time l 0)) infinity ls in
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
    let nodes, predicted_makespan, predicted_times = descend ~n_total ~gain:false ~stop ls in
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
   the greedy is the walk keyed by that gain, down to each class's
   bottom. It is exact when every step costs one node (count 1, no sweet
   spots); steps of several nodes make the budget a knapsack, where it
   can stop above the optimum. *)
let min_sum ~n_total ls =
  let nodes, predicted_makespan, predicted_times =
    descend ~n_total ~gain:true ~stop:(bottoms ls) ls
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
      if time l l.bottom -. t_star < -.eta then
        Engine.Certificate.Below (size l (first_time_under l l.bottom t_star (-.eta)))
      else Engine.Certificate.Floor (size l l.bottom))
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
    descend ~n_total ~gain:false ~stop:(bottoms ls) ls
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
   instances solved by the same solver. Written in two passes over one
   traversal: the first only counts the bytes, the second writes them
   into a string of that length, with no intermediate string. *)
type key_sink = { mutable key : Bytes.t; mutable pos : int }

let[@inline] writing k = Bytes.length k.key > 0

let put_string k s =
  if writing k then Bytes.blit_string s 0 k.key k.pos (String.length s);
  k.pos <- k.pos + String.length s

let put_char k c =
  if writing k then Bytes.set k.key k.pos c;
  k.pos <- k.pos + 1

(* [sep], then [n] in decimal, as string_of_int prints it *)
let put_int k sep n =
  put_char k sep;
  if n < 0 then put_string k (string_of_int n)
  else begin
    let digits = ref 1 and m = ref n in
    while !m >= 10 do
      incr digits;
      m := !m / 10
    done;
    if writing k then begin
      let m = ref n in
      for j = k.pos + !digits - 1 downto k.pos do
        Bytes.set k.key j (Char.chr (48 + (!m mod 10)));
        m := !m / 10
      done
    end;
    k.pos <- k.pos + !digits
  end

let put_law k (law : Scaling_law.t) =
  if writing k then begin
    Bytes.set_int64_le k.key k.pos (Int64.bits_of_float law.a);
    Bytes.set_int64_le k.key (k.pos + 8) (Int64.bits_of_float law.b);
    Bytes.set_int64_le k.key (k.pos + 16) (Int64.bits_of_float law.c);
    Bytes.set_int64_le k.key (k.pos + 24) (Int64.bits_of_float law.d)
  end;
  k.pos <- k.pos + 32

let put_spec k s =
  let name = s.fc.Classes.cls.Classes.name in
  put_int k '|' (String.length name);
  put_char k ':';
  put_string k name;
  put_int k ',' s.fc.Classes.cls.Classes.count;
  put_int k ',' s.n_min;
  put_int k ',' s.n_max;
  put_char k ',';
  put_law k s.fc.Classes.fit.Fitting.law;
  match s.allowed with
  | None -> put_char k '*'
  | Some values -> List.iter (put_int k 'a') (List.sort_uniq compare values)

let put_key k ~solver ~objective ~n_total specs =
  put_string k "alloc-v3|";
  put_string k (Engine.Solver_choice.to_string solver);
  put_char k '|';
  put_string k (Objective.to_string objective);
  put_int k '|' n_total;
  put_int k '|' (List.length specs);
  List.iter (put_spec k) specs

let fingerprint ~solver ~objective ~n_total specs =
  let k = { key = Bytes.empty; pos = 0 } in
  put_key k ~solver ~objective ~n_total specs;
  k.key <- Bytes.create k.pos;
  k.pos <- 0;
  put_key k ~solver ~objective ~n_total specs;
  Bytes.unsafe_to_string k.key

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

let solve ?(solver = default_solver) ?(objective = Objective.Min_max) ?budget ?warm_start
    ?trace ?cache ~n_total specs =
  if specs = [] then invalid_arg "Alloc_model.solve: no classes";
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
        || Array.fold_left (fun used l -> used + (l.count * size l 0)) 0 ls > n_total
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
    let i = first_over l 0 l.last x (-1) in
    i <= l.last && size l i = x
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
    (* relative to the optimum itself, whatever the unit of time; OPT
       is 0 only when every law is, and then so is U *)
    let gap_rel =
      if optimum.predicted_makespan > 0. then
        (incumbent_makespan -. optimum.predicted_makespan) /. optimum.predicted_makespan
      else 0.
    in
    Some { incumbent_makespan; optimum; gap_rel; keep = gap_rel <= eps }
