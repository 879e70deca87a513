(* The drift-rate × re-solve-policy frontier behind E12 and
   BENCH_resolve.json.

   A seeded world of task classes follows hidden ground-truth scaling
   laws whose coefficients drift a little every round. Three policies
   maintain an allocation against noisy benchmark observations of the
   drifting truth:

   - always: full batch refit + re-solve every round;
   - never: solve once, keep the incumbent forever;
   - certified: fold observations in with rank-one online updates
     (Fitting.Online), price the incumbent against the exact optimum
     of the updated fit (Alloc_model.reoptimality), and adopt that
     optimum only when the incumbent is more than ε above it.

   Every policy is scored on the TRUE makespan of its current
   allocation under the hidden laws, averaged over rounds — the fitted
   models are only what the policies get to see. A cell's [solves]
   counts the allocations the policy adopted, the initial one
   included; [skipped] counts the rounds it kept its incumbent. *)

let schema_version = "hslb-bench-resolve-v1"

type cell = { policy : string; makespan_avg : float; solves : int; skipped : int }
type row = { drift_rate : float; cells : cell list }

type t = {
  seed : int;
  rounds : int;
  classes : int;
  nodes : int;
  epsilon : float;
  rows : row list;
}

(* ground truth for one class: the law the world actually follows,
   and the direction its scalable coefficient drifts *)
type truth = { mutable law : Scaling_law.t; drift_dir : float; count : int; name : string }

let make_truths ~rng ~classes =
  List.init classes (fun i ->
      let a = Numerics.Rng.uniform rng ~lo:120. ~hi:420. in
      let b = Numerics.Rng.uniform rng ~lo:0.001 ~hi:0.01 in
      let c = Numerics.Rng.uniform rng ~lo:0.85 ~hi:1.0 in
      let d = Numerics.Rng.uniform rng ~lo:0.2 ~hi:1.0 in
      {
        law = Scaling_law.make ~a ~b ~c ~d;
        drift_dir = Numerics.Rng.uniform rng ~lo:(-1.) ~hi:1.;
        count = 1 + Numerics.Rng.int rng 3;
        name = Printf.sprintf "c%d" i;
      })

(* one round of drift: the scalable work and the serial floor move by
   up to [rate] in the class's fixed direction *)
let drift_truth ~rate tr =
  let f = 1. +. (rate *. tr.drift_dir) in
  let l = tr.law in
  tr.law <-
    Scaling_law.make ~a:(Float.max 1e-6 (l.Scaling_law.a *. f)) ~b:l.Scaling_law.b
      ~c:l.Scaling_law.c
      ~d:(Float.max 1e-9 (l.Scaling_law.d *. f))

let sample_sizes ~nodes = Hslb.Fitting.recommended_sizes ~n_min:1 ~n_max:nodes ~points:6

(* noisy benchmark of the current truth at the standard sizes *)
let observe_truth ~rng tr sizes =
  Array.of_list
    (List.map
       (fun n ->
         let y =
           Scaling_law.eval_int tr.law n *. (1. +. Numerics.Rng.normal rng ~mu:0. ~sigma:0.02)
         in
         (float_of_int n, Float.max 1e-9 y))
       sizes)

let fitted_of tr (fit : Hslb.Fitting.fit) =
  {
    Hslb.Classes.cls =
      Hslb.Classes.make ~name:tr.name ~count:tr.count (fun ~nodes ->
          Scaling_law.eval_int tr.law nodes);
    fit;
  }

let specs_of ~nodes fitted = List.map (Hslb.Alloc_model.spec_of ~n_max:nodes) fitted

let solve_alloc ~nodes fitted =
  match Hslb.Alloc_model.solve ~n_total:nodes (specs_of ~nodes fitted) with
  | Ok a -> a.Hslb.Alloc_model.nodes_per_task
  | Error st ->
    failwith
      (Printf.sprintf "Resolve_frontier: solve failed: %s" (Minlp.Solution.status_to_string st))

let true_makespan truths alloc =
  List.fold_left
    (fun (acc, i) tr -> (Float.max acc (Scaling_law.eval_int tr.law alloc.(i)), i + 1))
    (neg_infinity, 0) truths
  |> fst

let run_rate ~seed ~rounds ~classes ~nodes ~eps drift_rate =
  let world_seed = seed + int_of_float (drift_rate *. 10000.) in
  let rng = Numerics.Rng.create world_seed in
  let truths = make_truths ~rng ~classes in
  let sizes = sample_sizes ~nodes in
  (* round 0: everyone fits the same initial benchmarks and solves once *)
  let initial_obs = List.map (fun tr -> observe_truth ~rng tr sizes) truths in
  let fit_rng () = Numerics.Rng.create (world_seed + 1) in
  let initial_fits =
    List.map (fun obs -> Hslb.Fitting.fit_observations ~rng:(fit_rng ()) obs) initial_obs
  in
  let initial_fitted = List.map2 fitted_of truths initial_fits in
  let alloc0 = solve_alloc ~nodes initial_fitted in
  (* per-policy state *)
  let alloc_always = ref alloc0 and solves_always = ref 1 in
  let alloc_never = alloc0 in
  let alloc_cert = ref alloc0
  and solves_cert = ref 1
  and skipped_cert = ref 0 in
  let history = List.map (fun obs -> ref [ obs ]) initial_obs in
  let online =
    List.map
      (fun (f : Hslb.Fitting.fit) ->
        Hslb.Fitting.Online.of_law ~rng:(fit_rng ()) f.Hslb.Fitting.law)
      initial_fits
  in
  let score_always = ref 0. and score_never = ref 0. and score_cert = ref 0. in
  for _round = 1 to rounds do
    List.iter (drift_truth ~rate:drift_rate) truths;
    let fresh = List.map (fun tr -> observe_truth ~rng tr sizes) truths in
    (* always: refit on the full history, solve from scratch *)
    List.iter2 (fun h obs -> h := obs :: !h) history fresh;
    let fits =
      List.map
        (fun h -> Hslb.Fitting.fit_observations ~rng:(fit_rng ()) (Array.concat (List.rev !h)))
        history
    in
    alloc_always := solve_alloc ~nodes (List.map2 fitted_of truths fits);
    incr solves_always;
    (* certified: rank-one updates, then the incumbent is kept while it
       is within eps of the exact optimum, which is adopted otherwise *)
    List.iter2 (fun ol obs -> Hslb.Fitting.Online.observe_all ol obs) online fresh;
    let online_fitted =
      List.map2
        (fun tr ol ->
          fitted_of tr
            {
              Hslb.Fitting.law = Hslb.Fitting.Online.law ol;
              r2 = Float.nan;
              rmse = Float.nan;
              observations = [||];
            })
        truths online
    in
    (match
       Hslb.Alloc_model.reoptimality ~eps ~n_total:nodes ~incumbent:!alloc_cert
         (specs_of ~nodes online_fitted)
     with
    | Some r when r.Hslb.Alloc_model.keep -> incr skipped_cert
    | Some r ->
      alloc_cert := r.Hslb.Alloc_model.optimum.Hslb.Alloc_model.nodes_per_task;
      incr solves_cert
    | None ->
      (* every incumbent is an allocation of this same box and budget *)
      assert false);
    (* everyone pays the true cost of whatever they currently run *)
    score_always := !score_always +. true_makespan truths !alloc_always;
    score_never := !score_never +. true_makespan truths alloc_never;
    score_cert := !score_cert +. true_makespan truths !alloc_cert
  done;
  let avg s = s /. float_of_int rounds in
  {
    drift_rate;
    cells =
      [
        { policy = "always"; makespan_avg = avg !score_always; solves = !solves_always; skipped = 0 };
        { policy = "never"; makespan_avg = avg !score_never; solves = 1; skipped = rounds };
        {
          policy = "certified";
          makespan_avg = avg !score_cert;
          solves = !solves_cert;
          skipped = !skipped_cert;
        };
      ];
  }

let run ?(quick = false) ?(eps = 0.05) ?rounds ?drift_rates ~seed () =
  let rounds = match rounds with Some r -> r | None -> if quick then 4 else 6 in
  let drift_rates =
    match drift_rates with
    | Some rs -> rs
    | None -> if quick then [ 0.0; 0.15 ] else [ 0.0; 0.05; 0.15 ]
  in
  let classes = 4 and nodes = 96 in
  {
    seed;
    rounds;
    classes;
    nodes;
    epsilon = eps;
    rows = List.map (run_rate ~seed ~rounds ~classes ~nodes ~eps) drift_rates;
  }

(* --- JSON ----------------------------------------------------------- *)

let to_json t =
  let open Obs.Json in
  let cell_json c =
    Obj
      [
        ("policy", Str c.policy);
        ("makespan_avg", Num c.makespan_avg);
        ("solves", Num (float_of_int c.solves));
        ("skipped", Num (float_of_int c.skipped));
      ]
  in
  let row_json r =
    Obj
      [
        ("drift_rate", Num r.drift_rate);
        ("cells", Arr (List.map cell_json r.cells));
      ]
  in
  Obj
    [
      ("schema", Str schema_version);
      ("seed", Num (float_of_int t.seed));
      ("rounds", Num (float_of_int t.rounds));
      ("classes", Num (float_of_int t.classes));
      ("nodes", Num (float_of_int t.nodes));
      ("epsilon", Num t.epsilon);
      ("rows", Arr (List.map row_json t.rows));
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let* schema = str_field "schema" j in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported schema %S (expected %S)" schema schema_version)
  else
    let* seed = int_field "seed" j in
    let* rounds = int_field "rounds" j in
    let* classes = int_field "classes" j in
    let* nodes = int_field "nodes" j in
    let* epsilon = num_field "epsilon" j in
    let parse_cell c =
      let* policy = str_field "policy" c in
      let* makespan_avg = num_field "makespan_avg" c in
      let* solves = int_field "solves" c in
      let* skipped = int_field "skipped" c in
      Ok { policy; makespan_avg; solves; skipped }
    in
    let parse_row r =
      let* drift_rate = num_field "drift_rate" r in
      let* cells = list_field "cells" parse_cell r in
      Ok { drift_rate; cells }
    in
    let* rows = list_field "rows" parse_row j in
    Ok { seed; rounds; classes; nodes; epsilon; rows }

(* [f] of [policy]'s cell in row [r]; NaN (a failing gate) when absent *)
let policy_value policy f r =
  match List.find_opt (fun c -> c.policy = policy) r.cells with
  | Some c -> f c
  | None -> Float.nan

let gates =
  let open Obs.Gate in
  let solves c = float_of_int c.solves and makespan c = c.makespan_avg in
  let total policy f t = sum_of (policy_value policy f) t.rows in
  [
    gate "drift_rates" Ge 1. (fun t -> length t.rows);
    gate "missing_policies" Eq 0. (fun t ->
        sum_of
          (fun r ->
            count
              (fun p -> not (List.exists (fun c -> c.policy = p) r.cells))
              [ "always"; "never"; "certified" ])
          t.rows);
    gate "min_makespan" Gt 0. (fun t ->
        min_of makespan (List.concat_map (fun r -> r.cells) t.rows));
    gate "never_rows_not_one_solve" Eq 0. (fun t ->
        count (fun r -> policy_value "never" solves r <> 1.) t.rows);
    (* the E12 claims: certified tracks always-resolve makespan within
       5% on strictly fewer adopted allocations, keeping its incumbent
       at least once *)
    gate "certified_over_always_makespan" Le 1.05 (fun t ->
        max_of
          (fun r -> policy_value "certified" makespan r /. policy_value "always" makespan r)
          t.rows);
    gate "certified_over_always_solves" Lt 1. (fun t ->
        total "certified" solves t /. total "always" solves t);
    gate "certified_skips" Ge 1. (total "certified" (fun c -> float_of_int c.skipped));
  ]

let write_bench path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (to_json t));
      Out_channel.output_char oc '\n')

let pp fmt t =
  let open Format in
  fprintf fmt "@[<v>true-makespan averages over %d rounds (lower = better)@," t.rounds;
  fprintf fmt "%-8s" "drift";
  List.iter (fun c -> fprintf fmt " %22s" c.policy) (List.hd t.rows).cells;
  fprintf fmt "@,";
  List.iter
    (fun r ->
      fprintf fmt "%-8.3f" r.drift_rate;
      List.iter
        (fun c -> fprintf fmt " %22s" (sprintf "%.3f (%ds/%dk)" c.makespan_avg c.solves c.skipped))
        r.cells;
      fprintf fmt "@,")
    t.rows;
  fprintf fmt "@]"
