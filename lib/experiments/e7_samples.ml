(* E7 — sensitivity to the number of benchmark points.

   Section III-C: "the number of benchmarking runs ... should be at
   least greater than four for each component"; "four points were
   enough to build well-fitted scaling curves". We fit a noisy class
   with D ∈ {2,3,4,6,10} sampled node counts and measure fit quality
   and the end-to-end allocation loss versus an oracle that knows the
   true curves. *)

let name = "E7_samples"
let describes = "Table: fit quality and allocation loss vs number of benchmark points"

let truth_a = Scaling_law.make ~a:800. ~b:1e-6 ~c:0.9 ~d:2.
let truth_b = Scaling_law.make ~a:250. ~b:1e-6 ~c:0.95 ~d:1.

let oracle_makespan ~n_total =
  (* exhaustive split under the true laws *)
  let best = ref infinity in
  for n1 = 1 to n_total - 1 do
    let t =
      Float.max
        (Scaling_law.eval_int truth_a n1)
        (Scaling_law.eval_int truth_b (n_total - n1))
    in
    if t < !best then best := t
  done;
  !best

let run ?(quick = false) fmt =
  let n_total = 256 in
  let noise = 0.03 in
  let point_counts = if quick then [ 2; 4 ] else [ 2; 3; 4; 6; 10 ] in
  let trials = if quick then 3 else 10 in
  let oracle = oracle_makespan ~n_total in
  let rows =
    List.map
      (fun points ->
        let losses = ref [] and r2s = ref [] in
        for trial = 1 to trials do
          let rng = Workloads.rng ((1000 * points) + trial) in
          let noisy law which =
            Hslb.Classes.make ~name:which ~count:1 (fun ~nodes ->
                let base = Scaling_law.eval_int law nodes in
                base *. Numerics.Rng.lognormal rng ~mu:(-0.5 *. noise *. noise) ~sigma:noise)
          in
          let sizes = Hslb.Fitting.recommended_sizes ~n_min:1 ~n_max:n_total ~points in
          let fits =
            Hslb.Classes.gather_and_fit ~sizes ~reps:2
              [ noisy truth_a "A"; noisy truth_b "B" ]
          in
          List.iter
            (fun (fc : Hslb.Classes.fitted) -> r2s := fc.Hslb.Classes.fit.Hslb.Fitting.r2 :: !r2s)
            fits;
          let alloc =
            match Hslb.Alloc_model.solve ~n_total (List.map Hslb.Alloc_model.spec_of fits) with
            | Ok a -> a
            | Error st -> failwith ("E7: allocation " ^ Minlp.Solution.status_to_string st)
          in
          (* evaluate the chosen allocation under the TRUE curves *)
          let n1 = alloc.Hslb.Alloc_model.nodes_per_task.(0)
          and n2 = alloc.Hslb.Alloc_model.nodes_per_task.(1) in
          let realized =
            Float.max (Scaling_law.eval_int truth_a n1) (Scaling_law.eval_int truth_b n2)
          in
          losses := (100. *. (realized -. oracle) /. oracle) :: !losses
        done;
        let arr l = Array.of_list l in
        [
          string_of_int points;
          Printf.sprintf "%.4f" (Numerics.Stats.mean (arr !r2s));
          Printf.sprintf "%.4f" (Numerics.Stats.quantile 0.1 (arr !r2s));
          Table.pct (Numerics.Stats.mean (arr !losses));
          Table.pct (Numerics.Stats.quantile 0.9 (arr !losses));
        ])
      point_counts
  in
  Table.print fmt
    ~title:
      (Printf.sprintf
         "E7: benchmark-point sensitivity (noise %.0f%%, %d trials, oracle makespan %.2f s)"
         (100. *. noise) trials oracle)
    ~header:[ "points"; "mean R2"; "p10 R2"; "mean loss"; "p90 loss" ]
    rows;
  Format.fprintf fmt
    "expected shape: loss collapses once points >= 4, matching the paper's recommendation@."
