(* Objective-function study on the allocation MINLP.

   Section III-D of the paper considers three objectives and reports
   min-max ≈ max-min ≪ min-sum. This example makes the mechanism
   visible on a two-class workload: min-sum starves the cheap class to
   shave node-seconds, which wrecks the makespan. *)

let fitted_of_law ~name ~count law =
  let cls = Hslb.Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes) in
  List.hd
    (Hslb.Classes.gather_and_fit ~sizes:[ 1; 2; 4; 8; 16; 64; 256 ] ~reps:1 [ cls ])

let () =
  let heavy = Scaling_law.make ~a:900. ~b:1e-6 ~c:0.92 ~d:2. in
  let light = Scaling_law.make ~a:150. ~b:1e-6 ~c:0.95 ~d:0.5 in
  let specs =
    [
      Hslb.Alloc_model.spec_of (fitted_of_law ~name:"heavy" ~count:2 heavy);
      Hslb.Alloc_model.spec_of (fitted_of_law ~name:"light" ~count:6 light);
    ]
  in
  let n_total = 256 in
  Format.printf "two classes (2x heavy, 6x light) on %d nodes:@.@." n_total;
  Format.printf "%-10s  %-18s  %-18s  %10s@." "objective" "heavy nodes/task" "light nodes/task"
    "makespan";
  List.iter
    (fun objective ->
      let alloc =
        match Hslb.Alloc_model.solve ~objective ~n_total specs with
        | Ok a -> a
        | Error st ->
          failwith ("objective_study: " ^ Minlp.Solution.status_to_string st)
      in
      Format.printf "%-10s  %-18d  %-18d  %9.2fs@."
        (Hslb.Objective.to_string objective)
        alloc.Hslb.Alloc_model.nodes_per_task.(0)
        alloc.Hslb.Alloc_model.nodes_per_task.(1)
        alloc.Hslb.Alloc_model.predicted_makespan)
    Hslb.Objective.all;
  Format.printf
    "@.min-sum equalizes marginal node-seconds across all tasks, over-serving the six@.\
     light tasks and starving the heavy ones that set the makespan — exactly why the@.\
     paper rejects it (section III-D).@."
