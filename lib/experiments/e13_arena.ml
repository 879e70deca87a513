(* E13 — scheduler arena: regret vs dynamic across a scenario zoo
   (beyond the paper's tables).

   The paper races static HSLB against dynamic dispatch on FMO-shaped
   workloads only. E13 goes wide: a seeded generator produces six
   workload classes (steady, bursty, multi-tenant, heavy-tailed,
   drifting group speeds, mid-run group failure) and five balancer
   families race on each — the repo's Dynamic/Static/Stealing plus the
   hybrid periodic-rebalance and diffusive neighbor-exchange schemes.
   The output is a regret-vs-dynamic matrix: negative entries mean the
   balancer beat the stock dynamic scheduler, and the per-class winner
   is the row's least regret. *)

let name = "E13_arena"
let describes = "Scheduler arena: regret matrix over a generated scenario zoo"

let run ?(quick = false) fmt =
  let phases = if quick then 4 else 8 in
  let tasks_per_phase = if quick then 24 else 48 in
  let race =
    Arena.Race.run ~phases ~tasks_per_phase ~seed:42 Arena.Scenario.all_classes
  in
  let header = "class" :: "winner" :: race.Arena.Race.schedulers in
  let rows =
    List.map
      (fun (r : Arena.Race.row) ->
        Arena.Scenario.class_to_string r.Arena.Race.cls
        :: r.Arena.Race.winner
        :: List.map
             (fun (c : Arena.Race.cell) -> Table.pct (100. *. c.Arena.Race.regret_vs_dynamic))
             r.Arena.Race.cells)
      race.Arena.Race.rows
  in
  Table.print fmt
    ~title:
      (Printf.sprintf "E13: regret vs dynamic, %d phases x %d tasks (seed 42)" phases
         tasks_per_phase)
    ~header rows;
  Format.fprintf fmt
    "expected shape: static planning wins on stationary classes; hybrid rebalance recovers \
     the static win once group speeds drift; only stealing tracks dynamic through a group \
     brownout@."
