module Rng = Numerics.Rng

type cls = Steady | Bursty | Multi_tenant | Heavy_tailed | Drifting | Failure

let all_classes = [ Steady; Bursty; Multi_tenant; Heavy_tailed; Drifting; Failure ]

let class_to_string = function
  | Steady -> "steady"
  | Bursty -> "bursty"
  | Multi_tenant -> "multi-tenant"
  | Heavy_tailed -> "heavy-tailed"
  | Drifting -> "drifting"
  | Failure -> "failure"

let class_names = String.concat " | " (List.map class_to_string all_classes)

let class_of_string s =
  match List.find_opt (fun c -> class_to_string c = s) all_classes with
  | Some c -> Ok c
  | None ->
      Error (Printf.sprintf "unknown scenario class %S (expected %s)" s class_names)

type phase = { costs : float array; speed : float array; gap_s : float }

type t = {
  name : string;
  cls : cls;
  seed : int;
  groups : int;
  nodes_per_group : int;
  phases : phase array;
}

let partition t =
  Gddi.Group.even_partition ~total_nodes:(t.groups * t.nodes_per_group) ~groups:t.groups

(* Every phase fills from its own split stream, taken from the root in a
   first pass (the E9 two-pass convention): phase [i]'s stream depends
   only on [(seed, i)], so shortening or extending the scenario leaves
   the shared prefix identical. Meta decisions (which groups drift,
   which group fails) come from a dedicated stream split off first. *)
let generate ?(phases = 8) ?(tasks_per_phase = 48) ?(groups = 8) ?(nodes_per_group = 4)
    cls ~seed =
  if phases <= 0 || tasks_per_phase <= 0 || groups <= 0 || nodes_per_group <= 0 then
    invalid_arg "Scenario.generate: dimensions must be positive";
  let root = Rng.create seed in
  let meta = Rng.split root in
  let phase_rngs = Array.init phases (fun _ -> Rng.split root) in
  (* fraction of the run elapsed by phase i, in [0, 1] *)
  let progress i = float_of_int i /. float_of_int (max 1 (phases - 1)) in
  let lognormal_costs rng n ~mu ~sigma =
    Array.init n (fun _ -> Rng.lognormal rng ~mu ~sigma)
  in
  let flat_speed = Array.make groups 1.0 in
  (* class-wide meta draws, fixed before any phase is filled *)
  let drift =
    match cls with
    | Drifting ->
        Array.init groups (fun _ ->
            if Rng.bool meta then Rng.uniform meta ~lo:0.3 ~hi:0.7 else 0.0)
    | _ -> [||]
  in
  let fail_group = match cls with Failure -> Rng.int meta groups | _ -> 0 in
  let make_phase i =
    let rng = phase_rngs.(i) in
    match cls with
    | Steady ->
        {
          costs = lognormal_costs rng tasks_per_phase ~mu:0.0 ~sigma:0.25;
          speed = flat_speed;
          gap_s = 0.0;
        }
    | Bursty ->
        (* alternate burst (2x tasks, back to back) and lull (quarter
           load after an idle gap) phases *)
        if i mod 2 = 0 then
          {
            costs = lognormal_costs rng (2 * tasks_per_phase) ~mu:0.0 ~sigma:0.35;
            speed = flat_speed;
            gap_s = 0.0;
          }
        else
          {
            costs =
              lognormal_costs rng (max 1 (tasks_per_phase / 4)) ~mu:0.0 ~sigma:0.35;
            speed = flat_speed;
            gap_s = Rng.uniform rng ~lo:0.5 ~hi:2.0;
          }
    | Multi_tenant ->
        (* two tenants, small (~0.4) and large (~3.0); the large share
           drifts upward across the run *)
        let frac_large = 0.15 +. (0.6 *. progress i) in
        let costs =
          Array.init tasks_per_phase (fun _ ->
              if Rng.float rng 1.0 < frac_large then
                Rng.lognormal rng ~mu:(Float.log 3.0) ~sigma:0.25
              else Rng.lognormal rng ~mu:(Float.log 0.4) ~sigma:0.25)
        in
        { costs; speed = flat_speed; gap_s = 0.0 }
    | Heavy_tailed ->
        {
          costs = lognormal_costs rng tasks_per_phase ~mu:0.0 ~sigma:1.4;
          speed = flat_speed;
          gap_s = 0.0;
        }
    | Drifting ->
        let speed =
          Array.init groups (fun g ->
              Float.max 0.25 (1.0 -. (drift.(g) *. progress i)))
        in
        {
          costs = lognormal_costs rng tasks_per_phase ~mu:0.0 ~sigma:0.25;
          speed;
          gap_s = 0.0;
        }
    | Failure ->
        (* brownout, not blackout: 5% speed keeps durations finite while
           still forcing a rebalance away from the sick group *)
        let speed =
          Array.init groups (fun g ->
              if g = fail_group && i >= phases / 2 then 0.05 else 1.0)
        in
        {
          costs = lognormal_costs rng tasks_per_phase ~mu:0.0 ~sigma:0.25;
          speed;
          gap_s = 0.0;
        }
  in
  {
    name = Printf.sprintf "%s-s%d" (class_to_string cls) seed;
    cls;
    seed;
    groups;
    nodes_per_group;
    phases = Array.init phases make_phase;
  }
