(* The schema -> gates table behind `hslb obs --bench`, plus the
   decoders and gates of the three artifacts whose writers have no
   decoder of their own (BENCH_kernels.json and BENCH_portfolio.json
   from bench/main.exe, BENCH_fleet.json from `hslb loadgen
   --bench-out`). *)

open Obs.Json

let ( let* ) = Result.bind

(* ---------- BENCH_kernels.json ---------- *)

let kernels_schema = "hslb-bench-kernels-v1"

type kernel = {
  reps : float;
  baseline_wall_s : float;
  candidate_wall_s : float;
  speedup : float;
  identical : bool;
}

type kernels = { cores : int; kernels : kernel list }

let decode_kernels j =
  let kernel k =
    let* (_ : string) = str_field "name" k in
    let* (_ : string) = str_field "baseline" k in
    let* (_ : string) = str_field "candidate" k in
    let* reps = num_field "reps" k in
    let* baseline_wall_s = num_field "baseline_wall_s" k in
    let* candidate_wall_s = num_field "candidate_wall_s" k in
    let* speedup = num_field "speedup" k in
    let* identical = bool_field "identical" k in
    Ok { reps; baseline_wall_s; candidate_wall_s; speedup; identical }
  in
  let* cores = int_field "cores" j in
  let* kernels = list_field "kernels" kernel j in
  Ok { cores; kernels }

(* the gate of the kernel-unboxing work: the artifact's internal
   consistency and its bit-identity claims, not the machine-dependent
   speedup magnitudes *)
let kernels_gates : kernels Obs.Gate.t list =
  let open Obs.Gate in
  [
    gate "cores" Ge 1. (fun t -> float_of_int t.cores);
    gate "kernels" Ge 1. (fun t -> length t.kernels);
    gate "min_reps" Ge 1. (fun t -> min_of (fun (k : kernel) -> k.reps) t.kernels);
    gate "min_wall_s" Gt 0. (fun t ->
        min_of
          (fun (k : kernel) -> Float.min k.baseline_wall_s k.candidate_wall_s)
          t.kernels);
    gate "speedup_rel_error" Le 0.01 (fun t ->
        max_of
          (fun (k : kernel) ->
            Float.abs (k.speedup -. (k.baseline_wall_s /. k.candidate_wall_s))
            /. Float.abs k.speedup)
          t.kernels);
    gate "not_identical" Eq 0. (fun t ->
        count (fun (k : kernel) -> not k.identical) t.kernels);
  ]

(* ---------- BENCH_portfolio.json ---------- *)

let portfolio_schema = "hslb-bench-portfolio-v2"

type instance = {
  singles : int;
  race_wall_s : float;
  best_single_wall_s : float;
  objective_match : bool;
}

type registry = {
  speedup : float;
  core_starved : bool;
  cores : int;
  requested_jobs : int;
  effective_jobs : int;
}

type portfolio = { instances : instance list; registry : registry }

let decode_portfolio j =
  let single s =
    let* (_ : string) = str_field "solver" s in
    num_field "wall_s" s
  in
  let instance i =
    let* (_ : string) = str_field "name" i in
    let* singles = list_field "singles" single i in
    let* race_wall_s = obj_field "portfolio" (num_field "wall_s") i in
    let* best_single_wall_s = num_field "best_single_wall_s" i in
    let* objective_match = bool_field "objective_match" i in
    Ok { singles = List.length singles; race_wall_s; best_single_wall_s; objective_match }
  in
  let registry r =
    let* speedup = num_field "speedup" r in
    let* core_starved = bool_field "core_starved" r in
    let* cores = int_field "cores" r in
    let* requested_jobs = int_field "requested_jobs" r in
    let* effective_jobs = int_field "effective_jobs" r in
    Ok { speedup; core_starved; cores; requested_jobs; effective_jobs }
  in
  let* instances = list_field "instances" instance j in
  let* registry = obj_field "registry_quick" registry j in
  Ok { instances; registry }

(* the gates of the portfolio-tax and core-starvation fixes: the race
   costs at most 20% over the best single solver on every instance
   (plus 50 ms, so micro-instances are not gated on timer noise), and
   the clamped pool never runs slower than sequential *)
let portfolio_gates : portfolio Obs.Gate.t list =
  let open Obs.Gate in
  [
    gate "instances" Ge 1. (fun t -> length t.instances);
    gate "min_singles" Ge 1. (fun t -> min_of (fun i -> float_of_int i.singles) t.instances);
    gate "objective_mismatches" Eq 0. (fun t ->
        count (fun i -> not i.objective_match) t.instances);
    gate "race_wall_over_allowance_s" Le 0. (fun t ->
        max_of
          (fun i -> i.race_wall_s -. ((1.2 *. i.best_single_wall_s) +. 0.05))
          t.instances);
    gate "registry_speedup" Ge 0.95 (fun t -> t.registry.speedup);
    gate "registry_core_starved" Eq 0. (fun t -> if t.registry.core_starved then 1. else 0.);
    gate "registry_jobs_over_clamp" Le 0. (fun t ->
        let r = t.registry in
        float_of_int (r.effective_jobs - Stdlib.min r.requested_jobs r.cores));
  ]

(* ---------- BENCH_fleet.json ---------- *)

type run = { requests : float; answered : float; throughput_rps : float }
type fleet = { backends : float; single : run; fleet : run }

let decode_fleet j =
  let run r =
    let* requests = num_field "requests" r in
    let* answered = num_field "answered" r in
    let* (_ : float) = num_field "wall_s" r in
    let* throughput_rps = num_field "throughput_rps" r in
    let* () =
      match member "outcomes" r with
      | Some (Obj fields) when List.for_all (fun (_, v) -> num v <> None) fields -> Ok ()
      | Some _ | None -> Error "field \"outcomes\": expected an object of numbers"
    in
    let* () =
      obj_field "latency_ms"
        (fun l ->
          let* (_ : float) = num_field "count" l in
          (* an empty histogram's quantiles serialize as null *)
          match
            List.find_opt
              (fun q -> match member q l with Some (Num _ | Null) -> false | _ -> true)
              [ "p50"; "p90"; "p99" ]
          with
          | Some q -> Error (Printf.sprintf "field %S: expected a number or null" q)
          | None -> Ok ())
        r
    in
    Ok { requests; answered; throughput_rps }
  in
  let* backends = num_field "backends" j in
  let* () = obj_field "trace" (fun _ -> Ok ()) j in
  let* single = obj_field "single" run j in
  let* fleet = obj_field "fleet" run j in
  let* (_ : float) = num_field "speedup" j in
  Ok { backends; single; fleet }

let fleet_gates : fleet Obs.Gate.t list =
  let open Obs.Gate in
  [
    gate "backends" Ge 2. (fun t -> t.backends);
    gate "answers_over_requests" Le 0. (fun t ->
        max_of (fun r -> r.answered -. r.requests) [ t.single; t.fleet ]);
    (* the locality claim, recomputed rather than read from the stored
       "speedup": N shards keep their LRUs resident where one thrashes *)
    gate "speedup" Ge 1.5 (fun t -> t.fleet.throughput_rps /. t.single.throughput_rps);
  ]

(* ---------- the table ---------- *)

let checkers =
  Obs.Gate.
    [
      checker ~schema:Arena.Race.schema_version ~decode:Arena.Race.of_json
        Arena.Race.gates;
      checker ~schema:Resolve_frontier.schema_version ~decode:Resolve_frontier.of_json
        Resolve_frontier.gates;
      checker ~schema:Place_bench.schema_version ~decode:Place_bench.of_json
        Place_bench.gates;
      checker ~schema:kernels_schema ~decode:decode_kernels kernels_gates;
      checker ~schema:portfolio_schema ~decode:decode_portfolio portfolio_gates;
      checker ~schema:Serve.Loadgen.schema_version ~decode:decode_fleet fleet_gates;
    ]
