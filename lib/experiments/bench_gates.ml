(* The schema -> gates table behind `hslb obs --bench`, plus the
   decoders and gates of the three artifacts whose writers have no
   decoder of their own (BENCH_kernels.json and BENCH_runtime.json
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

(* ---------- BENCH_runtime.json ---------- *)

let runtime_schema = "hslb-bench-runtime-v1"

type registry = {
  speedup : float;
  core_starved : bool;
  cores : int;
  requested_jobs : int;
  effective_jobs : int;
}

let decode_runtime j =
  let registry r =
    let* speedup = num_field "speedup" r in
    let* core_starved = bool_field "core_starved" r in
    let* cores = int_field "cores" r in
    let* requested_jobs = int_field "requested_jobs" r in
    let* effective_jobs = int_field "effective_jobs" r in
    Ok { speedup; core_starved; cores; requested_jobs; effective_jobs }
  in
  let* () = obj_field "cache" (fun _ -> Ok ()) j in
  obj_field "registry_quick" registry j

(* the gates of the core-starvation fix: the clamped pool never runs
   slower than sequential and never oversubscribes the cores *)
let runtime_gates : registry Obs.Gate.t list =
  let open Obs.Gate in
  [
    gate "registry_speedup" Ge 0.95 (fun r -> r.speedup);
    gate "registry_core_starved" Eq 0. (fun r -> if r.core_starved then 1. else 0.);
    gate "registry_jobs_over_clamp" Le 0. (fun r ->
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
      checker ~schema:runtime_schema ~decode:decode_runtime runtime_gates;
      checker ~schema:Serve.Loadgen.schema_version ~decode:decode_fleet fleet_gates;
    ]
