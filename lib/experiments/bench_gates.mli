(** The schema → gates table behind [hslb obs --bench]: one
    {!Obs.Gate.checker} per committed BENCH artifact schema, each
    pairing the artifact's decoder with its declared gate list.

    Arena, resolve and place declare theirs next to their own decoders
    ({!Arena.Race.gates}, {!Resolve_frontier.gates},
    {!Place_bench.gates}); the kernels, runtime and fleet artifacts
    are decoded and gated here. *)

(** ["hslb-bench-kernels-v1"] — BENCH_kernels.json ([bench --kernels]). *)
val kernels_schema : string

(** ["hslb-bench-runtime-v1"] — BENCH_runtime.json
    ([bench --runtime]). *)
val runtime_schema : string

val checkers : Obs.Gate.checker list
