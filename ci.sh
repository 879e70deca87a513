#!/bin/sh
# CI entry point: format check (when ocamlformat is available), then
# build, run the full test suite twice — once fully sequential and
# once with 4-way parallelism in the runtime layer, so the pool and
# cache code is exercised under both widths — then the benchmark's own
# checks (`perfbench/main.exe --self-test`: it builds against the
# library API and re-runs its per-op correctness checks, so an API or
# answer break fails here, not in a benchmark run), and
# finally the seeded fault-injection audit sweep, which fails the
# build on any certificate rejection or soundness violation (see
# docs/AUDIT.md). `hslb minlp --solver exact` must then exit non-zero
# with its one refusal message, and `hslb minlp --audit` must solve the
# example model under each MINLP solver (oa, bnb, oa-multi) and print
# its verified gap-closed certificate; oa and oa-multi must agree on
# the objective (Bnb's is not compared: its local NLP relaxations can
# stop above the optimum, see lib/minlp/bnb.mli). Each solve also
# writes its run report (`--report`), whose `oa_cuts` must equal the
# cut count on the printed `stats:` line, and be positive for oa and
# oa-multi, which cut on this model.
#
# After the test suites, the serving layer gets an end-to-end smoke:
# `hslb serve` is driven with a ~50-request scripted trace (mixed
# valid, malformed and over-deadline requests against a deliberately
# tiny queue) to pin the overload and expiry paths and the exact
# default's audited answers, and then once more
# through a fifo with SIGTERM to pin the graceful-drain path. Both runs
# assert exactly-once on the live process: the terminal drained event
# must report as many requests served as it accepted. A max-min and a
# min-sum request for a billion nodes must then both answer ok within
# 10 s, each with its exact-method audit verdict: no objective's solve
# or audit grows with the node budget. `hslb solve --audit` on the
# 6-class example must print the exact default's verified threshold
# witness, and max-min's and min-sum's exact-method lines; `hslb solve
# --report` must write the value of the objective it solved. The serve
# smoke also pins the wire without in-flight dedupe: no reply or event
# line names it, and `serve --no-audit` and `serve --solver` are usage
# errors. A `--report` path under a missing directory must still let
# the drained event out, then exit 1 with its message; a `--metrics-out`
# path there makes serve exit 2 with its message before it serves, and
# `hslb solve --report` there exits 1 with its message.
#
# `hslb fit` on observations of exactly 200/n + 0.5 must print that law
# with R2 = 1.000000, the same bytes on two runs, and two times of
# 1e-200 s the flat law 1e-200: the fit is variable projection in units
# of the largest time and draws no random numbers, so `--seed` and
# `--starts` are usage errors (exit 124). Malformed observation files (a NaN, an
# infinite or a zero time, nodes below 1, times 400 orders of magnitude
# apart, a non-numeric field, a line of three fields, an empty file,
# one node count) and a model file
# with a non-numeric coefficient make `hslb fit` and `hslb solve` exit
# 2 with `hslb fit: ` or `hslb solve: ` and the exact message.
#
# The observability stage then produces both exporter artifacts for
# real — a Prometheus exposition from a serve run under --metrics-out
# and a Chrome trace from a bench run under --trace — and validates
# each with `hslb_cli obs` (see docs/OBSERVABILITY.md). `obs --bench`
# on a missing file must exit 1 with its message.
#
# Every BENCH artifact stage produces its artifact and checks it with
# one `hslb_cli obs --bench FILE`, which prints one line per declared
# gate and fails on any (the gate lists live next to each artifact's
# decoder; see lib/experiments/bench_gates.ml):
#
# - fleet: `hslb route` over two spawned backends on unix sockets
#   replays a 200-request `hslb loadgen` trace (asserting overload,
#   expiry, shard-local cache hits, replies that all parse and pass
#   their audits, and a clean fleet drain), then the
#   1-vs-2-backend locality benchmark writes BENCH_fleet.json (gate:
#   speedup >= 1.5x; see docs/SERVE.md). The trace's solves name oa:
#   the bench measures LRU locality under expensive solves;
# - arena: all five scheduler families raced over a quick four-class
#   zoo write BENCH_arena.json (gates include hybrid beating the stale
#   static map on the drifting class; see docs/ARENA.md);
# - resolve: a live server walks a drift fixture — a v1 solve, a
#   kept v2 `resolve` (answered "unchanged": the incumbent is within ε
#   of the exact optimum), a drifted v2 `resolve` (genuine re-solve), a
#   v3 probe (exact unsupported-version diagnostic), a one-sample
#   `resolve` (the law is rescaled onto its sample: "unchanged" at
#   makespan 26.016) and an `observe` entry for a class the model lacks
#   (exact diagnostic) — with the counters asserted on the terminal
#   drained event. An integer optimum that a
#   relaxation bound would call 6.7% off must also answer "unchanged",
#   `hslb solve -n 4000000000000000000` must exit 2 with the exact
#   solver's refusal, and an overflowing place torus must get its
#   diagnostic with the server answering the ping behind it. Then
#   `bench --resolve` writes BENCH_resolve.json (see docs/SERVE.md and
#   docs/ALGORITHM.md);
# - kernels and runtime: BENCH_kernels.json (every optimized kernel
#   reproduces its baseline bit-for-bit: the expression evaluator and
#   gradient, the bounded SPG's fused gradient and the node
#   relaxation's shared context; each baseline is built in
#   bench/main.ml from public primitives, and the LP kernel has no
#   twin to race: test_lp checks it against a vertex-enumeration
#   oracle) and BENCH_runtime.json (clamped pool never slower than
#   sequential nor wider than the cores; see docs/ENGINE.md and
#   docs/RUNTIME.md);
# - place: BENCH_place.json (comm-aware strictly cheaper than
#   comm-blind within the 5% makespan leash, exact rows audited
#   optimal), then a v2 placed solve over the wire.
#
# lib/obs/, lib/runtime/, lib/audit/ and lib/serve/ compile with
# -warn-error +a (see their dune files), so any new compiler warning
# there fails this build.
set -eu

cd "$(dirname "$0")"

if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then
  echo "== dune fmt (check) =="
  dune build @fmt
else
  echo "== skipping format check (ocamlformat or .ocamlformat missing) =="
fi

echo "== dune build =="
dune build

echo "== dune runtest (HSLB_JOBS=1) =="
HSLB_JOBS=1 dune runtest --force

echo "== dune runtest (HSLB_JOBS=4) =="
HSLB_JOBS=4 dune runtest --force

echo "== perfbench self-test =="
dune exec perfbench/main.exe -- --self-test

echo "== audit stress sweep (seed 42, 200 trials) =="
dune exec bin/hslb_cli.exe -- audit --stress --seed 42 --trials 200 --quiet

SERVE_BIN=./_build/default/bin/hslb_cli.exe
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== minlp: the exact solver is refused on a model file =="
# exact needs the separable allocation structure; a general model
# must name a MINLP solver, and the refusal is one message
if "$SERVE_BIN" minlp --solver exact examples/models/allocation.mod \
  > "$SMOKE_DIR/minlp_exact.out" 2>&1; then
  echo "minlp: --solver exact exited 0" >&2
  exit 1
fi
grep -q 'solver exact solves separable min-max allocations only' \
  "$SMOKE_DIR/minlp_exact.out" || {
  echo "minlp: --solver exact did not print the refusal" >&2
  exit 1
}

echo "== minlp --audit: every MINLP solver on the example model =="
for solver in oa bnb oa-multi; do
  "$SERVE_BIN" minlp --solver "$solver" --audit \
    --report "$SMOKE_DIR/minlp_$solver.json" examples/models/allocation.mod \
    > "$SMOKE_DIR/minlp_$solver.out" || {
    echo "minlp --solver $solver --audit: exited non-zero" >&2
    exit 1
  }
  grep -qx "audit: certificate verified ($solver, gap-closed)" \
    "$SMOKE_DIR/minlp_$solver.out" || {
    echo "minlp --solver $solver --audit: no verified gap-closed line" >&2
    exit 1
  }
  # the run report counts the cuts the stats line counts; OA's solvers
  # cut on this model
  stats_cuts=$(sed -n 's/^stats: .* \([0-9][0-9]*\) cuts$/\1/p' "$SMOKE_DIR/minlp_$solver.out")
  report_cuts=$(grep -o '"oa_cuts":[0-9]*' "$SMOKE_DIR/minlp_$solver.json" | cut -d: -f2)
  [ -n "$stats_cuts" ] && [ "$stats_cuts" = "$report_cuts" ] || {
    echo "minlp --solver $solver: report oa_cuts ${report_cuts:-?}, stats line ${stats_cuts:-?} cuts" >&2
    exit 1
  }
  case "$solver" in
  oa | oa-multi)
    [ "$report_cuts" -gt 0 ] || {
      echo "minlp --solver $solver: the report counts no cuts" >&2
      exit 1
    }
    ;;
  esac
done
oa_obj=$(grep '^objective:' "$SMOKE_DIR/minlp_oa.out" | cut -d' ' -f2)
multi_obj=$(grep '^objective:' "$SMOKE_DIR/minlp_oa-multi.out" | cut -d' ' -f2)
[ -n "$oa_obj" ] && [ "$oa_obj" = "$multi_obj" ] || {
  echo "minlp: oa objective ${oa_obj:-?} differs from oa-multi's ${multi_obj:-?}" >&2
  exit 1
}

echo "== solve --audit: the exact default's threshold witness =="
# the auditor re-derives the witness from the model's specs; the line
# names the sides it checked
"$SERVE_BIN" solve examples/models/e6_classes.csv -n 256 --audit \
  > "$SMOKE_DIR/solve_audit.out" || {
  echo "solve --audit: exited non-zero" >&2
  exit 1
}
grep -qx 'audit: certificate verified (exact, threshold (6, 13, 19, 24, 27, 30))' \
  "$SMOKE_DIR/solve_audit.out" || {
  echo "solve --audit: no verified threshold line" >&2
  exit 1
}
# max-min and min-sum pass on their witness and objective; their
# optimality rests on the method
for pair in max-min:hslb.bisection min-sum:hslb.greedy; do
  objective=${pair%%:*}
  producer=${pair#*:}
  "$SERVE_BIN" solve examples/models/e6_classes.csv -n 256 --objective "$objective" \
    --audit > "$SMOKE_DIR/solve_audit_$objective.out" || {
    echo "solve --audit --objective $objective: exited non-zero" >&2
    exit 1
  }
  grep -qx "audit: exact-method certificate ($producer): witness and objective verified, optimality not re-checked" \
    "$SMOKE_DIR/solve_audit_$objective.out" || {
    echo "solve --audit --objective $objective: no exact-method line" >&2
    exit 1
  }
done
# the report's top-level objective is the one solved: on this model
# the makespan is 18, the fastest time 10, the count-weighted sum 74
printf '%s\n' 'A,2,20,0,1,0' 'B,3,18,0,1,0' > "$SMOKE_DIR/ab.csv"
for pair in min-max:18 max-min:10 min-sum:74; do
  objective=${pair%%:*}
  value=${pair#*:}
  "$SERVE_BIN" solve "$SMOKE_DIR/ab.csv" -n 8 --objective "$objective" \
    --report "$SMOKE_DIR/report_$objective.json" > /dev/null || {
    echo "solve --report --objective $objective: exited non-zero" >&2
    exit 1
  }
  grep -q "^{\"solver\":\"exact\",\"status\":\"optimal\",\"objective\":$value," \
    "$SMOKE_DIR/report_$objective.json" || {
    echo "solve --report --objective $objective: top-level objective is not $value" >&2
    exit 1
  }
done

echo "== serve smoke: scripted trace (overload + expiry + drain) =="

# exactly once: the drained event of serve output FILE must count every
# accepted request as served
assert_exactly_once() {
  drained=$(grep '"event":"drained"' "$1")
  accepted=$(printf '%s' "$drained" | grep -o '"accepted":[0-9]*' | head -1 | cut -d: -f2)
  served=$(printf '%s' "$drained" | grep -o '"served":[0-9]*' | head -1 | cut -d: -f2)
  if [ -z "$accepted" ] || [ "$accepted" != "$served" ]; then
    echo "$2: accepted ${accepted:-?} requests but served ${served:-?}" >&2
    exit 1
  fi
}

# every reply of the loadgen run in result FILE parsed and every
# audited reply passed its audit: the result's "audits" tally must
# read "rejected":0, and its "malformed" count 0
assert_replies_sound() {
  audits=$(grep -o '"audits":{[^}]*}' "$1" | head -1)
  printf '%s' "$audits" | grep -Eq '"rejected":0[,}]' || {
    echo "$2: a reply's audit was rejected (${audits:-no audits tally})" >&2
    exit 1
  }
  grep -Eq '"malformed":0[,}]' "$1" || {
    echo "$2: reply lines that do not parse" >&2
    exit 1
  }
}

# a single worker and a tiny queue against a 50-request burst: the
# trace must provoke every admission outcome, and every request line
# must be answered exactly once before the final drained event
"$SERVE_BIN" serve --jobs 1 --queue-limit 8 \
  < test/fixtures/serve_trace.ndjson > "$SMOKE_DIR/trace.out"

requests=$(wc -l < test/fixtures/serve_trace.ndjson)
answers=$(grep -c '"outcome":' "$SMOKE_DIR/trace.out")
if [ "$answers" -ne "$requests" ]; then
  echo "serve smoke: expected $requests answers, got $answers" >&2
  exit 1
fi
for outcome in ok error overloaded expired; do
  if ! grep -q "\"outcome\":\"$outcome\"" "$SMOKE_DIR/trace.out"; then
    echo "serve smoke: no \"$outcome\" outcome in trace output" >&2
    exit 1
  fi
done
# the fixture's solves name no solver: the default, exact, answers
# them and the auditor re-checks its threshold witness
grep -q '"audit":"verified (exact)"' "$SMOKE_DIR/trace.out" || {
  echo "serve smoke: no \"verified (exact)\" audit in trace output" >&2
  exit 1
}
grep -q '"event":"drained"' "$SMOKE_DIR/trace.out" || {
  echo "serve smoke: missing drained event" >&2
  exit 1
}
assert_exactly_once "$SMOKE_DIR/trace.out" "serve smoke"
# every admitted solve takes its own queue slot: no reply telemetry
# and no stats counter names dedupe, and its two knobs are gone
if grep -q '"dedup' "$SMOKE_DIR/trace.out"; then
  echo "serve smoke: an output line names dedupe" >&2
  exit 1
fi
for flag in --no-audit '--solver oa'; do
  status=0
  # shellcheck disable=SC2086
  "$SERVE_BIN" serve $flag < /dev/null > /dev/null 2>&1 || status=$?
  [ "$status" -eq 124 ] || {
    echo "serve smoke: serve $flag exited $status, not 124" >&2
    exit 1
  }
done

echo "== serve smoke: SIGTERM graceful drain =="
mkfifo "$SMOKE_DIR/serve.fifo"
"$SERVE_BIN" serve --jobs 2 \
  < "$SMOKE_DIR/serve.fifo" > "$SMOKE_DIR/sigterm.out" &
SERVE_PID=$!
# hold the fifo open so EOF cannot end the server before the signal
exec 9> "$SMOKE_DIR/serve.fifo"
printf '%s\n' \
  '{"id":901,"model_csv":"alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2","nodes":32}' \
  '{"id":902,"model_csv":"alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2","nodes":48}' >&9
sleep 1
kill -TERM "$SERVE_PID"
exec 9>&-
if ! wait "$SERVE_PID"; then
  echo "serve smoke: server exited non-zero after SIGTERM" >&2
  exit 1
fi
# in-flight work must be answered, then the final report emitted
grep -q '"id":901' "$SMOKE_DIR/sigterm.out" || {
  echo "serve smoke: request 901 lost during drain" >&2
  exit 1
}
grep -q '"id":902' "$SMOKE_DIR/sigterm.out" || {
  echo "serve smoke: request 902 lost during drain" >&2
  exit 1
}
grep -q '"event":"drained"' "$SMOKE_DIR/sigterm.out" || {
  echo "serve smoke: missing drained event after SIGTERM" >&2
  exit 1
}
assert_exactly_once "$SMOKE_DIR/sigterm.out" "serve smoke (SIGTERM)"

echo "== serve smoke: an unwritable --report still drains =="
# the report goes under a directory that does not exist: every request
# is answered and the drained event goes out, then serve exits 1 with
# the path it could not write
status=0
printf '%s\n' '{"id":1,"model_csv":"alpha,4,100,0.001,1,0.5","nodes":16}' \
  | "$SERVE_BIN" serve --jobs 1 --report "$SMOKE_DIR/no-such-dir/report.json" \
  > "$SMOKE_DIR/report_fail.out" 2> "$SMOKE_DIR/report_fail.err" || status=$?
[ "$status" -eq 1 ] || {
  echo "serve smoke: unwritable --report exited $status, not 1" >&2
  exit 1
}
grep -q '"event":"drained"' "$SMOKE_DIR/report_fail.out" || {
  echo "serve smoke: unwritable --report lost the drained event" >&2
  exit 1
}
assert_exactly_once "$SMOKE_DIR/report_fail.out" "serve smoke (unwritable --report)"
grep -qF "hslb serve: --report: cannot write $SMOKE_DIR/no-such-dir/report.json: No such file or directory" \
  "$SMOKE_DIR/report_fail.err" || {
  echo "serve smoke: unwritable --report printed no diagnostic:" >&2
  cat "$SMOKE_DIR/report_fail.err" >&2
  exit 1
}

echo "== serve smoke: an unwritable --metrics-out is refused before serving =="
# the exposition goes under a directory that does not exist: serve
# writes one before it serves, so it exits 2 with the path it could not
# write and answers nothing
status=0
printf '%s\n' '{"id":1,"op":"ping"}' \
  | "$SERVE_BIN" serve --jobs 1 --metrics-out "$SMOKE_DIR/no-such-dir/m.prom" \
  > "$SMOKE_DIR/metrics_fail.out" 2> "$SMOKE_DIR/metrics_fail.err" || status=$?
[ "$status" -eq 2 ] || {
  echo "serve smoke: unwritable --metrics-out exited $status, not 2" >&2
  exit 1
}
[ ! -s "$SMOKE_DIR/metrics_fail.out" ] || {
  echo "serve smoke: unwritable --metrics-out still served:" >&2
  cat "$SMOKE_DIR/metrics_fail.out" >&2
  exit 1
}
grep -qF "hslb serve: --metrics-out: cannot write $SMOKE_DIR/no-such-dir/m.prom: No such file or directory" \
  "$SMOKE_DIR/metrics_fail.err" || {
  echo "serve smoke: unwritable --metrics-out printed no diagnostic:" >&2
  cat "$SMOKE_DIR/metrics_fail.err" >&2
  exit 1
}

echo "== solve: an unwritable --report exits 1 with its message =="
status=0
"$SERVE_BIN" solve examples/models/e6_classes.csv --nodes 64 \
  --report "$SMOKE_DIR/no-such-dir/solve.json" \
  > /dev/null 2> "$SMOKE_DIR/solve_report_fail.err" || status=$?
[ "$status" -eq 1 ] || {
  echo "solve: unwritable --report exited $status, not 1" >&2
  exit 1
}
grep -qF "hslb solve: --report: cannot write $SMOKE_DIR/no-such-dir/solve.json: No such file or directory" \
  "$SMOKE_DIR/solve_report_fail.err" || {
  echo "solve: unwritable --report printed no diagnostic:" >&2
  cat "$SMOKE_DIR/solve_report_fail.err" >&2
  exit 1
}

echo "== serve smoke: billion-node max-min and min-sum =="
# a b = 0 model: both curves fall all the way to the budget, so the
# decreasing branches and the greedy run out to a billion nodes
printf '%s\n' \
  '{"id":1,"model_csv":"alpha,4,100,0,1,0.5\nbeta,2,50,0,1,0.2","nodes":1000000000,"objective":"max-min"}' \
  '{"id":2,"model_csv":"alpha,4,100,0,1,0.5\nbeta,2,50,0,1,0.2","nodes":1000000000,"objective":"min-sum"}' \
  | timeout 10 "$SERVE_BIN" serve --jobs 1 > "$SMOKE_DIR/billion.out" || {
  echo "serve smoke: billion-node max-min/min-sum not answered within 10 s" >&2
  exit 1
}
for id in 1 2; do
  grep "\"id\":$id," "$SMOKE_DIR/billion.out" | grep -q '"outcome":"ok"' || {
    echo "serve smoke: billion-node request $id did not answer ok" >&2
    exit 1
  }
done
# both answers are audited from their specs (admissible sizes, budget,
# claimed objective) without walking a billion sizes
grep '"id":1,' "$SMOKE_DIR/billion.out" \
  | grep -q '"audit":"exact-method (hslb.bisection)"' || {
  echo "serve smoke: billion-node max-min not audited \"exact-method (hslb.bisection)\"" >&2
  exit 1
}
grep '"id":2,' "$SMOKE_DIR/billion.out" \
  | grep -q '"audit":"exact-method (hslb.greedy)"' || {
  echo "serve smoke: billion-node min-sum not audited \"exact-method (hslb.greedy)\"" >&2
  exit 1
}

echo "== observability: serve --metrics-out + bench --trace artifacts =="
# a short serve run flushing metrics fast enough that the periodic
# flusher (not just the final flush) writes the exposition
"$SERVE_BIN" serve --jobs 1 \
  --metrics-out "$SMOKE_DIR/metrics.prom" --metrics-interval-ms 50 \
  < test/fixtures/serve_trace.ndjson > /dev/null
[ -s "$SMOKE_DIR/metrics.prom" ] || {
  echo "observability: --metrics-out wrote no exposition" >&2
  exit 1
}
grep -q '^serve_solve_ms_count ' "$SMOKE_DIR/metrics.prom" || {
  echo "observability: exposition missing serve_solve_ms samples" >&2
  exit 1
}

# a traced bench run: one experiment — enough to exercise the
# pool span paths and produce a real trace
dune exec bench/main.exe -- --quick --only E4 \
  --trace "$SMOKE_DIR/e4_trace.json" > /dev/null
[ -s "$SMOKE_DIR/e4_trace.json" ] || {
  echo "observability: --trace wrote no chrome trace" >&2
  exit 1
}

# both artifacts must pass their format validators
"$SERVE_BIN" obs \
  --chrome-trace "$SMOKE_DIR/e4_trace.json" \
  --prometheus "$SMOKE_DIR/metrics.prom"

# an artifact that is not there fails the check with its own message
status=0
"$SERVE_BIN" obs --bench "$SMOKE_DIR/no-such-bench.json" \
  > /dev/null 2> "$SMOKE_DIR/obs_missing.err" || status=$?
[ "$status" -eq 1 ] || {
  echo "observability: obs --bench on a missing file exited $status, not 1" >&2
  exit 1
}
grep -qF "$SMOKE_DIR/no-such-bench.json: cannot read: No such file or directory" \
  "$SMOKE_DIR/obs_missing.err" || {
  echo "observability: obs --bench on a missing file printed no diagnostic:" >&2
  cat "$SMOKE_DIR/obs_missing.err" >&2
  exit 1
}

echo "== fleet smoke: 2-backend route over unix sockets =="
# a router over two spawned backends with a deliberately tiny backend
# queue: a 200-request windowed replay must provoke every admission
# outcome, land cache hits on both shards, and drain the whole fleet
"$SERVE_BIN" route --backends 2 \
  --listen "unix:$SMOKE_DIR/route.sock" --sock-dir "$SMOKE_DIR/fleet" \
  --jobs 1 --queue-limit 4 --cache-capacity 64 \
  > "$SMOKE_DIR/route.out" &
ROUTE_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SMOKE_DIR/route.sock" ] && break
  sleep 0.1
done
[ -S "$SMOKE_DIR/route.sock" ] || {
  echo "fleet smoke: router socket never appeared" >&2
  exit 1
}
# phase 1 — blast: 24 requests in flight against 4-deep backend
# queues must shed load (overloaded) while the duplicates that do get
# in hit a shard's cache
"$SERVE_BIN" loadgen --connect "unix:$SMOKE_DIR/route.sock" \
  --requests 160 --distinct 12 --sleep-every 50 --expire-every 8 \
  --window 24 > "$SMOKE_DIR/loadgen_blast.json"
# the backend stats embedded in the result also spell these counters,
# so every outcome assertion scopes its grep to the outcomes object
for outcome in ok overloaded; do
  grep -o '"outcomes":{[^}]*}' "$SMOKE_DIR/loadgen_blast.json" \
    | grep -q "\"$outcome\":" || {
    echo "fleet smoke: no \"$outcome\" outcome in blast result" >&2
    exit 1
  }
done
hits=$(grep -o '"cache_hits":[0-9]*' "$SMOKE_DIR/loadgen_blast.json" | head -1 | cut -d: -f2)
[ "${hits:-0}" -gt 0 ] || {
  echo "fleet smoke: blast produced no cache hits" >&2
  exit 1
}
# the router hands each backend's reply bytes on with the client's id
# spliced in: every one must still parse and carry a passing audit
assert_replies_sound "$SMOKE_DIR/loadgen_blast.json" "fleet smoke (blast)"
# phase 2 — near-serial (window 2): every request is admitted, every
# repeated key is a shard-local cache hit, and a tiny-deadline solve
# that lands behind the other in-flight request outlives its 10us
# deadline in the queue (expired); ends with the fleet drain
"$SERVE_BIN" loadgen --connect "unix:$SMOKE_DIR/route.sock" \
  --requests 40 --distinct 8 --expire-every 2 \
  --window 2 --drain > "$SMOKE_DIR/loadgen_serial.json"
if ! wait "$ROUTE_PID"; then
  echo "fleet smoke: router exited non-zero after drain" >&2
  exit 1
fi
grep -o '"outcomes":{[^}]*}' "$SMOKE_DIR/loadgen_serial.json" \
  | grep -q '"ok":' || {
  echo "fleet smoke: no \"ok\" outcome in serial result" >&2
  exit 1
}
# 40 tiny-deadline candidates across the two phases: at least one must
# have expired in a queue (the rest may be shed as overloaded in the
# blast or win the worker-wakeup race in the near-serial phase)
grep -h -o '"outcomes":{[^}]*}' \
  "$SMOKE_DIR/loadgen_blast.json" "$SMOKE_DIR/loadgen_serial.json" \
  | grep -q '"expired":' || {
  echo "fleet smoke: no \"expired\" outcome in either phase" >&2
  exit 1
}
hits=$(grep -o '"cache_hits":[0-9]*' "$SMOKE_DIR/loadgen_serial.json" | head -1 | cut -d: -f2)
[ "${hits:-0}" -gt 0 ] || {
  echo "fleet smoke: no cache hits through the router" >&2
  exit 1
}
# the post-run stats fan-out must carry both shards' counters
for b in backend-0 backend-1; do
  grep -q "\"$b\"" "$SMOKE_DIR/loadgen_serial.json" || {
    echo "fleet smoke: stats fan-out missing $b" >&2
    exit 1
  }
done
assert_replies_sound "$SMOKE_DIR/loadgen_serial.json" "fleet smoke (serial)"
grep -q '"event":"fleet_drain"' "$SMOKE_DIR/route.out" || {
  echo "fleet smoke: router never logged fleet_drain" >&2
  exit 1
}
grep -q '"event":"drained"' "$SMOKE_DIR/route.out" || {
  echo "fleet smoke: missing router drained event" >&2
  exit 1
}

echo "== fleet bench: 1 vs 2 backends (BENCH_fleet.json) =="
# the locality benchmark: 48 distinct instances against 32-entry LRUs,
# so the single backend thrashes while each fleet shard stays resident
"$SERVE_BIN" loadgen --bench-out "$SMOKE_DIR/BENCH_fleet.json" \
  --backends 2 --requests 200 --distinct 48 \
  --jobs 1 --queue-limit 64 --cache-capacity 32 > "$SMOKE_DIR/bench.out"
cat "$SMOKE_DIR/bench.out"
"$SERVE_BIN" obs --bench "$SMOKE_DIR/BENCH_fleet.json"

echo "== arena: scheduler race + regret matrix (BENCH_arena.json) =="
# a quick seeded zoo — four classes is comfortably over the >= 3 bar,
# raced across all five scheduler families
"$SERVE_BIN" arena --quick \
  --class steady --class heavy-tailed --class drifting --class failure \
  --out "$SMOKE_DIR/BENCH_arena.json" > "$SMOKE_DIR/arena.out"
cat "$SMOKE_DIR/arena.out"
"$SERVE_BIN" obs --bench "$SMOKE_DIR/BENCH_arena.json"

echo "== resolve smoke: drift fixture through a live server (v1/v2 mix) =="
# the fixture walks the whole version surface: id 1 is a v1 solve
# (its response must stay byte-free of any "v" field), id 2 re-solves
# with the incumbent already optimal (it is within ε of the exact
# optimum and must answer "unchanged"), id 3 feeds drifted
# observations of a 2x-slower law (the incumbent falls more than ε
# behind and a genuine re-solve runs), id 4 probes v3 (exact
# diagnostic), id 5 asks a v2 stats (which must advertise the protocol
# range), id 6 sends one sample at twice the law's 13.008 s at 8 nodes
# (one node count rescales the law, so the incumbent is kept at 26.016),
# id 7 misspells its observe class
# (exact diagnostic, not an answer from the stale law). Counters are
# asserted on the terminal drained event — emitted only after the
# queue empties, so they cannot race the in-flight resolves.
printf '%s\n' \
  '{"id":1,"model_csv":"alpha,4,100,0.001,1,0.5","nodes":32}' \
  '{"id":2,"v":2,"op":"resolve","model_csv":"alpha,4,100,0.001,1,0.5","nodes":32,"prev":[8]}' \
  '{"id":3,"v":2,"op":"resolve","model_csv":"alpha,4,100,0.001,1,0.5","nodes":32,"prev":[4],"observe":[{"class":"alpha","samples":[[2,100.5],[4,50.5],[8,25.5],[16,13.0]]}]}' \
  '{"id":4,"v":3,"op":"ping"}' \
  '{"id":5,"v":2,"op":"stats"}' \
  '{"id":6,"v":2,"op":"resolve","model_csv":"alpha,4,100,0.001,1,0.5","nodes":32,"prev":[8],"observe":[{"class":"alpha","samples":[[8,26.016]]}]}' \
  '{"id":7,"v":2,"op":"resolve","model_csv":"alpha,4,100,0.001,1,0.5","nodes":32,"prev":[4],"observe":[{"class":"alpah","samples":[[2,100.5],[4,50.5],[8,25.5],[16,13.0]]}]}' \
  | "$SERVE_BIN" serve --jobs 1 > "$SMOKE_DIR/resolve.out"
if grep '"id":1' "$SMOKE_DIR/resolve.out" | grep -q '"v":'; then
  echo "resolve smoke: v1 response leaked a \"v\" field" >&2
  exit 1
fi
grep '"id":2' "$SMOKE_DIR/resolve.out" | grep -q '"resolve":"unchanged"' || {
  echo "resolve smoke: optimal incumbent did not answer \"unchanged\"" >&2
  exit 1
}
grep '"id":3' "$SMOKE_DIR/resolve.out" | grep -q '"resolve":"resolved"' || {
  echo "resolve smoke: drifted resolve did not re-solve" >&2
  exit 1
}
grep '"id":4' "$SMOKE_DIR/resolve.out" \
  | grep -q 'unsupported protocol version 3 (server speaks 1..2)' || {
  echo "resolve smoke: v3 probe missing the exact version diagnostic" >&2
  exit 1
}
grep '"id":5' "$SMOKE_DIR/resolve.out" | grep -q '"protocol":' || {
  echo "resolve smoke: v2 stats did not advertise the protocol range" >&2
  exit 1
}
grep '"id":6' "$SMOKE_DIR/resolve.out" | grep '"resolve":"unchanged"' \
  | grep -q '"makespan":26.01' || {
  echo "resolve smoke: one sample did not rescale the law onto it (makespan 26.016)" >&2
  exit 1
}
grep '"id":7' "$SMOKE_DIR/resolve.out" \
  | grep -qF '"error":"field \"observe\": class \"alpah\" is not in the model"' || {
  echo "resolve smoke: a misspelled observe class missing its exact diagnostic" >&2
  exit 1
}
drained=$(grep '"event":"drained"' "$SMOKE_DIR/resolve.out")
case "$drained" in
*'"resolve_skipped":2'*) ;;
*)
  echo "resolve smoke: expected exactly two kept incumbents" >&2
  exit 1
  ;;
esac
case "$drained" in
*'"resolved":1'*) ;;
*)
  echo "resolve smoke: expected exactly one genuine re-solve" >&2
  exit 1
  ;;
esac

echo "== resolve smoke: an integral optimum is kept (exact optimum, not a relaxation) =="
# 3 tasks of 100/n on 32 nodes: [10] is the integer optimum, 6.7% above
# the continuous relaxation; priced against the exact optimum it stays
printf '%s\n' \
  '{"id":1,"v":2,"op":"resolve","model_csv":"alpha,3,100,0,1,0","nodes":32,"prev":[10]}' \
  | "$SERVE_BIN" serve --jobs 1 > "$SMOKE_DIR/resolve_gap.out"
grep '"id":1' "$SMOKE_DIR/resolve_gap.out" | grep -q '"resolve":"unchanged"' || {
  echo "resolve smoke: the optimal incumbent was not kept" >&2
  exit 1
}

echo "== solve: a budget past 2^53 is a usage error under the exact solver =="
status=0
"$SERVE_BIN" solve examples/models/e6_classes.csv -n 4000000000000000000 \
  > "$SMOKE_DIR/solve_huge.out" 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "solve: -n 4000000000000000000 exited $status, not 2" >&2
  exit 1
}
grep -qx 'hslb solve: Alloc_model.solve: solver exact needs n_total <= 2^53' \
  "$SMOKE_DIR/solve_huge.out" || {
  echo "solve: -n 4000000000000000000 did not print the refusal" >&2
  exit 1
}

echo "== fit: one deterministic law; bad input files are usage errors =="
# exactly 200/n + 0.5: the fit prints that law, the same bytes twice
printf '%s\n' 1,200.5 2,100.5 4,50.5 8,25.5 16,13 > "$SMOKE_DIR/fit.csv"
"$SERVE_BIN" fit "$SMOKE_DIR/fit.csv" > "$SMOKE_DIR/fit1.out"
"$SERVE_BIN" fit "$SMOKE_DIR/fit.csv" > "$SMOKE_DIR/fit2.out"
cmp -s "$SMOKE_DIR/fit1.out" "$SMOKE_DIR/fit2.out" || {
  echo "fit: two runs printed different output" >&2
  exit 1
}
grep -qx 'T(n) = 200/n^1 + 0.000e+00n + 0.5' "$SMOKE_DIR/fit1.out" \
  && grep -q '^R2 = 1.000000,' "$SMOKE_DIR/fit1.out" || {
  echo "fit: 200/n + 0.5 was not recovered:" >&2
  cat "$SMOKE_DIR/fit1.out" >&2
  exit 1
}
# relative residuals do not see the unit: times of 1e-200 s fit the
# flat law they are, not a corner of the box
printf '%s\n' 1,1e-200 2,1e-200 > "$SMOKE_DIR/fit_tiny.csv"
"$SERVE_BIN" fit "$SMOKE_DIR/fit_tiny.csv" > "$SMOKE_DIR/fit_tiny.out"
grep -qx 'T(n) = 1e-200/n^0 + 0.000e+00n + 0' "$SMOKE_DIR/fit_tiny.out" || {
  echo "fit: two times of 1e-200 s did not fit the flat law:" >&2
  cat "$SMOKE_DIR/fit_tiny.out" >&2
  exit 1
}
# the fit draws nothing: its multi-start knobs are gone
for flag in '--seed 1' '--starts 12'; do
  status=0
  # shellcheck disable=SC2086
  "$SERVE_BIN" fit $flag "$SMOKE_DIR/fit.csv" > /dev/null 2>&1 || status=$?
  [ "$status" -eq 124 ] || {
    echo "fit: fit $flag exited $status, not 124" >&2
    exit 1
  }
done
# expect_usage_error CMD FILE_CONTENT MESSAGE: `hslb CMD` on a file
# holding FILE_CONTENT exits 2 and prints `hslb CMD: MESSAGE`
expect_usage_error() {
  printf '%s' "$2" > "$SMOKE_DIR/bad.csv"
  status=0
  if [ "$1" = solve ]; then
    "$SERVE_BIN" solve "$SMOKE_DIR/bad.csv" -n 8 > /dev/null 2> "$SMOKE_DIR/bad.err" || status=$?
  else
    "$SERVE_BIN" fit "$SMOKE_DIR/bad.csv" > /dev/null 2> "$SMOKE_DIR/bad.err" || status=$?
  fi
  [ "$status" -eq 2 ] && grep -qxF "hslb $1: $3" "$SMOKE_DIR/bad.err" || {
    echo "$1: a file holding '$2' exited $status, not 2 with 'hslb $1: $3':" >&2
    cat "$SMOKE_DIR/bad.err" >&2
    exit 1
  }
}
unweighable='nodes must be finite and >= 1, seconds finite and > 0'
expect_usage_error fit '4,nan
' "Fitting.fit_observations: invalid observation (4, nan): $unweighable"
expect_usage_error fit '4,inf
' "Fitting.fit_observations: invalid observation (4, inf): $unweighable"
expect_usage_error fit '2,50
4,0
' "Fitting.fit_observations: invalid observation (4, 0): $unweighable"
expect_usage_error fit '0.5,10
' "Fitting.fit_observations: invalid observation (0.5, 10): $unweighable"
expect_usage_error fit '1,10
4,x
' 'line 2: seconds is not a number: "x": 4,x'
expect_usage_error fit '1,2,3
' 'line 1: expected 2 comma-separated fields (nodes,seconds), got 3: 1,2,3'
expect_usage_error fit '' \
  'Fitting.fit_observations: need observations at 2 or more distinct node counts'
expect_usage_error fit '4,10
4,11
' 'Fitting.fit_observations: need observations at 2 or more distinct node counts'
expect_usage_error fit '1,1e-200
2,1e200
' 'Fitting.fit_observations: times from 1e-200 s to 1e+200 s span too many orders of magnitude to weigh their relative residuals'
expect_usage_error solve 'A,2,x,0,1,0
' 'Model_store.of_csv: line 1: a is not a number: "x": A,2,x,0,1,0'

echo "== serve smoke: an overflowing torus is refused, the server lives on =="
# x*y*z overflows to 0 here; the place section is refused with its
# exact diagnostic and the ping behind it is answered
printf '%s\n' \
  '{"id":1,"v":2,"model_csv":"alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2","nodes":32,"place":{"topology":[2097152,2097152,2097152],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.6,0.5],"comm_mb":[[0,3.5],[3.5,0]]}}' \
  '{"id":2,"op":"ping"}' \
  | "$SERVE_BIN" serve --jobs 1 > "$SMOKE_DIR/place_cap.out"
grep '"id":1' "$SMOKE_DIR/place_cap.out" \
  | grep -q 'must have at most 262144 nodes, got 2097152x2097152x2097152' || {
  echo "place cap: the overflowing torus did not get its diagnostic" >&2
  exit 1
}
grep '"id":2' "$SMOKE_DIR/place_cap.out" | grep -q '"pong":true' || {
  echo "place cap: the ping behind the overflowing torus went unanswered" >&2
  exit 1
}

echo "== resolve bench: re-solve policy frontier (BENCH_resolve.json) =="
# the quick frontier (4 rounds, drift 0 and 0.15)
dune exec bench/main.exe -- --quick --resolve "$SMOKE_DIR/BENCH_resolve.json" > /dev/null
"$SERVE_BIN" obs --bench "$SMOKE_DIR/BENCH_resolve.json"

echo "== kernel bench: unboxed hot paths vs their baselines (BENCH_kernels.json) =="
# a speedup bought with a bit of drift cannot land: any
# identical=false fails the not_identical gate
dune exec bench/main.exe -- --kernels "$SMOKE_DIR/BENCH_kernels.json" \
  > "$SMOKE_DIR/kernels.out"
cat "$SMOKE_DIR/kernels.out"
"$SERVE_BIN" obs --bench "$SMOKE_DIR/BENCH_kernels.json"

echo "== runtime bench: solve cache + core-adaptive pool (BENCH_runtime.json) =="
dune exec bench/main.exe -- --runtime "$SMOKE_DIR/BENCH_runtime.json" \
  > "$SMOKE_DIR/runtime.out"
cat "$SMOKE_DIR/runtime.out"
"$SERVE_BIN" obs --bench "$SMOKE_DIR/BENCH_runtime.json"

echo "== place bench: comm-aware vs comm-blind placement (BENCH_place.json) =="
dune exec bench/main.exe -- --quick --place "$SMOKE_DIR/BENCH_place.json" > /dev/null
"$SERVE_BIN" obs --bench "$SMOKE_DIR/BENCH_place.json"

echo "== place smoke: v2 solve with a place section through a live server =="
# one placed solve over the wire: the ok response must carry the
# place annotation (assignment + costs) and the drained counters one
# placed request
printf '%s\n' \
  '{"id":1,"v":2,"model_csv":"alpha,4,100,0.001,1,0.5\nbeta,2,50,0.001,1,0.2","nodes":32,"place":{"topology":[2,2,2],"groups":4,"mem_per_node_gb":1.0,"mem_gb":[0.6,0.5],"comm_mb":[[0,3.5],[3.5,0]],"hop_cost_s_per_mb":2.0}}' \
  | "$SERVE_BIN" serve --jobs 1 > "$SMOKE_DIR/place.out"
grep '"id":1' "$SMOKE_DIR/place.out" | grep -q '"place":{"assignment":' || {
  echo "place smoke: response carries no place annotation" >&2
  exit 1
}
grep '"event":"drained"' "$SMOKE_DIR/place.out" | grep -q '"placed":1' || {
  echo "place smoke: drained counters did not report one placed solve" >&2
  exit 1
}

echo "== ci OK =="
