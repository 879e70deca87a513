#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout: it builds perfbench/main.exe and
the hslb CLI (the served workloads spawn `hslb serve`) with dune, then
runs the benchmark from the checkout root, held to one CPU (see pin).
A single workload prints a report and, as its
last line, one JSON result; `all` runs the three workloads one after
another, each in a fresh process.
"""

import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fmo_water32_n512", "serve_cold", "serve_hot"]
RUN_TIMEOUT_S = 175


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} in {ROOT}: run from a checkout of the repository", 2)
    # no shared dune cache: the build stays inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/main.exe", "bin/hslb_cli.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        fail("build failed", 1)


def stop_group(pgid):
    """SIGKILL whatever is left in the run's process group (a backend the
    benchmark could not stop) and wait, bounded, until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def pin():
    """Hold the run to one CPU, the last it may use.

    A served run's client, router and the backend it spawns (which
    inherits the affinity) then share one CPU, and no request crosses
    between CPUs: on a shared virtual host a wake-up sent to the other
    CPU waits out whatever the hypervisor gives that CPU's neighbours
    (on a 2-vCPU host, unpinned, a hot run in a busy minute fell to
    1.7k req/s with a p99 of 11.5 ms; pinned, 5.7k req/s and 0.77 ms).
    And the calibration kernel a run times between its ops (calib.ml)
    then times the CPU the ops ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(args):
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    # its own process group, so the backends it spawns can be stopped
    # with it even if it dies
    proc = subprocess.Popen([exe] + args, cwd=ROOT, start_new_session=True, preexec_fn=pin)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(proc.pid)
    if code is None:
        proc.wait()
        fail(f"run did not finish in {RUN_TIMEOUT_S} s", 1)
    return code


def main(argv):
    build()
    if "--workload" in argv and argv.index("--workload") + 1 < len(argv):
        i = argv.index("--workload") + 1
        if argv[i] == "all":
            codes = [run(argv[:i] + [w] + argv[i + 1:]) for w in WORKLOADS]
            return max(codes)
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
