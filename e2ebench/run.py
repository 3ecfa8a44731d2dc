#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload of it.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ (CMake,
Release). With --trace 0 the workload runs ROUNDS rounds of S/ROUNDS
timed seconds each and the result carries BENCHMARK.json's end-to-end
metrics; with --trace 1 every workload runs one traced child (S/10 s
untraced, then S/10 s traced) and the result carries BENCHMARK.json's
per-layer metrics. Human-readable output goes to standard error; the
last line of standard output is the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status 0 when a result was printed, 2 otherwise.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
ROUNDS = 10
# A run of this command ends within 180 s even when bench_e2e hangs;
# the rest is left for the build check and the translation below.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bench_e2e")


def run_bench(args):
    """Runs bench_e2e in its own process group, so a timeout stops the
    children it forked as well."""
    proc = subprocess.Popen(args, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    for need in ("src/CMakeLists.txt", "corpus/include", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r}; expected one of {names}")
    if a.seconds <= 0:
        fail("--seconds must be positive")

    exe = build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"run-{os.getpid()}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, "--seed", str(a.seed), "--out", out,
           "--scratch", os.path.join(BUILD, "scratch")]
    if a.trace:
        cmd += ["--rounds", "0", "--trace", os.path.join(BUILD, "traces"),
                "--trace-slice", repr(a.seconds / (2 * len(names)))]
    else:
        cmd += ["--workload", a.workload, "--rounds", str(ROUNDS),
                "--slice", repr(a.seconds / ROUNDS)]
    status = run_bench(cmd)
    if status not in (0, 1) or not os.path.exists(out):
        fail(f"bench_e2e exited with status {status}")
    with open(out) as f:
        run = json.load(f)["runs"][-1]
    os.remove(out)

    workloads = run["workloads"]
    if a.trace:
        measured = {}
        for w in workloads.values():
            measured.update(w.get("layers", {}))
        wanted = bench["per_layer"]
        attempted = sum(w["attempted"] for w in workloads.values())
        failed = sum(w["failed"] for w in workloads.values())
    else:
        w = workloads[a.workload]
        measured = w["metrics"]
        wanted = bench["end_to_end"]
        attempted, failed = w["attempted"], w["failed"]

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) was not reported")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if attempted < 1:
        fail("no item was attempted")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
