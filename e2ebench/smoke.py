#!/usr/bin/env python3
"""The bench.e2e_smoke test: a --quick traced run of bench_e2e at seeds 1
and 2 must print every metric BENCHMARK.json names, with its unit, fail no
item, and write trace files that parse as JSON.

    smoke.py BENCH_E2E BENCHMARK_JSON WORKDIR
"""

import json
import os
import re
import shutil
import subprocess
import sys

LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.eE+-]+|nan|-?inf)\s+(\S+)$")

# End-to-end metrics bench_e2e prints that BENCHMARK.json does not list:
# error_ratio is 0 when all is well, and p99's run-to-run spread exceeds
# the widest bound a metric there may have.
UNGATED = [{"name": "latency_p99_ms", "unit": "ms"},
           {"name": "error_ratio", "unit": "ratio"}]


def sections(stdout):
    """Maps each workload to the {metric: (value, unit)} lines printed
    under its `== name` header."""
    out, cur = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            cur = out.setdefault(line.split()[1], {})
            continue
        m = LINE.match(line)
        if cur is not None and m:
            cur[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


def main():
    exe, bench_json, work = sys.argv[1:4]
    with open(bench_json) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    errors = []
    for seed in (1, 2):
        run_dir = os.path.join(work, f"seed{seed}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        out = os.path.join(run_dir, "result.json")
        proc = subprocess.run(
            [exe, "--quick", "--seed", str(seed), "--out", out,
             "--trace", os.path.join(run_dir, "traces"),
             "--scratch", os.path.join(run_dir, "scratch")],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            errors.append(f"seed {seed}: exit {proc.returncode}: {proc.stderr}")
            continue
        printed = sections(proc.stdout)
        if sorted(printed) != sorted(names):
            errors.append(f"seed {seed}: printed workloads {sorted(printed)}")
        for w in names:
            got = printed.get(w, {})
            for m in bench["end_to_end"] + UNGATED:
                if got.get(m["name"], (None, None))[1] != m["unit"]:
                    errors.append(f"seed {seed}: {w} {m['name']} not printed "
                                  f"with unit {m['unit']}")
            if got.get("error_ratio", (1,))[0] != 0:
                errors.append(f"seed {seed}: {w} error_ratio is not 0")
        for m in bench["per_layer"]:
            w = m["name"].split(".", 1)[0]
            if printed.get(w, {}).get(m["name"], (None, None))[1] != m["unit"]:
                errors.append(f"seed {seed}: {m['name']} not printed with "
                              f"unit {m['unit']}")
        with open(out) as f:
            run = json.load(f)["runs"][-1]
        for w, entry in run["workloads"].items():
            try:
                with open(entry["trace_file"]) as f:
                    events = json.load(f)["traceEvents"]
                if not events:
                    errors.append(f"seed {seed}: {w} trace is empty")
            except (OSError, ValueError, KeyError) as e:
                errors.append(f"seed {seed}: {w} trace does not parse: {e}")
    for e in errors:
        print(e, file=sys.stderr)
    print("bench.e2e_smoke:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
