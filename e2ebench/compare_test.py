#!/usr/bin/env python3
"""The bench.e2e_compare test: `bench_e2e --compare` over hand-made result
files must give the verdicts of the choosing-metrics rules.

    compare_test.py BENCH_E2E WORKDIR
"""

import json
import os
import subprocess
import sys

# (case, A's values, B's values, expected verdict); throughput is higher
# is better, bounded at BENCHMARK.json's throughput bound.
CASES = [
    # Every run of B beats every run of A, but A is so spread that the
    # medians differ by far less than A's quartile distance: no gain.
    ("spread-a", [0.0] * 3 + [10.0] * 3 + [10.1] * 4, [10.2] * 10, "within"),
    ("gain", [100.0 + i / 10 for i in range(10)],
     [150.0 + i / 10 for i in range(10)], "better"),
    ("loss", [100.0 + i / 10 for i in range(10)],
     [50.0 + i / 10 for i in range(10)], "worse"),
    ("same", [100.0 + i / 10 for i in range(10)],
     [100.0 + i / 10 for i in range(10)], "within"),
    ("spread-both", [10.0, 50.0, 100.0] * 3 + [60.0],
     [12.0, 48.0, 99.0] * 3 + [61.0], "unresolved"),
]


def result_file(path, values):
    runs = [{"workloads": {case: {"metrics": {
        "throughput": {"value": v[i], "unit": "items/s"}}}
        for case, v in values.items()}} for i in range(10)]
    with open(path, "w") as f:
        json.dump({"schema": "vault-e2e-v1", "runs": runs}, f)


def main():
    exe, work = sys.argv[1:3]
    os.makedirs(work, exist_ok=True)
    a, b = os.path.join(work, "A.json"), os.path.join(work, "B.json")
    result_file(a, {c[0]: c[1] for c in CASES})
    result_file(b, {c[0]: c[2] for c in CASES})
    out = subprocess.run([exe, "--compare", a, b], capture_output=True,
                         text=True, timeout=60).stdout
    got = {}
    for line in out.splitlines():
        cols = line.split()
        if len(cols) > 2 and cols[1] == "throughput":
            got[cols[0]] = cols[-1]
    errors = [f"{case}: expected {want}, got {got.get(case)}"
              for case, _, _, want in CASES if got.get(case) != want]
    for e in errors:
        print(e, file=sys.stderr)
    print("bench.e2e_compare:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
