#!/usr/bin/env python3
"""Self-check of the benchmark itself (about 2.5 minutes on 2 cores).

    python3 benchmark/selfcheck.py

Each run below is given one second, so it makes one pass over its inputs.
For every workload with --trace 0, and for brats240 and cli-disk with
--trace 1 (phantom128 takes the same in-memory path as brats240), the result
line must hold exactly the metrics BENCHMARK.json names, with their units,
each also printed with its sample count n, and the run must pass the
reference gate. A run against a reference with one outcome altered must
count that outcome as failed. Exits non-zero on the first broken check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_LINE = re.compile(r"^metric (\S+) = \S+ (\S+) \(n=(\d+)\)$")


def run(workload, trace, *extra):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    printed = {m.group(1): (m.group(2), int(m.group(3))) for m in map(METRIC_LINE.match, lines) if m}
    return json.loads(lines[-1]), printed, proc.stderr


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def main():
    runs = [(w["name"], 0) for w in SPEC["workloads"]] + [("brats240", 1), ("cli-disk", 1)]
    for workload, trace in runs:
        group = "per_layer" if trace else "end_to_end"
        result, printed, stderr = run(workload, trace)
        label = f"{workload} trace={trace}"
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == expected, f"{label}: every {group} metric with its unit")
        check(all(printed.get(name, (None,))[0] == unit for name, unit in expected.items()),
              f"{label}: every metric printed with unit and n")
        passed = result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        check(passed, f"{label}: reference gate passes ({result['attempted']} attempted)"
              + ("" if passed else "\n" + stderr[-1500:]))
        if trace == 0:
            check(all(m["value"] > 0 for m in result["metrics"].values()), f"{label}: no metric is 0")
    result, printed, _ = run("brats240", 0, "--perturb-reference")
    check(result["failed"] >= 1 and not result["correct"], "a perturbed reference box is counted as failed")
    check(printed["failed_frac"][1] == result["attempted"], "failed_frac is reported against volumes attempted")


if __name__ == "__main__":
    main()
