#!/usr/bin/env python3
"""The benchmark's own tests: the oracle against an all-pairs loop, then
every workload at smoke size in both modes, checking that each run passes
its correctness checks and prints exactly the metrics BENCHMARK.json names.

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 w["name"], "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            expected = [m["name"] for m in spec[key]]
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append(f"{label}: keys {sorted(result)}")
            if list(result["metrics"]) != expected:
                failures.append(f"{label}: metrics {list(result['metrics'])}")
            units = {m["name"]: m["unit"] for m in spec[key]}
            for name, v in result["metrics"].items():
                if v.get("unit") != units.get(name):
                    failures.append(f"{label}: {name} unit {v.get('unit')}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/"
                                f"{result['attempted']}")
            if trace == 0:
                zero = [n for n, v in result["metrics"].items()
                        if v["value"] <= 0]
                if zero:
                    failures.append(f"{label}: non-positive {zero}")
            print(f"{label}: ok" if not failures else f"{label}: done",
                  flush=True)
    # run.py has built the oracle test beside the benchmark.
    oracle = subprocess.run([str(ROOT / ".bench_build" / "oracle_test")])
    if oracle.returncode != 0:
        failures.append("oracle_test failed")
    for f in failures:
        print("FAIL:", f)
    print("PASS" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
