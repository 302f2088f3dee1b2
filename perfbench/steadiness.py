#!/usr/bin/env python3
"""Measures how steady the benchmark's figures are, and derives its bounds.

Runs every workload of BENCHMARK.json once per seed, ten seeds, for
run_seconds each, through perfbench/run.py, and reports for each
end-to-end metric the median, the quartiles (statistics.quantiles(values,
n=4)) and the spread, which is the distance between the quartiles as a
share of the median. It records the host (nproc, CPU model), the compiler
and the build type with the figures.

    python3 perfbench/steadiness.py --out set1.json       # seeds 1-10
    python3 perfbench/steadiness.py --out set2.json --first-seed 11
    python3 perfbench/steadiness.py --compare set1.json set2.json
    python3 perfbench/steadiness.py --bounds set1.json set2.json [--write]

--compare checks every metric's spread in both sets, and the second
median's shift from the first, against the metric's bound. --bounds
derives each bound from the sets: three times the largest spread seen, at
least the largest shift between the sets' medians, rounded up to a
hundredth and kept within [0.05, 0.25]. setup_s carries the largest bound
of all the metrics. --write stores the bounds in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
MIN_BOUND, MAX_BOUND = 0.05, 0.25
SEEDS = 10


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (ROOT / ".bench_build" / "CMakeCache.txt").read_text(
        ).splitlines():
            if ":" in line and "=" in line and not line.startswith("//"):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown")}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "min": min(values), "max": max(values), "values": values}


def run_set(spec, seeds):
    seconds = spec["run_seconds"]
    record = {"host": host_info(), "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for w in [x["name"] for x in spec["workloads"]]:
        runs = []
        for seed in seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or result is None:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
            result["elapsed_s"] = time.monotonic() - start
            runs.append(result)
            print(f"{w} seed {seed}: {result['elapsed_s']:.1f} s, "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize(
                [r["metrics"][name]["value"] for r in runs])
        record["workloads"][w] = {
            "metrics": metrics,
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "elapsed_s": [r["elapsed_s"] for r in runs],
        }
    return record


def print_set(record):
    h = record["host"]
    print(f"host: {h['nproc']} CPUs, {h['cpu']}; {h['compiler']}; "
          f"{h['build_type']}; {len(record['seeds'])} seeds, "
          f"{record['seconds']} s per run")
    for w, data in record["workloads"].items():
        print(f"\n{w} (failed share {max(data['failed_share']):.3g}, "
              f"{max(data['elapsed_s']):.0f} s longest run)")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>7s}")
        for name, s in data["metrics"].items():
            print(f"  {name:28s} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:7.3f}")


def worse_share(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(a, b, spec):
    ok = True
    for m in spec["end_to_end"]:
        for w in a["workloads"]:
            s1 = a["workloads"][w]["metrics"][m["name"]]
            s2 = b["workloads"][w]["metrics"][m["name"]]
            shift = worse_share(s1["median"], s2["median"], m["better"])
            spread = max(s1["spread"], s2["spread"])
            good = shift <= m["bound"] and spread <= m["bound"]
            ok &= good
            print(f"{w:16s} {m['name']:28s} bound {m['bound']:.2f} "
                  f"shift {shift:+.3f} spread {spread:.3f} "
                  f"{'ok' if good else 'OUT OF BOUND'}")
    fa = [x for d in a["workloads"].values() for x in d["failed_share"]]
    fb = [x for d in b["workloads"].values() for x in d["failed_share"]]
    if set(fa) != set(fb) or len(set(fa)) > 1:
        print(f"failed shares differ: {sorted(set(fa))} vs {sorted(set(fb))}")
        ok = False
    return ok


def derive_bounds(records, spec):
    bounds = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        need = 0.0
        for w in records[0]["workloads"]:
            stats = [r["workloads"][w]["metrics"][name] for r in records]
            need = max([need] + [3 * s["spread"] for s in stats])
            for s1 in stats:
                for s2 in stats:
                    need = max(need, worse_share(s1["median"], s2["median"],
                                                 m["better"]))
        bound = math.ceil(need * 100 - 1e-9) / 100
        bounds[name] = min(MAX_BOUND, max(MIN_BOUND, bound))
        if need > MAX_BOUND:
            print(f"{name}: needs {need:.3f}, above the largest bound "
                  f"{MAX_BOUND}", file=sys.stderr)
    # Set-up carries the largest bound: it is the figure most exposed to
    # the host (fsync, page cache, allocator).
    bounds["setup_s"] = max(bounds.values())
    return bounds


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="write the set's record to this file")
    p.add_argument("--compare", nargs=2, metavar="SET")
    p.add_argument("--bounds", nargs="+", metavar="SET")
    p.add_argument("--write", action="store_true",
                   help="with --bounds: store the bounds in BENCHMARK.json")
    args = p.parse_args()
    spec = json.loads(SPEC.read_text())

    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(a, b, spec) else 1
    if args.bounds:
        records = [json.loads(Path(f).read_text()) for f in args.bounds]
        bounds = derive_bounds(records, spec)
        for m in spec["end_to_end"]:
            print(f"{m['name']:28s} {m['bound']:.2f} -> {bounds[m['name']]:.2f}")
            m["bound"] = bounds[m["name"]]
        if args.write:
            SPEC.write_text(json.dumps(spec, indent=2) + "\n")
        return 0

    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    record = run_set(spec, seeds)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print_set(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
