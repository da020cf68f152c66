#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady the end-to-end metrics are.

    python3 bench/steadiness.py [--workloads digit-counts ...]
    python3 bench/steadiness.py --compare bench/results/steady-A.json bench/results/steady-B.json

Each run is `bench/run.py --workload W --seed S --seconds <run_seconds>`
with seeds 1..RUNS (RUNS = 10).  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) / median against the metric's bound in BENCHMARK.json,
and the range; it also prints the share of failed operations.  The runs are
saved to bench/results/steady-<time>.json.  --compare reads two such files
and prints, per workload and metric, how far the second median is from the
first, against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(spec, workloads):
    out = {}
    for w in workloads:
        rows = []
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{proc.stderr}")
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"  {w} seed {seed} done", file=sys.stderr, flush=True)
        out[w] = rows
    return out


def report(spec, data):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, rows in data.items():
        shares = {r["failed"] / r["attempted"] for r in rows}
        print(f"{w}: {len(rows)} runs, correct {all(r['correct'] for r in rows)}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6} {'min':>11} {'max':>11}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:16} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{(q3 - q1) / med:7.3f} {bound:6.2f} {min(vals):11.5g} {max(vals):11.5g}")


def compare(spec, first, second):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in first:
        if w not in second:
            continue
        print(f"{w}:")
        for name, bound in bounds.items():
            a = statistics.median(r["metrics"][name]["value"] for r in first[w])
            b = statistics.median(r["metrics"][name]["value"] for r in second[w])
            print(f"  {name:16} first {a:11.5g} second {b:11.5g} "
                  f"change {(b - a) / a:+7.3f} bound {bound:.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        compare(spec, first, second)
        return
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    data = collect(spec, workloads)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(data))
    print(f"saved {path.relative_to(ROOT)}")
    report(spec, data)


if __name__ == "__main__":
    main()
