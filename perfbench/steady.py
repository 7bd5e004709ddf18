"""Steadiness of the benchmark: repeated runs, spread against the bounds.

    python3 perfbench/steady.py --runs 10 [--workloads select-wide,sim-cell] \
        [--first-seed 1] [--trace 0]

Runs every chosen workload ``--runs`` times for BENCHMARK.json's
``run_seconds``, each run with its own seed and the workload order
reversed on every other repetition, from the root of a checkout.  It
prints, per (metric, workload), the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json, marking with ``!`` a spread
at or above a third of its bound, plus the share of failed operations.  The raw results go to
.perfbench-out/steady-<time>.json.
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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return dict(json.loads(lines[-1]), workload=workload, seed=seed, elapsed_s=elapsed)


def summarize(results, bounds):
    """Rows of (metric, workload, median, q1, q3, spread, bound)."""
    rows = []
    workload_names = sorted({r["workload"] for r in results})
    metric_names = sorted({m for r in results for m in r["metrics"]})
    for metric in metric_names:
        for workload in workload_names:
            values = [r["metrics"][metric]["value"] for r in results
                      if r["workload"] == workload and metric in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows.append((metric, workload, med, q1, q3, spread, bounds.get(metric)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",")
    results = []
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            res = run_once(workload, args.first_seed + i, seconds, args.trace)
            print(f"{workload} seed {res['seed']}: {res['elapsed_s']:.1f} s, "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
            results.append(res)

    out = Path(".perfbench-out") / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\n{'metric':34} {'workload':15} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for metric, workload, med, q1, q3, spread, bound in summarize(results, bounds):
        flag = "" if bound is None or spread < bound / 3 else "  !"
        bound_s = "" if bound is None else f"{bound:.2f}"
        print(f"{metric:34} {workload:15} {med:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{spread:7.3f} {bound_s:>6}{flag}")
    for workload in names:
        mine = [r for r in results if r["workload"] == workload]
        shares = sorted({r["failed"] / r["attempted"] for r in mine})
        print(f"{workload}: failed share per run {shares}, "
              f"mean run {statistics.mean(r['elapsed_s'] for r in mine):.1f} s")
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
