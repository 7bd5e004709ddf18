"""Run one workload of the dpms benchmark and print its metrics.

    python3 perfbench/run.py --workload select-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run writes the workload's inputs
under .perfbench-out/, then for --seconds runs whole rounds of CLI
operations in a few fresh processes (sessions) one after another, each
with an equal share of the time, so that set-up and the cold first
operation are sampled several times across the run.  It checks every
operation's outputs against independent computations and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a single traced session, each with the unit
BENCHMARK.json gives it.  It exits 1 when an operation exits non-zero or
fails an output check, and 2 when the checkout has no dpms sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1        # at most nproc; one thread keeps repeated runs steady
RUN_BUDGET_S = 165      # all worker processes of one run end within this
OUT_DIR = ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    return env


def environment():
    """What the figures depend on: cores, library versions, BLAS threads."""
    import scipy

    def blas(show_config):
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config), "scipy_blas": blas(scipy.show_config),
            "blas_threads": BLAS_THREADS}


def run_session(run_dir, k, first_round, until, trace, src, deadline):
    """Run one worker.py session in a fresh process and return its result.

    The process is killed (and waited for) if it outlives ``deadline``.
    """
    result_path = run_dir / f"session{k}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(run_dir / "plan.json"),
           "--result", str(result_path), "--first-round", str(first_round),
           "--until", repr(until), "--trace", str(trace), "--src", str(src)]
    proc = subprocess.run(cmd, env=child_env(),
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {cmd[1:]} exited {proc.returncode}")
    return json.loads(result_path.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dpms" / "cli.py").is_file():
        print(f"no dpms sources under {src}; run from the root of a dpms checkout",
              file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(), sort_keys=True), flush=True)

    run_dir = root / OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    meta, data = workloads.make_inputs(args.workload, args.seed, run_dir)
    (run_dir / "plan.json").write_text(json.dumps(meta))

    # Session k stops starting rounds at the k+1-th share of --seconds;
    # each runs at least one round, from where the previous one stopped.
    # A traced run is one session.
    sessions = 1 if args.trace else workloads.SESSIONS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    results = []
    try:
        t0 = time.monotonic()
        for k in range(sessions):
            results.append(run_session(run_dir, k, sum(r["rounds"] for r in results),
                                       t0 + args.seconds * (k + 1) / sessions,
                                       args.trace, src, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run aborted, artifacts kept in {run_dir}: {exc}", file=sys.stderr)
        return 1
    ops = [op for r in results for op in r["ops"]]

    t_check = time.perf_counter()
    check_rng = np.random.default_rng([args.seed, 99])
    failed, correct = 0, True
    for op in ops:
        print(f"op {op['name']} round {op['round']}: exit {op['rc']}, {op['seconds']:.3f} s")
        if op["rc"] != 0:
            # Its artifacts cannot be checked, so the run cannot be correct.
            failed += 1
            correct = False
            print(f"FAILED {op['name']} (round {op['round']}): exit {op['rc']}\n{op['stderr']}",
                  file=sys.stderr)
            continue
        problems = checks.check_op(op, data, check_rng)
        if problems:
            failed += 1
            correct = False
            print(f"WRONG {op['name']} (round {op['round']}, {op['out']}):\n  "
                  + "\n  ".join(problems), file=sys.stderr)
    print(f"sessions: {sessions}, rounds: {sum(r['rounds'] for r in results)}, "
          f"operations: {len(ops)}, "
          f"checks: {time.perf_counter() - t_check:.1f} s", flush=True)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.trace:
        values = results[0]["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        walls = [w for r in results for w in r["round_walls"]]
        values = {"setup_s": statistics.median(r["import_s"] for r in results),
                  "wall_s": statistics.mean(walls),
                  "op_median_s": statistics.median(op["seconds"] for op in ops),
                  "cold_op_s": statistics.median(r["ops"][0]["seconds"] for r in results),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    spans = run_dir / "session0.spans.npz"
    if spans.exists():
        spans.replace(root / OUT_DIR / f"spans-{args.workload}-s{args.seed}.npz")
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"artifacts kept in {run_dir}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
