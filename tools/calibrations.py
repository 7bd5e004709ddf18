"""Time the Gram laws' Monte-Carlo calibrations on two source trees and
check that they give the same values.

    python3 tools/calibrations.py PARENT_SRC CHANGE_SRC [-k K]

At p = 5 and p = 12, with the budgets of the benchmark's Gram workloads
(epsilon 1; Wishart at delta 1e-5 and row-norm bound 0.5 sqrt(p+1),
Laplace at data-entry bound 0.5), it computes the Wishart ball radius at
alpha 0.05 and 0.5, the auto repair shift of both laws and the Wishart
off-diagonal quantile at q = 0.99.  Each of K rounds (default 5) runs one
fresh process per tree, parent first, with one BLAS thread.  A process
warms up on a p = 2 radius, then builds a new law for each calibration,
so nothing is memoized, and times that one computation.  The script
prints, per calibration, the minimum and median seconds on each side,
the ratio of the medians, and whether the values are bitwise equal in
every round.  The exit status is 1 when a value differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# (label, p, delta, law attribute, its argument or None for a property)
CALIBRATIONS = [
    (f"{label} p={p}", p, delta, attr, arg)
    for p in (5, 12)
    for label, delta, attr, arg in (
        ("wishart ball_radius(0.05)", 1e-5, "ball_radius", 0.05),
        ("wishart ball_radius(0.5)", 1e-5, "ball_radius", 0.5),
        ("wishart repair_shift", 1e-5, "repair_shift", None),
        ("laplace repair_shift", 0.0, "repair_shift", None),
        ("wishart offdiag_abs_quantile(0.99)", 1e-5, "offdiag_abs_quantile", 0.99),
    )
]
SEED = 7

_CHILD = """
import json, math, sys, time
sys.path.insert(0, sys.argv[1])
from dpms.mechanisms import PrivacyBudget, Sensitivity, gram_law
gram_law(2, PrivacyBudget(1.0, 1e-5), Sensitivity(0.5, 1.0), seed=0).ball_radius(0.05)  # warm-up
out = {}
for label, p, delta, attr, arg in json.loads(sys.argv[2]):
    law = gram_law(p, PrivacyBudget(1.0, delta), Sensitivity(0.5, 0.5 * math.sqrt(p + 1)),
                   seed=int(sys.argv[3]))
    t0 = time.perf_counter()
    value = getattr(law, attr) if arg is None else getattr(law, attr)(arg)
    out[label] = [time.perf_counter() - t0, float(value).hex()]
print(json.dumps(out))
"""


def run_tree(src: Path) -> dict:
    """{label: [seconds, value as float.hex]} from one fresh process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(src), json.dumps(CALIBRATIONS),
                           str(SEED)], check=True, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's src/ directory")
    parser.add_argument("change", type=Path, help="the change's src/ directory")
    parser.add_argument("-k", type=int, default=5, help="rounds of one process per tree")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rounds = [{side: run_tree(src) for side, src in sides.items()} for _ in range(args.k)]
    differ = 0
    print(f"{'calibration':40s} {'parent min/median s':>20s} {'change min/median s':>20s}"
          f" {'ratio':>6s}  values")
    for label, *_ in CALIBRATIONS:
        secs = {side: [r[side][label][0] for r in rounds] for side in sides}
        equal = all(r["parent"][label][1] == r["change"][label][1] for r in rounds)
        differ += not equal
        cells = [f"{min(secs[side]):.4f}/{statistics.median(secs[side]):.4f}" for side in sides]
        ratio = statistics.median(secs["change"]) / statistics.median(secs["parent"])
        print(f"{label:40s} {cells[0]:>20s} {cells[1]:>20s} {ratio:6.3f}  "
              + ("bitwise equal" if equal else "DIFFERENT: " + ", ".join(
                  f"{side} {float.fromhex(rounds[0][side][label][1])!r}" for side in sides)))
    print(f"{len(CALIBRATIONS) - differ} of {len(CALIBRATIONS)} calibrations bitwise equal "
          f"over {args.k} rounds")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
