"""One session of a benchmark run: a fresh process that runs whole rounds.

Started by ``run.py``: it times ``import dpms, dpms.cli`` (nothing else
imports numpy before it), then runs the CLI operations of rounds
``--first-round``, ``--first-round + 1``, ... in-process, one after
another, until the ``time.monotonic()`` deadline ``--until`` has passed
(at least one round).  The session's first operation runs with lazy
imports pending and caches empty: it is the run's cold sample.  The
session reads its peak resident memory before anything else is done.
The result (import time, per-operation and per-round times and, when
traced, the per-layer metrics) is written as JSON, the spans next to it.

    python3 perfbench/worker.py --plan PLAN.json --result OUT.json \
        --first-round 0 --until DEADLINE --trace 0 --src src
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _run_op(main, argv):
    """Run one CLI command; returns (exit code, seconds, error text)."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejecting the command line
        rc = exc.code if isinstance(exc.code, int) else 1
        err.write(traceback.format_exc())
    except Exception:  # a crash is a failed operation, not a failed run
        rc = -1
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, err.getvalue()[-2000:]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--first-round", type=int, required=True)
    parser.add_argument("--until", type=float, required=True,
                        help="time.monotonic() after which no round starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="the checkout's src/ directory")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import dpms
    import dpms.cli
    import_s = time.perf_counter() - t0

    if Path(dpms.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported dpms from {dpms.__file__}, not from {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    meta = json.loads(Path(args.plan).read_text())
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    dpms.gram.r2_clamp_counter.reset()

    records, round_walls = [], []
    r = args.first_round
    while not round_walls or time.monotonic() < args.until:
        t_round = time.perf_counter()
        for op in workloads.round_ops(meta, r):
            # Looked up on every call, so a traced run goes through the wrapper.
            rc, secs, err = _run_op(dpms.cli.main, op["argv"])
            records.append(dict(op, round=r, rc=rc, seconds=secs, stderr=err))
        round_walls.append(time.perf_counter() - t_round)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = dict(import_s=import_s, ops=records, rounds=len(round_walls),
                  round_walls=round_walls, peak_rss_mb=peak_rss_mb)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(
            tracer.totals(), tracer.counts, len(round_walls),
            dpms.gram.r2_clamp_counter.count, statistics.mean(round_walls))
        tracer.save(Path(args.result).with_suffix(".spans.npz"))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
