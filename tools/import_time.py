"""Time ``import dpms, dpms.cli`` in fresh processes.

    python3 tools/import_time.py [--src SRC] [-k K]

Each of the K processes (default 10) imports nothing before the timed
``import dpms, dpms.cli``, with ``SRC`` (default this checkout's
``src/``) first on ``sys.path``.  The script prints the minimum and the
median of the K times and the scipy modules that the import loaded
(there should be none).  Start-up times move with the machine's load, so
compare two trees by their minima over runs taken in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import dpms, dpms.cli
secs = time.perf_counter() - t0
import json
print(json.dumps({"secs": secs, "file": dpms.__file__,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def time_imports(src: Path, k: int) -> list[dict]:
    """One record (secs, file, scipy) per fresh process."""
    records = []
    for _ in range(k):
        out = subprocess.run([sys.executable, "-c", _CHILD, str(src)], check=True,
                             capture_output=True, text=True).stdout
        records.append(json.loads(out))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src/ directory to import dpms from")
    parser.add_argument("-k", type=int, default=10, help="fresh processes to time")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be at least 1")
    records = time_imports(args.src.resolve(), args.k)
    secs = [r["secs"] for r in records]
    scipy = sorted({m for r in records for m in r["scipy"]})
    print(f"dpms from {records[0]['file']}")
    print(f"import dpms, dpms.cli over {args.k} processes: "
          f"min {min(secs):.4f} s, median {statistics.median(secs):.4f} s")
    print(f"scipy modules loaded: {len(scipy)} {scipy[:5]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
