"""Run a fixed list of seeded CLI commands against two source trees and
compare the artifacts they write.

    python3 tools/compare_artifacts.py PARENT_SRC CHANGE_SRC

Each command runs in a fresh process (``python -m dpms.cli``) with
PYTHONPATH set to one ``src/`` directory and one BLAS thread, from a
working directory of its own side, so both sides record the same
relative ``--out``.  The list covers select, region, simulate, test and
calibrate, across every mechanism (Laplace, Wishart, analytic Gaussian,
``--no-noise``), every prior and both model priors, with Wishart regions
at alpha 0.05, 0.5 and 0.01, on the bundled ``hsb2.csv`` and on a
generated CSV whose cells lie inside (-0.5, 0.5).  Two error paths close
the list: a private select and a private test on a generated CSV whose
two predictors are collinear, which both sides should reject with exit
code 3.

For every artifact the script prints ``identical`` or the largest
absolute and relative difference over its numeric fields, then any
non-numeric field that differs and any field or file present on one side
only.  For a CSV it also names the data rows that moved and, over those
rows, the distinct values of each non-numeric column (``method: WM,
WMT``).  ``generated_at`` is ignored.  The last line counts the
identical artifacts, the moved ones (a value differs), those whose keys
alone differ (a field on one side only, every shared value equal), the
artifacts on one side only and the commands whose exit codes differ; a
nonzero exit code that both sides share is printed too.  It reports; it
applies no tolerance.  The exit status is 1 when a command's exit code
differs between the sides, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import groupby
from pathlib import Path

import numpy as np

HSB2 = "{hsb2}"
BOX = "{box}"
COLLINEAR = "{collinear}"
BOX_X = "x1,x2,x3,x4,x5"
BOX_P = 5
HSB2_X = "read,write,math,socst"
# The fixture's scores are not rescaled, so its releases use bounds on
# their own scale and a budget under which most region candidates stay
# positive definite.
HSB2_BUDGET = ["--epsilon", "50", "--data-entry-bound", "30", "--row-norm-bound", "40"]


def _box_flags(mechanism: str) -> list[str]:
    """Budget and sensitivity flags of a Gram release on the box CSV."""
    if mechanism == "none":
        return ["--no-noise"]
    flags = ["--epsilon", "1", "--data-entry-bound", "0.5",
             "--row-norm-bound", repr(0.5 * math.sqrt(BOX_P + 1))]
    return flags + (["--delta", "1e-5"] if mechanism == "wishart" else [])


def _hsb2_flags(mechanism: str) -> list[str]:
    if mechanism == "none":
        return ["--no-noise"]
    return HSB2_BUDGET + (["--delta", "1e-5"] if mechanism == "wishart" else [])


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in run order."""
    cmds = []
    box = ["--input", BOX, "--response", "y", "--x", BOX_X]
    hsb2 = ["--input", HSB2, "--response", "science", "--x", HSB2_X]
    for mech in ("laplace", "wishart", "none"):
        for prior in ("g", "zs", "bic", "aic", "lrt"):
            cmds.append((f"select-box-{mech}-{prior}",
                         ["select", *box, *_box_flags(mech), "--prior", prior, "--threshold",
                          "--synthetic-n", "300", "--seed", "11"]))
    cmds += [
        ("select-box-laplace-bic-uniform",
         ["select", *box, *_box_flags("laplace"), "--prior", "bic",
          "--model-prior", "uniform", "--seed", "12"]),
        ("select-box-wishart-g-fixed-r",
         ["select", *box, *_box_flags("wishart"), "--prior", "g", "--g", "50",
          "--r", "40", "--seed", "13"]),
        ("select-hsb2-laplace-g", ["select", *hsb2, *_hsb2_flags("laplace"), "--prior", "g",
                                   "--seed", "14"]),
        ("select-hsb2-wishart-zs", ["select", *hsb2, *_hsb2_flags("wishart"), "--prior", "zs",
                                    "--threshold", "--seed", "15"]),
        ("select-hsb2-none-bic", ["select", *hsb2, *_hsb2_flags("none"), "--prior", "bic",
                                  "--synthetic-n", "300", "--seed", "16"]),
    ]
    regions = [("laplace", "inclusion:0", "g"), ("laplace", "beta:2", "bic"),
               ("wishart", "beta:1", "zs"), ("wishart", "inclusion:3", "aic"),
               ("none", "inclusion:2", "lrt"), ("none", "beta:0", "zs")]
    for mech, functional, prior in regions:
        cmds.append((f"region-box-{mech}-{functional.replace(':', '')}-{prior}",
                     ["region", *box, *_box_flags(mech), "--prior", prior,
                      "--functional", functional, "--nsamples", "300", "--seed", "21"]))
    cmds += [
        ("region-hsb2-laplace-beta0-g",
         ["region", *hsb2, *_hsb2_flags("laplace"), "--prior", "g", "--functional", "beta:0",
          "--model-prior", "uniform", "--nsamples", "300", "--seed", "22"]),
        ("region-hsb2-wishart-inclusion1-bic",
         ["region", *hsb2, *_hsb2_flags("wishart"), "--prior", "bic",
          "--functional", "inclusion:1", "--nsamples", "300", "--seed", "23"]),
    ]
    # The Wishart ball's radius at quantiles other than the default 95th.
    for alpha, functional, prior in (("0.5", "beta:1", "g"), ("0.01", "inclusion:3", "bic")):
        cmds.append((f"region-box-wishart-{functional.replace(':', '')}-{prior}-alpha{alpha}",
                     ["region", *box, *_box_flags("wishart"), "--prior", prior,
                      "--functional", functional, "--alpha", alpha, "--nsamples", "300",
                      "--seed", "24"]))
    sim = ["simulate", "--p", "4", "--n", "3000", "--snr", "1", "--n-active", "2",
           "--n-datasets", "2", "--epsilon", "1"]
    for prior in ("zs", "g", "bic"):
        cmds.append((f"simulate-{prior}", [*sim, "--prior", prior, "--seed", "31"]))
    cmds.append(("simulate-zs-delta", [*sim, "--prior", "zs", "--delta", "1e-4", "--seed", "32"]))
    test = ["test", "--input", HSB2, "--response", "science", "--x0", "gender",
            "--x", "read,math", "--M", "8", "--epsilon", "1"]
    for prior, extra in (("g", []), ("zs", ["--delta", "1e-5"]), ("bic", []),
                         ("aic", ["--no-noise"]), ("lrt", ["--L", "-2", "--U", "8"]),
                         ("zs", ["--diagnostics"])):
        name = f"test-hsb2-{prior}" + "".join(f"-{e.strip('-')}" for e in extra[:1])
        cmds.append((name, [*test, "--prior", prior, *extra, "--seed", "41"]))
    cal = ["calibrate", "--nsim", "20000", "--epsilon", "1", "--alpha", "0.05"]
    cmds += [
        ("calibrate-lrt", [*cal, "--statistic", "lrt", "--df", "2", "--M", "10", "--L", "0",
                           "--U", "5", "--observed", "3.1", "--seed", "51"]),
        ("calibrate-bf-zs", [*cal, "--statistic", "bf", "--prior", "zs", "--n", "3000", "--p", "2",
                             "--M", "10", "--L", "-10", "--U", "5", "--delta", "1e-5",
                             "--seed", "52"]),
        ("calibrate-bf-g", [*cal, "--statistic", "bf", "--prior", "g", "--n", "3000", "--p", "3",
                            "--M", "12", "--L", "-10", "--U", "5", "--seed", "53"]),
        ("calibrate-bf-bic", [*cal, "--statistic", "bf", "--prior", "bic", "--n", "3000",
                              "--p", "1", "--M", "5", "--L", "-10", "--U", "5", "--seed", "54"]),
        ("calibrate-pvalue", [*cal, "--statistic", "pvalue", "--M", "6", "--L", "0", "--U", "1",
                              "--seed", "55"]),
    ]
    collinear = ["--input", COLLINEAR, "--response", "y", "--x", "x1,x2", "--epsilon", "1"]
    cmds += [
        ("select-collinear-laplace",
         ["select", *collinear, "--data-entry-bound", "0.5", "--seed", "3"]),
        ("test-collinear-g", ["test", *collinear, "--M", "5", "--seed", "3"]),
    ]
    return cmds


def write_box_csv(path: Path, n: int = 3000, seed: int = 2024) -> None:
    """Predictors Uniform(-0.45, 0.45), two active; y adds bounded noise."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.45, 0.45, size=(n, BOX_P))
    y = 0.3 * x[:, 0] - 0.25 * x[:, 1] + rng.uniform(-0.15, 0.15, size=n)
    header = ",".join([f"x{j + 1}" for j in range(BOX_P)] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), fmt="%.17g", delimiter=",", header=header,
               comments="")


def write_collinear_csv(path: Path, n: int = 400, seed: int = 2025) -> None:
    """x1 Uniform(-0.2, 0.2) and x2 = 2 x1 up to noise of scale 1e-13, so
    [x0 x] is rank deficient; y adds bounded noise to x1."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-0.2, 0.2, size=n)
    x2 = 2.0 * x1 + 1e-13 * rng.standard_normal(n)
    y = 0.5 * x1 + rng.uniform(-0.2, 0.2, size=n)
    np.savetxt(path, np.column_stack([x1, x2, y]), fmt="%.17g", delimiter=",",
               header="x1,x2,y", comments="")


def write_inputs(work: Path, src: Path) -> dict[str, Path]:
    """Write the generated CSVs into ``work``: the paths that fill the
    argv templates of :func:`commands`, the fixture's taken from ``src``."""
    paths = {"hsb2": src / "dpms" / "data" / "hsb2.csv", "box": work / "box.csv",
             "collinear": work / "collinear.csv"}
    write_box_csv(paths["box"])
    write_collinear_csv(paths["collinear"])
    return paths


def run_side(src: Path, side_dir: Path, name: str, argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "dpms.cli", *argv, "--out", f"out/{name}"],
                          cwd=side_dir, env=env, capture_output=True, text=True)
    return proc.returncode


def _number(value):
    """A JSON number or a numeric CSV cell as a float, else None (JSON
    strings such as ``top_model`` compare as text)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(value, prefix=""):
    """(path, leaf) pairs of a JSON value; ``generated_at`` is dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key != "generated_at":
                yield from _flatten(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _leaves(path: Path) -> dict:
    if path.suffix == ".json":
        return dict(_flatten(json.loads(path.read_text())))
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return {f"row{i}[{j}]": _cell(cell) for i, row in enumerate(rows)
            for j, cell in enumerate(row)}


def _spans(rows: list[int]) -> str:
    """[1, 2, 3, 7] as '1-3, 7' (at most eight runs)."""
    runs = [[i for _, i in run] for _, run in groupby(enumerate(rows), lambda t: t[1] - t[0])]
    text = ", ".join(f"{r[0]}-{r[-1]}" if len(r) > 1 else f"{r[0]}" for r in runs[:8])
    return text + (" ..." if len(runs) > 8 else "")


def _moved_rows(path: Path, moved: list[str]) -> str:
    """The data rows of a CSV that hold a moved cell (numbered from 1
    after the header), then the distinct values of each non-numeric
    column over those rows."""
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    idx = sorted({int(key[3:key.index("[")]) for key in moved} - {0})
    parts = [f"rows moved: {len(idx)} of {len(rows)} ({_spans(idx)})"]
    for j, name in enumerate(header):
        cells = [rows[i - 1][j] for i in idx]
        if cells and all(isinstance(_cell(c), str) for c in cells):
            parts.append(f"{name}: {', '.join(sorted(set(cells)))}")
    return "; ".join(parts)


def compare_file(a: Path, b: Path) -> tuple[str, str]:
    """(verdict, tally): the printed verdict, and ``identical``,
    ``moved`` or ``keys differ``."""
    la, lb = _leaves(a), _leaves(b)
    max_abs = max_rel = 0.0
    differ, numeric_differ = [], []
    for key in la.keys() & lb.keys():
        va, vb = la[key], lb[key]
        na, nb = _number(va), _number(vb)
        if na is None or nb is None:
            if va != vb:
                differ.append(key)
            continue
        if na == nb or (math.isnan(na) and math.isnan(nb)):
            continue
        numeric_differ.append(key)
        diff = abs(na - nb)
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / max(abs(na), abs(nb)))
    parts = []
    if numeric_differ:
        parts.append(f"max abs diff {max_abs:.3g}, max rel diff {max_rel:.3g}")
    if a.suffix == ".csv" and (numeric_differ or differ):
        parts.append(_moved_rows(a, numeric_differ + differ))
    if differ:
        parts.append("non-numeric fields differ: " + ", ".join(sorted(differ)[:8])
                     + (" ..." if len(differ) > 8 else ""))
    for label, only in (("parent", la.keys() - lb.keys()), ("change", lb.keys() - la.keys())):
        if only:
            parts.append(f"only in {label}: " + ", ".join(sorted(only)[:8])
                         + (" ..." if len(only) > 8 else ""))
    if not parts:
        return "identical", "identical"
    return "; ".join(parts), "moved" if numeric_differ or differ else "keys differ"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    srcs = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for src in srcs.values():
        if not (src / "dpms" / "cli.py").exists():
            parser.error(f"{src} holds no dpms package")
    tally = dict.fromkeys(("identical", "moved", "keys differ", "one side only",
                           "exit-code mismatches"), 0)
    with tempfile.TemporaryDirectory(prefix="dpms-compare-") as tmp:
        work = Path(tmp)
        inputs = write_inputs(work, srcs["parent"])
        for side in srcs:
            (work / side).mkdir()
        for name, argv_tpl in commands():
            argv_cmd = [arg.format(**inputs) for arg in argv_tpl]
            codes = {side: run_side(src, work / side, name, argv_cmd)
                     for side, src in srcs.items()}
            if codes["parent"] != codes["change"]:
                print(f"{name}: exit code {codes['parent']} (parent) "
                      f"vs {codes['change']} (change)")
                tally["exit-code mismatches"] += 1
                continue
            if codes["parent"]:
                print(f"{name}: exit code {codes['parent']} on both sides")
            dirs = {side: work / side / "out" / name for side in srcs}
            files = sorted({p.name for d in dirs.values() if d.exists() for p in d.iterdir()})
            if not files:
                print(f"{name}: exit code {codes['parent']}, no artifacts")
            for fname in files:
                a, b = dirs["parent"] / fname, dirs["change"] / fname
                if not (a.exists() and b.exists()):
                    print(f"{name}/{fname}: only in {'parent' if a.exists() else 'change'}")
                    tally["one side only"] += 1
                    continue
                verdict, kind = compare_file(a, b)
                tally[kind] += 1
                print(f"{name}/{fname}: {verdict}", flush=True)
    print("summary: " + ", ".join(f"{count} {label}" for label, count in tally.items()))
    return int(tally["exit-code mismatches"] > 0)


if __name__ == "__main__":
    sys.exit(main())
