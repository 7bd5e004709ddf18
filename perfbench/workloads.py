"""The benchmark's workloads: seeded inputs and the operations of one round.

An operation is one ``dpms`` CLI command.  A run repeats whole rounds of
the same operations, so every run attempts the same mix; only the seeds
passed to the commands (and, for ``calibrate``, the subset size, so that
each run builds its Zellner-Siow table afresh as a new process would)
change from round to round.  Inputs come from the benchmark's own numpy
generator, never from ``dpms.datagen``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WORKLOADS = ("select-wide", "region-small", "sim-cell", "test-calibrate")
# Fresh processes per untraced run, each running at least one whole round:
# each samples set-up and the cold first operation once.  region-small's
# rounds are the longest, so it has two.
SESSIONS = {"select-wide": 3, "region-small": 2, "sim-cell": 3, "test-calibrate": 3}

EPSILON = 1.0
DELTA = 1e-5            # (epsilon, delta) releases: Wishart and analytic Gaussian
ENTRY_BOUND = 0.5       # every Gram-route cell lies strictly inside (-0.5, 0.5)

SELECT_N, SELECT_P, SELECT_SYNTHETIC_N = 20_000, 12, 5_000
# (mechanism, prior) of the select operations in one round.  The round
# opens with a closed-form prior: a ZS operation's quadrature time moves
# with the data, and the first operation is a session's only cold sample.
SELECT_MIX = (("laplace", "bic"), ("wishart", "zs"), ("laplace", "g"),
              ("wishart", "bic"), ("laplace", "zs"), ("wishart", "g"))

REGION_N, REGION_P, REGION_NSAMPLES = 20_000, 5, 1_000
# (mechanism, functional, prior) of the region operations in one round;
# mechanism "none" runs with --no-noise.  Predictors 0 and 1 are active.
# The inclusion functional runs only without noise: under either release
# some candidates' inclusion probabilities round to just above 1, and
# map_functional's fixed [0, 1] bins drop them from the histogram (see
# CHANGES.md).  The oracle inclusion of inactive predictor 3 stays far
# from 1, so its bins and counts are checked on every seed.
REGION_MIX = (("laplace", "beta:0", "g"), ("wishart", "beta:1", "g"),
              ("laplace", "beta:2", "bic"), ("none", "beta:0", "g"),
              ("none", "inclusion:3", "bic"))

SIM_ARGS = dict(p=6, n=10_000, snr=1.0, n_active=3, n_datasets=5, prior="zs")

TEST_N = 200_000
TEST_X0, TEST_X = ("z1", "z2"), ("x1", "x2", "x3")
# (M, prior, delta) of the private test operations in one round.
TEST_MIX = ((50, "g", 0.0), (400, "zs", DELTA), (400, "bic", 0.0))
TEST_ORACLE_BOUND = 1e6   # censor window of the --M 1 --no-noise operation
NSIM = 100_000
# Calibrate operations: statistic, prior, M, L, U, delta, base subset size.
# They open the round, the ZS one first, so that a fresh process's first
# operation (cold_op_s) builds the Zellner-Siow interpolant.
CALIBRATE_MIX = (
    dict(statistic="bf", prior="zs", M=20, L=-15.0, U=5.0, delta=0.0, base_b=1_500),
    dict(statistic="lrt", df=3, M=50, L=0.0, U=4.0, delta=0.0),
    dict(statistic="bf", prior="g", M=50, L=-15.0, U=5.0, delta=DELTA, base_b=2_000),
)


def _rng(seed, *keys):
    return np.random.default_rng([seed, *keys])


def _op_seed(seed, r, i):
    return int(np.random.SeedSequence([seed, r, i]).generate_state(1)[0])


def _write_csv(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _bounded_regression(rng, n, p, magnitudes, noise):
    """Uniform predictors on (-0.45, 0.45) and a response with uniform noise.

    The first ``len(magnitudes)`` predictors are active, with random
    signs.  |x beta| <= 0.45 * sum(magnitudes) and |noise| <= ``noise``
    keep every cell strictly inside (-0.5, 0.5), so the declared
    Gram-release bounds hold for the data (though not for the centered
    Gram; see CHANGES.md).
    """
    if not 0.45 * sum(magnitudes) + noise < ENTRY_BOUND:
        raise ValueError("the generated cells would reach the declared entry bound")
    x = rng.uniform(-0.45, 0.45, size=(n, p))
    beta = np.zeros(p)
    beta[:len(magnitudes)] = np.asarray(magnitudes) * rng.choice([-1.0, 1.0], size=len(magnitudes))
    return x, x @ beta + rng.uniform(-noise, noise, size=n)


def make_inputs(workload, seed, run_dir):
    """Write the workload's input files under ``run_dir``.

    Returns (meta, data): ``meta`` is what the operations need (JSON-able
    paths and sizes); ``data`` holds the arrays the checks recompute from.
    """
    run_dir = Path(run_dir)
    meta = {"workload": workload, "seed": seed, "dir": str(run_dir)}
    data = {}
    if workload == "select-wide":
        x, y = _bounded_regression(_rng(seed, 1), SELECT_N, SELECT_P,
                                   (0.3, 0.25, 0.2, 0.1), 0.08)
        path = run_dir / "select.csv"
        _write_csv(path, [f"x{j}" for j in range(SELECT_P)] + ["y"], [x, y])
        meta["input"] = str(path)
    elif workload == "region-small":
        x, y = _bounded_regression(_rng(seed, 2), REGION_N, REGION_P, (0.3, 0.25), 0.2)
        path = run_dir / "region.csv"
        _write_csv(path, [f"x{j}" for j in range(REGION_P)] + ["y"], [x, y])
        meta["input"] = str(path)
        data.update(x=x, y=y)
    elif workload == "test-calibrate":
        rng = _rng(seed, 4)
        z = rng.standard_normal((TEST_N, 2))
        x = rng.standard_normal((TEST_N, 3))
        y = 0.5 + z @ [0.3, -0.2] + x @ [0.01, 0.0, -0.005] + rng.standard_normal(TEST_N)
        path = run_dir / "test.csv"
        _write_csv(path, ["y", *TEST_X0, *TEST_X], [y, z, x])
        meta["input"] = str(path)
        meta["observed"] = [float(v) for v in _rng(seed, 5).uniform(0.3, 0.7, size=3)]
        data.update(y=y, x0=z, x=x)
    elif workload != "sim-cell":
        raise ValueError(f"unknown workload {workload!r}")
    return meta, data


def _select_op(meta, r, i):
    mech, prior = SELECT_MIX[i]
    seed = _op_seed(meta["seed"], r, i)
    argv = ["select", "--input", meta["input"], "--response", "y",
            "--x", ",".join(f"x{j}" for j in range(SELECT_P)),
            "--epsilon", repr(EPSILON), "--threshold", "--prior", prior,
            "--synthetic-n", str(SELECT_SYNTHETIC_N), "--seed", str(seed)]
    if mech == "laplace":
        argv += ["--data-entry-bound", repr(ENTRY_BOUND)]
        delta = 0.0
    else:
        argv += ["--delta", repr(DELTA),
                 "--row-norm-bound", repr(ENTRY_BOUND * math.sqrt(SELECT_P + 1))]
        delta = DELTA
    check = dict(mechanism=mech, prior=prior, n=SELECT_N, p=SELECT_P, epsilon=EPSILON,
                 delta=delta, synthetic_n=SELECT_SYNTHETIC_N, sample_seed=seed)
    return f"select-{mech}-{prior}", argv, check


def _region_op(meta, r, i):
    mech, functional, prior = REGION_MIX[i]
    seed = _op_seed(meta["seed"], r, i)
    argv = ["region", "--input", meta["input"], "--response", "y",
            "--x", ",".join(f"x{j}" for j in range(REGION_P)),
            "--nsamples", str(REGION_NSAMPLES), "--functional", functional,
            "--prior", prior, "--seed", str(seed)]
    if mech == "none":
        argv += ["--no-noise"]
    else:
        argv += ["--epsilon", repr(EPSILON)]
        if mech == "laplace":
            argv += ["--data-entry-bound", repr(ENTRY_BOUND)]
        else:
            argv += ["--delta", repr(DELTA),
                     "--row-norm-bound", repr(ENTRY_BOUND * math.sqrt(REGION_P + 1))]
    check = dict(mechanism=mech, functional=functional, prior=prior,
                 nsamples=REGION_NSAMPLES)
    return f"region-{mech}-{functional.replace(':', '')}-{prior}", argv, check


def _sim_op(meta, r, i):
    a = SIM_ARGS
    argv = ["simulate", "--p", str(a["p"]), "--n", str(a["n"]), "--snr", repr(a["snr"]),
            "--n-active", str(a["n_active"]), "--n-datasets", str(a["n_datasets"]),
            "--epsilon", repr(EPSILON), "--prior", a["prior"],
            "--seed", str(_op_seed(meta["seed"], r, i))]
    check = dict(n_datasets=a["n_datasets"], snr=a["snr"], epsilon=EPSILON)
    return "simulate", argv, check


def _test_op(meta, r, i):
    common = ["test", "--input", meta["input"], "--response", "y",
              "--x0", ",".join(TEST_X0), "--x", ",".join(TEST_X),
              "--epsilon", repr(EPSILON), "--seed", str(_op_seed(meta["seed"], r, i))]
    if i < len(TEST_MIX):
        M, prior, delta = TEST_MIX[i]
        argv = common + ["--M", str(M), "--prior", prior]
        if delta:
            argv += ["--delta", repr(delta)]
        check = dict(M=M, prior=prior, delta=delta, oracle=False,
                     L=-math.log(99.0), U=math.log(99.0))
        return f"test-M{M}-{prior}", argv, check
    bound = TEST_ORACLE_BOUND
    argv = common + ["--M", "1", "--prior", "zs", "--no-noise",
                     f"--L={-bound!r}", f"--U={bound!r}"]
    return "test-M1-zs-no-noise", argv, dict(M=1, prior="zs", delta=0.0, oracle=True,
                                             L=-bound, U=bound)


def _calibrate_op(meta, r, i):
    spec = dict(CALIBRATE_MIX[i], epsilon=EPSILON)
    observed = meta["observed"][i]
    argv = ["calibrate", "--statistic", spec["statistic"], "--M", str(spec["M"]),
            f"--L={spec['L']!r}", f"--U={spec['U']!r}", "--epsilon", repr(EPSILON),
            "--nsim", str(NSIM)]
    if spec["delta"]:
        argv += ["--delta", repr(spec["delta"])]
    if spec["statistic"] == "lrt":
        argv += ["--df", str(spec["df"])]
        lo, hi = 2.0 * spec["L"], 2.0 * spec["U"]
    else:
        # A subset size no earlier round used, so no table is cached.
        b = spec.pop("base_b") + (meta["seed"] % 1000) + r
        spec.update(n=spec["M"] * b, p=len(TEST_X), p0=len(TEST_X0) + 1)
        argv += ["--prior", spec["prior"], "--n", str(spec["n"]), "--p", str(spec["p"]),
                 "--p0", str(spec["p0"])]
        lo, hi = spec["L"], spec["U"]
    spec["observed"] = lo + observed * (hi - lo)
    argv += [f"--observed={spec['observed']!r}", "--alpha", "0.05",
             "--seed", str(_op_seed(meta["seed"], r, 10 + i))]
    spec["alpha"] = 0.05
    spec["nsim"] = NSIM
    name = f"calibrate-{spec['statistic']}" + (f"-{spec['prior']}" if "prior" in spec else "")
    return name, argv, spec


def round_ops(meta, r):
    """The operations of round ``r``: dicts with name, kind, argv, out, check."""
    workload = meta["workload"]
    if workload == "select-wide":
        specs = [("select",) + _select_op(meta, r, i) for i in range(len(SELECT_MIX))]
    elif workload == "region-small":
        specs = [("region",) + _region_op(meta, r, i) for i in range(len(REGION_MIX))]
    elif workload == "sim-cell":
        specs = [("simulate",) + _sim_op(meta, r, 0)]
    elif workload == "test-calibrate":
        specs = [("calibrate",) + _calibrate_op(meta, r, i)
                 for i in range(len(CALIBRATE_MIX))]
        specs += [("test",) + _test_op(meta, r, i) for i in range(len(TEST_MIX) + 1)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for i, (kind, name, argv, check) in enumerate(specs):
        out = str(Path(meta["dir"]) / "ops" / f"r{r:03d}-{i:02d}-{name}")
        ops.append(dict(name=name, kind=kind, argv=argv + ["--out", out], out=out,
                        check=check))
    return ops
