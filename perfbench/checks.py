"""Output checks: each compares an operation's artifacts with a computation
made apart from the program (see reference.py), or with a property the
method must have.  None compares with a stored copy of earlier output.

Every checker returns a list of problems; an empty list means the
operation's outputs are correct.  Tolerances follow the method's stated
accuracy: the Zellner-Siow quadrature promises a relative error of 1e-8,
so log marginals may differ by 1e-6 (+ 1e-9 relative, for the rounding
of Bayes factors in the tens of thousands); closed-form identities that
the program evaluates with the same floating-point operations get 1e-12.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import expit

import reference as ref

LOG_ATOL, LOG_RTOL = 1e-6, 1e-9
EXACT_RTOL = 1e-12
NEGLIGIBLE = 1e-12      # posterior mass below which a model cannot move any summary
ZS_SAMPLE = 16          # models whose ZS log marginal is checked regardless of mass
FALSE_ALARM = 1e-6      # per calibrate operation
REFERENCE_NSIM = 100_000


def _read_json(path):
    return json.loads(Path(path).read_text())


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, atol, rtol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _meta_problems(record, expect):
    problems = []
    for key, want in expect.items():
        got = record.get(key)
        if isinstance(want, float) and isinstance(got, (int, float)):
            ok = _close(float(got), want, 0.0, EXACT_RTOL)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key} is {got!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def check_select(out, spec):
    """posterior.csv and selection.json against the released matrix D*'D*."""
    out = Path(out)
    sel = _read_json(out / "selection.json")
    p, n, prior = spec["p"], spec["n"], spec["prior"]
    mech = spec["mechanism"]
    problems = _meta_problems(sel, {"n": n, "p": p, "mechanism": mech,
                                    "epsilon": spec["epsilon"], "delta": spec["delta"]})
    if not (math.isfinite(sel["r"]) and sel["r"] >= 0.0 and sel["e_lambda"] > 0.0):
        problems.append(f"repair r={sel['r']} or threshold e_lambda={sel['e_lambda']} invalid")

    d_star = np.loadtxt(out / "synthetic.csv", delimiter=",", skiprows=1, ndmin=2)
    if d_star.shape != (spec["synthetic_n"], p + 1):
        return problems + [f"synthetic.csv has shape {d_star.shape}"]
    g = d_star.T @ d_star
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return problems + ["D*'D* is not positive definite"]

    header, rows = _read_csv(out / "posterior.csv")
    n_models = 1 << p
    if header != ["model", "log_marginal", "posterior"] or len(rows) != n_models:
        return problems + [f"posterior.csv has header {header} and {len(rows)} rows, "
                           f"expected {n_models}"]
    want_names = [format(gm, f"0{p}b")[::-1] for gm in range(n_models)]
    if [r[0] for r in rows] != want_names:
        return problems + ["posterior.csv rows are not the models 0 .. 2^p - 1 in order"]
    log_m = np.array([float(r[1]) for r in rows])
    post = np.array([float(r[2]) for r in rows])
    if abs(post.sum() - 1.0) > 1e-9:
        problems.append(f"posterior sums to {post.sum()!r}")
    if np.max(np.abs(post - ref.softmax(log_m))) > 1e-12 + 1e-9 * post.max():
        problems.append("posterior is not the normalised exp(log_marginal)")

    r2, coef, sizes = ref.submodels_from_gram(g)
    log_prior = ref.hierarchical_log_prior(sizes, p)
    has = sizes > 0
    k = np.maximum(sizes, 1)
    if prior in ("g", "bic"):
        mine = log_prior + np.where(has, ref.log_stat(prior, r2, n, k), 0.0)
        checked = np.ones(n_models, dtype=bool)
        shrink = np.full(n_models, ref.shrinkage(prior, n))
    else:
        # Exact quad for a seeded sample, every model with mass in the
        # program's posterior, and every model whose mass could exceed
        # NEGLIGIBLE by the empirical-Bayes upper bound; the rest are
        # bounded, never assumed.
        bound = log_prior + np.where(has, ref.log_bf_eb_bound(r2, n, k, 1), 0.0)
        mine = np.full(n_models, np.nan)
        shrink = np.full(n_models, 0.5)
        checked = np.zeros(n_models, dtype=bool)
        rng = np.random.default_rng(spec["sample_seed"])
        todo = set(rng.choice(n_models, size=ZS_SAMPLE, replace=False).tolist())
        todo |= set(np.flatnonzero(post >= NEGLIGIBLE).tolist())
        todo.add(0)
        while todo:
            for gm in todo:
                if sizes[gm] == 0:
                    mine[gm], shrink[gm] = log_prior[gm], 0.0
                else:
                    lbf, shrink[gm] = ref.zs_log_bf(r2[gm], n, sizes[gm], 1)
                    mine[gm] = log_prior[gm] + lbf
                checked[gm] = True
            lse = np.logaddexp.reduce(mine[checked])
            todo = set(np.flatnonzero(~checked & (bound - lse >= math.log(NEGLIGIBLE))).tolist())
        if np.any(log_m > bound + LOG_ATOL + LOG_RTOL * np.abs(bound)):
            problems.append("a ZS log marginal exceeds its empirical-Bayes upper bound")
        mine = np.where(checked, mine, bound)
    err = np.abs(log_m - mine)
    bad = checked & (err > LOG_ATOL + LOG_RTOL * np.abs(mine))
    if bad.any():
        gm = int(np.flatnonzero(bad)[0])
        problems.append(f"{int(bad.sum())} log marginals differ from the reference; "
                        f"model {want_names[gm]}: {log_m[gm]!r} vs {mine[gm]!r}")

    # Unchecked models carry at most NEGLIGIBLE mass each in both posteriors;
    # a log-marginal error e moves a posterior mass by a factor of about 1 +- 2e.
    my_post = ref.softmax(mine)
    slack = NEGLIGIBLE * np.count_nonzero(~checked) + 1e-12
    rel = 2.5 * (LOG_ATOL + LOG_RTOL * np.max(np.abs(mine[my_post >= NEGLIGIBLE])))
    if np.any(np.abs(my_post - post) > rel * np.maximum(my_post, post) + slack):
        problems.append("posterior differs from the reference posterior")
    inclusion = my_post @ ref.model_bits(p)
    if np.any(np.abs(np.asarray(sel["inclusion"]) - inclusion) > rel + slack):
        problems.append(f"inclusion {sel['inclusion']} differs from reference {inclusion.tolist()}")
    terms = (my_post * shrink)[:, None] * coef
    beta = terms.sum(axis=0)
    unknown = (my_post * np.where(checked, 0.0, 0.5))[:, None] * np.abs(coef)
    tol = rel * np.abs(terms).sum(axis=0) + unknown.sum(axis=0) + 1e-12
    if np.any(np.abs(np.asarray(sel["beta_avg"]) - beta) > tol):
        problems.append(f"beta_avg {sel['beta_avg']} differs from reference {beta.tolist()}")
    top = str(sel["top_model"])
    top = int(top[::-1], 2) if len(top) == p and set(top) <= {"0", "1"} else -1
    if top < 0 or my_post[top] < my_post.max() * (1.0 - rel) - slack:
        problems.append(f"top_model {sel['top_model']} is not the most probable model")
    return problems


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------

def check_region(out, spec, data=None):
    """Histogram bookkeeping; for --no-noise, the mean against the oracle."""
    out = Path(out)
    rec = _read_json(out / "region.json")
    problems = _meta_problems(rec, {"functional": spec["functional"],
                                    "mechanism": spec["mechanism"]})
    header, rows = _read_csv(out / "histogram.csv")
    if header != ["bin_edge_lo", "bin_edge_hi", "count"] or not rows:
        return problems + [f"histogram.csv has header {header} and {len(rows)} rows"]
    lo = np.array([float(r[0]) for r in rows])
    hi = np.array([float(r[1]) for r in rows])
    counts = np.array([int(r[2]) for r in rows])
    accepted, rejected = rec["accepted"], rec["rejected_non_pd"]
    if counts.sum() != accepted or np.any(counts < 0):
        problems.append(f"histogram counts sum to {counts.sum()}, accepted is {accepted}")
    drawn = 1 if spec["mechanism"] == "none" else spec["nsamples"]
    if accepted + rejected != drawn:
        problems.append(f"accepted {accepted} + rejected_non_pd {rejected} != {drawn}")
    if np.any(lo[1:] != hi[:-1]) or np.any(hi <= lo):
        problems.append("histogram bins are not contiguous and increasing")
    kind, _, j = spec["functional"].partition(":")
    if kind == "inclusion" and (lo[0] != 0.0 or hi[-1] != 1.0):
        problems.append(f"inclusion bins span [{lo[0]}, {hi[-1]}], not [0, 1]")
    mean = rec["mean"]
    nonempty = np.flatnonzero(counts > 0)
    if nonempty.size and not (lo[nonempty[0]] - 1e-12 <= mean <= hi[nonempty[-1]] + 1e-12):
        problems.append(f"mean {mean!r} lies outside the non-empty bins "
                        f"[{lo[nonempty[0]]}, {hi[nonempty[-1]]}]")
    if spec["mechanism"] == "none":
        _, inclusion, beta = ref.oracle_posterior(data["x"], data["y"], spec["prior"])
        want = float((inclusion if kind == "inclusion" else beta)[int(j)])
        if not _close(mean, want, 1e-9, 1e-9):
            problems.append(f"no-noise mean {mean!r} differs from the least-squares "
                            f"oracle {want!r}")
    return problems


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_METHODS = ("O", "LM", "LMT", "WM", "WMT")


def check_simulate(out, spec):
    """mse_table.csv bookkeeping and sim_summary.json means."""
    out = Path(out)
    header, rows = _read_csv(out / "mse_table.csv")
    want_header = ["snr", "epsilon", "replication", "method", "mse", "mse_full",
                   "relative_mse", "inclusion_l2"]
    if header != want_header:
        return [f"mse_table.csv header is {header}"]
    problems = []
    n_rows = spec["n_datasets"] * len(SIM_METHODS)
    if len(rows) != n_rows:
        problems.append(f"mse_table.csv has {len(rows)} rows, expected {n_rows}")
    by_method = {m: [] for m in SIM_METHODS}
    seen = set()
    for row in rows:
        snr, eps, rep, method = float(row[0]), float(row[1]), int(row[2]), row[3]
        mse, mse_full, rel, incl = (float(v) for v in row[4:8])
        seen.add((rep, method))
        if method not in by_method or not 0 <= rep < spec["n_datasets"]:
            problems.append(f"unexpected row for replication {rep}, method {method!r}")
            continue
        by_method[method].append(mse)
        if snr != spec["snr"] or eps != spec["epsilon"]:
            problems.append(f"row ({rep}, {method}) has snr {snr}, epsilon {eps}")
        if not all(math.isfinite(v) for v in (mse, mse_full, rel, incl)):
            problems.append(f"row ({rep}, {method}) has a non-finite value")
            continue
        if mse < 0.0 or mse_full < 0.0 or not 0.0 <= incl <= 1.0:
            problems.append(f"row ({rep}, {method}): mse {mse}, mse_full {mse_full}, "
                            f"inclusion_l2 {incl} out of range")
        want_rel = (mse_full - mse) / mse_full if mse_full > 0 else 0.0
        if not _close(rel, want_rel, 1e-15, EXACT_RTOL):
            problems.append(f"row ({rep}, {method}): relative_mse {rel!r}, "
                            f"recomputed {want_rel!r}")
        if method == "O" and incl != 0.0:
            problems.append(f"oracle row {rep} has inclusion_l2 {incl}")
    if len(seen) != len(rows):
        problems.append("duplicate (replication, method) rows")
    summary = _read_json(out / "sim_summary.json")["cells"]
    for method, values in by_method.items():
        if values and not _close(summary.get(method, math.nan), float(np.mean(values)),
                                 0.0, EXACT_RTOL):
            problems.append(f"sim_summary mean for {method} is {summary.get(method)!r}, "
                            f"table mean {float(np.mean(values))!r}")
    return problems


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------

def check_test(out, spec, data=None):
    """test_result.json identities; the --M 1 --no-noise value against the
    full-data statistic by least squares."""
    rec = _read_json(Path(out) / "test_result.json")
    mech = "laplace" if spec["delta"] == 0.0 else "gaussian"
    problems = _meta_problems(rec, {"M": spec["M"], "L": spec["L"], "U": spec["U"],
                                    "mechanism": mech, "delta": spec["delta"]})
    log_b, p0 = rec["log_bstar"], rec["p_h0"]
    if not _close(p0 + rec["p_h1"], 1.0, 1e-12):
        problems.append(f"p_h0 + p_h1 = {p0 + rec['p_h1']!r}")
    pi0 = rec["config"]["pi0"]
    want = float(expit(-(log_b + math.log((1.0 - pi0) / pi0))))
    if not _close(p0, want, 1e-15, EXACT_RTOL):
        problems.append(f"p_h0 {p0!r} is not the logistic posterior {want!r}")
    if rec["log_bstar_censored"] != min(max(log_b, spec["L"]), spec["U"]):
        problems.append(f"log_bstar_censored {rec['log_bstar_censored']!r} is not "
                        f"log_bstar {log_b!r} clipped to [{spec['L']}, {spec['U']}]")
    if rec["private"] == spec["oracle"] or ("per_subset_logs" in rec) != spec["oracle"]:
        problems.append("private flag or per-subset statistics do not match the mode")
    if spec["oracle"]:
        y, x0, x = data["y"], data["x0"], data["x"]
        r2 = ref.block_r_squared(y, x0, x)
        n, k, q = y.shape[0], x.shape[1], x0.shape[1] + 1
        if spec["prior"] == "zs":
            want = ref.zs_log_bf(r2, n, k, q, with_shrinkage=False)[0]
        elif spec["prior"] == "g":
            want = float(ref.log_bf_fixed_g(r2, n, k, q, float(n)))
        else:
            want = float(ref.log_bic(r2, n, k))
        if not _close(log_b, want, LOG_ATOL, LOG_RTOL):
            problems.append(f"--M 1 --no-noise statistic {log_b!r} differs from the "
                            f"full-data reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def check_calibrate(out, spec, rng):
    """Critical value, quantile table and p-value against a numpy null.

    Both samples are iid from the same law under a correct program, so by
    the DKW inequality each empirical CDF is within eps of the truth with
    probability >= 1 - FALSE_ALARM/2; a quantile q of the program's sample
    must then sit where the reference CDF is within 2 eps (+ one order
    statistic) of q.  ``table_err`` widens the comparison by the largest
    error of the reference's per-subset statistic.
    """
    out = Path(out)
    rec = _read_json(out / "calibration.json")
    problems = _meta_problems(rec, {"statistic": spec["statistic"], "nsim": spec["nsim"],
                                    "alpha": spec["alpha"]})
    header, rows = _read_csv(out / "null_quantiles.csv")
    if header != ["prob", "value"] or not rows:
        return problems + [f"null_quantiles.csv has header {header}"]
    quantiles = [(float(a), float(b)) for a, b in rows]
    sample, table_err = ref.simulate_null(spec, REFERENCE_NSIM, rng)
    n_prog = spec["nsim"]
    tol = (ref.dkw_epsilon(n_prog, FALSE_ALARM / 2) + ref.dkw_epsilon(sample.size, FALSE_ALARM / 2)
           + 1.0 / n_prog)

    def cdf_interval(v):
        lo = np.searchsorted(sample, v - table_err, side="left") / sample.size
        hi = np.searchsorted(sample, v + table_err, side="right") / sample.size
        return lo, hi

    for q, v in quantiles + [(1.0 - spec["alpha"], rec["critical_value"])]:
        below, upto = cdf_interval(v)
        if upto < q - tol or below > q + tol:
            problems.append(f"quantile {q} = {v!r}: reference CDF in [{below:.5f}, {upto:.5f}], "
                            f"outside {q} +- {tol:.5f}")
    if "observed" in spec:
        below, upto = cdf_interval(spec["observed"])
        lo_p, hi_p = 1.0 - upto, 1.0 - below
        pv = rec.get("p_value", math.nan)
        if not (lo_p - tol - 1.0 / n_prog <= pv <= hi_p + tol + 1.0 / n_prog):
            problems.append(f"p_value {pv!r} outside the reference [{lo_p:.5f}, {hi_p:.5f}] "
                            f"+- {tol:.5f}")
    return problems


def check_op(op, data, rng):
    """Dispatch on the operation kind; returns the list of problems."""
    kind, out, spec = op["kind"], op["out"], op["check"]
    try:
        if kind == "select":
            return check_select(out, spec)
        if kind == "region":
            return check_region(out, spec, data)
        if kind == "simulate":
            return check_simulate(out, spec)
        if kind == "test":
            return check_test(out, spec, data)
        if kind == "calibrate":
            return check_calibrate(out, spec, rng)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable or malformed artifact: {type(exc).__name__}: {exc}"]
    return [f"no checker for operation kind {kind!r}"]
