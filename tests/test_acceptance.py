"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a single summary line with the measured quantities so a
verbose run doubles as the acceptance report.  Criteria are numbered; the
runtime budgets from the release checklist are asserted where stated.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dpms.calibration import (
    NullSimConfig,
    beta_tail_bound,
    critical_value,
    simulate_null_lrt,
)
from dpms.gram import (
    build_gram,
    enumerate_posterior,
    model_prior_log,
    pd_repair,
    privatize_gram,
)
from dpms.harness import (
    DP_METHODS,
    mse_study_cell,
    prop1_rejection_fractions,
    prop2_median_posteriors,
)
from dpms.io import hsb2_path, ingest_csv
from dpms.linmodel import (
    CenteredData,
    GPriorSpec,
    InfoCriterionSpec,
    log_bayes_factor,
    reparametrize,
)
from dpms.mechanisms import (
    PrivacyBudget,
    Sensitivity,
    analytic_gaussian_sigma,
    child_rng,
    gram_law,
    wishart_dof,
    wishart_gram_error,
)
from dpms.mechanisms import _gaussian_delta
from dpms.datagen import SimStudyConfig
from dpms.regions import Functional, RegionConfig, map_functional, region_contains, sample_region
from dpms.split_aggregate import (
    CensorBounds,
    aggregate_private,
    censor,
    default_bounds,
    make_split,
    per_subset_log_stats,
    posterior_probability,
)

SPLIT_SEED = 1  # pinned split for the fixture-based private anchors


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def _gender_test_data():
    return ingest_csv(hsb2_path(), "math", (), ("gender",))


def _read_given_science_data():
    return ingest_csv(hsb2_path(), "math", ("science",), ("read",))


def test_c01_hsb2_nonprivate_anchors():
    t0 = time.perf_counter()
    bounds = default_bounds()
    budget = PrivacyBudget(1.0)
    results = {}
    for name, data in (("H11", _gender_test_data()), ("H12", _read_given_science_data())):
        plan = make_split(data.n, 1, data.p + data.p0 + 1, SPLIT_SEED)
        logs = per_subset_log_stats(data, plan, GPriorSpec.sample_size())
        res = aggregate_private(logs, bounds, budget, child_rng(0, 0), with_noise=False)
        results[name] = 1.0 - res.posterior_h0(0.5)
    elapsed = time.perf_counter() - t0
    assert results["H11"] == pytest.approx(0.07, abs=0.02)
    assert results["H12"] == pytest.approx(0.99, abs=0.01)
    assert elapsed < 1.0
    _report("criterion 1", f"P(H11|D)={results['H11']:.4f}, "
                           f"P(H12|D)={results['H12']:.4f}, {elapsed:.2f}s")


def test_c02_hsb2_private_anchors():
    t0 = time.perf_counter()
    bounds = default_bounds()
    epsilon, M, n_draws = 10.0, 10, 100_000
    scale = (bounds.U - bounds.L) / (M * epsilon)
    medians = {}
    for name, data in (("H11", _gender_test_data()), ("H12", _read_given_science_data())):
        plan = make_split(data.n, M, data.p + data.p0 + 1, SPLIT_SEED)
        logs = censor(per_subset_log_stats(data, plan, GPriorSpec.sample_size()), bounds)
        noise = child_rng(SPLIT_SEED, 2).laplace(0.0, scale, size=n_draws)
        log_bstar = logs.mean() + noise
        p_h1 = 1.0 - 1.0 / (1.0 + np.exp(log_bstar))
        medians[name] = float(np.median(p_h1))
    elapsed = time.perf_counter() - t0
    assert medians["H11"] == pytest.approx(0.25, abs=0.07)
    assert medians["H12"] == pytest.approx(0.70, abs=0.07)
    assert elapsed < 30.0
    _report("criterion 2", f"median P*(H11|D)={medians['H11']:.3f}, "
                           f"median P*(H12|D)={medians['H12']:.3f}, {elapsed:.1f}s")


def test_c03_reciprocal_symmetry():
    data = _read_given_science_data()
    bounds = default_bounds()
    plan = make_split(data.n, 10, data.p + data.p0 + 1, SPLIT_SEED)
    logs = per_subset_log_stats(data, plan, GPriorSpec.sample_size())
    budget = PrivacyBudget(1.0)
    fwd = aggregate_private(logs, bounds, budget, child_rng(0, 0), with_noise=False)
    rev = aggregate_private(-logs, bounds.reflected(), budget, child_rng(0, 0),
                            with_noise=False)
    assert rev.log_bstar == -fwd.log_bstar  # bit-exact antisymmetry

    mean_fwd = float(np.mean(censor(logs, bounds)))
    scale = bounds.width / (10 * budget.epsilon)
    rng = child_rng(9, 0)
    log_b01 = -mean_fwd + rng.laplace(0.0, scale, size=100_000)
    log_inv_b10 = -(mean_fwd + rng.laplace(0.0, scale, size=100_000))
    ks = stats.ks_2samp(np.exp(log_b01), np.exp(log_inv_b10))
    assert ks.pvalue > 0.01
    _report("criterion 3", f"zero-noise antisymmetry exact; KS p={ks.pvalue:.3f}")


def test_c04_analytic_gaussian_calibration():
    t0 = time.perf_counter()
    eps_grid = np.geomspace(0.05, 10.0, 10)
    delta_grid = np.geomspace(1e-10, 0.5, 10)
    worst = 0.0
    for eps in eps_grid:
        for delta in delta_grid:
            budget = PrivacyBudget(float(eps), float(delta))
            sigma = analytic_gaussian_sigma(budget, 1.0)
            worst = max(worst, abs(_gaussian_delta(sigma, float(eps), 1.0) - delta))
            if eps <= 1.0:
                # The classical sigma, sqrt(2 log(1.25/delta)) l2/epsilon, at l2 = 1.
                assert sigma <= math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    _report("criterion 4", f"max delta residual {worst:.2e} over 100 cells, "
                           f"{elapsed:.2f}s")


def test_c05_wishart_mechanism_sanity():
    t0 = time.perf_counter()
    assert wishart_dof(9, PrivacyBudget(1.0, math.exp(-10.0))) == 328
    budget = PrivacyBudget(1.0, math.exp(-10.0))
    k = wishart_dof(2, budget)
    rng = child_rng(5, 0)
    total = np.zeros((3, 3))
    n_draws = 10_000
    for _ in range(n_draws):
        total += wishart_gram_error(2, budget, 1.0, rng)
    mean = total / n_draws
    se = np.sqrt(k * (1.0 + np.eye(3)) / n_draws)
    elapsed = time.perf_counter() - t0
    assert np.all(np.abs(mean) <= 3 * se)
    assert elapsed < 60.0
    _report("criterion 5", f"k=328; max |mean|/SE = {np.max(np.abs(mean) / se):.2f} "
                           f"over {n_draws} draws, {elapsed:.1f}s")


def test_c06_zero_noise_oracle_equivalence():
    t0 = time.perf_counter()
    master = child_rng(606, 0)
    worst = 0.0
    for case in range(50):
        rng = child_rng(606, case + 1)
        p = int(master.integers(1, 9))
        n = 500
        x = rng.standard_normal((n, p))
        beta = np.where(rng.uniform(size=p) < 0.5, rng.normal(0.0, 0.5, p), 0.0)
        y = x @ beta + rng.standard_normal(n)
        from dpms.linmodel import RegressionData

        data = RegressionData(y=y, x0=np.ones((n, 1)), x=x)
        c = reparametrize(data)
        chain = pd_repair(build_gram(c), r=0.0)
        stat = GPriorSpec.sample_size()
        post = enumerate_posterior(chain.g, stat, n=chain.n)

        logs = np.empty(1 << p)
        beta_want = np.zeros(p)
        for gamma in range(1 << p):
            idx = [j for j in range(p) if gamma >> j & 1]
            if idx:
                vg = c.v[:, idx]
                coef = np.linalg.lstsq(vg, c.z, rcond=None)[0]
                r2 = float(c.z @ vg @ coef / (c.z @ c.z))
                lb = log_bayes_factor(r2, n, len(idx), 1, stat)
            else:
                lb = 0.0
            logs[gamma] = model_prior_log(gamma, p, "hierarchical") + lb
        w = np.exp(logs - logs.max())
        w /= w.sum()
        incl_want = np.array([w[[g for g in range(1 << p) if g >> j & 1]].sum()
                              for j in range(p)])
        for gamma in range(1, 1 << p):
            idx = [j for j in range(p) if gamma >> j & 1]
            vg = c.v[:, idx]
            coef = np.linalg.lstsq(vg, c.z, rcond=None)[0]
            beta_want[idx] += w[gamma] * (n / (n + 1.0)) * coef
        worst = max(
            worst,
            float(np.abs(post.posterior - w).max()),
            float(np.abs(post.inclusion - incl_want).max()),
            float(np.abs(post.beta_avg - beta_want).max()),
        )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 60.0
    _report("criterion 6", f"max |pipeline - oracle| = {worst:.2e} over 50 "
                           f"instances, {elapsed:.1f}s")


def test_c07_prop1_consistency_desk_scale():
    t0 = time.perf_counter()
    ns = (2000, 8000, 32000)
    summary = []
    for stat_name, stat in (("bic", InfoCriterionSpec.bic()),
                            ("g=b", GPriorSpec.sample_size())):
        for alt in (False, True):
            fr = [prop1_rejection_fractions(n, stat, alt, 200, seed=100) for n in ns]
            label = "H1" if alt else "H0"
            assert all(a <= b for a, b in zip(fr, fr[1:])), (stat_name, label, fr)
            assert fr[-1] >= 0.95, (stat_name, label, fr)
            summary.append(f"{stat_name}/{label}={fr}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("criterion 7", "; ".join(summary) + f", {elapsed:.0f}s")


def test_c08a_prop2_consistency_trend():
    t0 = time.perf_counter()
    medians = []
    for n in (2000, 10_000, 50_000):
        dp, _ = prop2_median_posteriors(n, 100, seed=2024, beta_magnitude=0.4)
        medians.append(dp)
    elapsed = time.perf_counter() - t0
    assert medians[0] < medians[1] < medians[2], medians
    assert elapsed < 900.0
    _report("criterion 8 (trend)",
            f"median DP posterior(true) = {[f'{m:.4g}' for m in medians]}, "
            f"{elapsed:.0f}s")


def test_c08b_prop2_oracle_anchor():
    # Posterior mass of the true model is capped at 1/(1 + 3 n^{-1/2}) when
    # three superset models exist: each contributes prior-ratio 1 times
    # n^{-1/2} e^{LRT/2} with LRT >= 0, so at n = 50,000 no dataset can
    # exceed 0.9868 under the implemented priors.  The stated > 0.99 anchor
    # is asserted as written.
    _, oracle = prop2_median_posteriors(50_000, 100, seed=2024, beta_magnitude=0.4)
    assert oracle > 0.99, (
        f"median oracle posterior of the true model is {oracle:.4f}; "
        f"the theoretical ceiling at n=50,000 with p=5, |T|=2 is "
        f"{1.0 / (1.0 + 3.0 / math.sqrt(50_000)):.4f}"
    )


def test_c09_calibration_validity():
    t0 = time.perf_counter()
    bounds = CensorBounds(0.0, 7.0)

    def null_for(M, delta, nsim, stream):
        cfg = NullSimConfig(M=M, bounds=bounds, budget=PrivacyBudget(1.0, delta),
                            nsim=nsim, df=1)
        return simulate_null_lrt(cfg, stream)

    null = null_for(5, 0.25, 100_000, child_rng(31, 0))
    cv = critical_value(null, 0.05)
    fresh = null_for(5, 0.25, 10_000, child_rng(32, 0)).sorted_samples
    rate = float(np.mean(fresh > cv))
    assert rate == pytest.approx(0.05, abs=0.007)

    uncal_rates = {}
    for M, delta in ((5, 0.25), (2, 0.25), (5, 0.05), (2, 0.05)):
        draws = null_for(M, delta, 10_000, child_rng(33, M)).sorted_samples
        uncal_rates[(M, delta)] = float(np.mean(draws > 3.841))
    assert any(r < 0.043 or r > 0.057 for r in uncal_rates.values()), uncal_rates
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("criterion 9", f"calibrated type-I={rate:.4f} (cv={cv:.3f}); "
                           f"uncalibrated rates={ {k: round(v, 3) for k, v in uncal_rates.items()} }, "
                           f"{elapsed:.0f}s")


def test_c10_beta_tail_bounds_grid():
    t0 = time.perf_counter()
    rng = child_rng(1010, 0)
    n_draws = 10_000_000
    violations = 0
    checked = 0
    for p in (1, 2, 5):
        for b in (30, 100, 1000):
            for k in (0.1, 0.3, 0.5):
                p0 = 1
                if b <= p0 + p + 2:
                    continue
                bound = beta_tail_bound(k, b=b, p=p, p0=p0)
                tail = 0
                remaining = n_draws
                while remaining > 0:
                    chunk = min(remaining, 2_000_000)
                    draws = rng.beta(p / 2.0, (b - p - p0) / 2.0, size=chunk)
                    tail += int(np.count_nonzero(draws > k))
                    remaining -= chunk
                phat = tail / n_draws
                se = math.sqrt(max(phat * (1 - phat), 1e-300) / n_draws)
                checked += 1
                if phat > bound + 3 * se:
                    violations += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 27
    assert violations == 0
    assert elapsed < 120.0
    _report("criterion 10", f"0 violations across {checked} cases "
                            f"(1e7 draws each), {elapsed:.0f}s")


def test_c11_scaled_mse_trend_replication():
    t0 = time.perf_counter()
    table = {}
    for snr in (0.2, 1.0):
        for eps in (0.1, 1.0):
            cfg = SimStudyConfig(p=6, n=10_000, snr=snr, n_active=3,
                                 n_datasets=100, seed=515)
            recs, _ = mse_study_cell(cfg, eps)
            cell = {}
            for method in ("O",) + DP_METHODS:
                cell[method] = float(np.mean([r.mse for r in recs
                                              if r.method == method]))
            table[(snr, eps)] = cell
    for cell, means in table.items():
        for method in DP_METHODS:
            assert means["O"] <= means[method], (cell, method, means)
    for snr in (0.2, 1.0):
        for method in DP_METHODS:
            assert table[(snr, 1.0)][method] <= table[(snr, 0.1)][method], (
                snr, method, table[(snr, 1.0)][method], table[(snr, 0.1)][method]
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    _report("criterion 11",
            f"oracle <= DP in all 4 cells; MSE decreases with epsilon "
            f"for all methods; {elapsed:.0f}s")


def test_c12_confidence_region_coverage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    n, p = 400, 3
    v = rng.uniform(-0.5, 0.5, size=(n, p))
    v -= v.mean(axis=0)
    z = v @ np.array([0.4, -0.3, 0.0]) + 0.1 * rng.standard_normal(n)
    z -= z.mean()
    gram = build_gram(CenteredData(z=z, v=v))
    cfg = RegionConfig(alpha=0.05, nsamples=1000)

    law = gram_law(p, PrivacyBudget(1.0), Sensitivity(l1=0.5), 303)
    hits = 0
    for i in range(500):
        chain = privatize_gram(gram, law, child_rng(303, i))
        hits += region_contains(chain, gram.g, cfg)
    coverage = hits / 500
    assert coverage >= 0.93

    chain = privatize_gram(gram, law, child_rng(303, 0))
    samples = sample_region(chain, cfg, child_rng(304, 0))
    stat = InfoCriterionSpec.bic()
    means = []
    for j in range(p):
        hist = map_functional(samples, Functional.inclusion(j), stat)
        assert 0.0 <= hist.mean <= 1.0
        means.append(hist.mean)

    oracle_samples = sample_region(gram, cfg, child_rng(305, 0))
    oracle_post = enumerate_posterior(gram.g, stat, n=gram.n)
    hist0 = map_functional(oracle_samples, Functional.inclusion(0), stat)
    assert hist0.mean == pytest.approx(float(oracle_post.inclusion[0]), abs=1e-10)
    assert hist0.samples.max() - hist0.samples.min() == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    _report("criterion 12", f"coverage={coverage:.3f} over 500 runs; hLM "
                            f"inclusions={[f'{m:.3f}' for m in means]}; "
                            f"zero-noise collapse exact; {elapsed:.0f}s")
