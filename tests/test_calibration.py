"""Simulated nulls, critical values, p-values, and Beta tail bounds."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln

from dpms.calibration import (
    EmpiricalNull,
    NullSimConfig,
    beta_tail_bound,
    critical_value,
    p_value,
    quantile_table,
    simulate_null_bf,
    simulate_null_lrt,
    simulate_null_pvalue,
)
from dpms.errors import ConfigError, DataError, InsufficientSimulationsError
from dpms.linmodel import GPriorSpec, InfoCriterionSpec, log_info_criterion
from dpms.mechanisms import PrivacyBudget
from dpms.split_aggregate import CensorBounds

WIDE = CensorBounds(-1e12, 1e12)  # effectively uncensored


def _null(samples):
    return EmpiricalNull(np.sort(np.asarray(samples, dtype=float)))


class TestCriticalValue:
    def test_rank_arithmetic(self):
        assert critical_value(_null(np.arange(1, 101)), 0.05) == 96.0

    def test_median_on_odd_symmetric_sample(self):
        assert critical_value(_null(np.arange(1, 102)), 0.5) == 51.0

    def test_insufficient_simulations(self):
        with pytest.raises(InsufficientSimulationsError):
            critical_value(_null(np.arange(10)), 0.05)

    def test_nonincreasing_in_alpha(self):
        null = _null(np.random.default_rng(0).standard_normal(10_000))
        alphas = [0.01, 0.05, 0.1, 0.25, 0.5]
        cvs = [critical_value(null, a) for a in alphas]
        assert all(a >= b for a, b in zip(cvs, cvs[1:]))

    def test_chi2_null_recovers_textbook_cutoff(self):
        cfg = NullSimConfig(M=1, bounds=WIDE, budget=PrivacyBudget(1.0),
                            nsim=1_000_000, df=1)
        null = simulate_null_lrt(cfg, np.random.default_rng(10), with_noise=False)
        assert critical_value(null, 0.05) == pytest.approx(3.841, abs=0.05)


class TestPchip:
    """The numpy PCHIP against scipy's, which it reproduces bit for bit, on
    evenly spaced knots: at and between them, a float either side of each,
    and beyond both ends."""

    @pytest.mark.parametrize("y", [
        np.zeros(12),                                           # flat
        np.r_[np.zeros(4), np.ones(4), np.zeros(4)],            # flat runs, steps
        np.sin(np.linspace(0.0, 9.0, 40)),                      # sign-changing slopes
        np.cumsum(np.random.default_rng(1).standard_normal(60)),
        np.array([0.0, 1.0, 0.5]),                              # three knots
    ], ids=["flat", "steps", "sine", "walk", "three"])
    def test_bitwise_equal_to_scipy(self, y):
        from scipy.interpolate import PchipInterpolator

        from dpms.calibration import _Pchip

        x = np.linspace(-1.5, 10.0, y.size)
        v = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), np.nextafter(x, -np.inf),
                            np.nextafter(x, np.inf), [x[0] - 3.0, x[-1] + 3.0],
                            np.random.default_rng(2).uniform(-2.0, 12.0, 20_000)])
        np.testing.assert_array_equal(_Pchip(x[0], x[-1], y)(v), PchipInterpolator(x, y)(v))


class TestPValue:
    def test_below_all_samples(self):
        null = _null(np.arange(1, 1001))
        assert p_value(null, -5.0) == pytest.approx(1.0, abs=1e-3)

    def test_above_all_samples(self):
        null = _null(np.arange(1, 1001))
        assert p_value(null, 1e9) == pytest.approx(1.0 / 1001.0)

    def test_at_median(self):
        rng = np.random.default_rng(1)
        null = _null(rng.standard_normal(100_000))
        med = float(np.median(null.sorted_samples))
        assert p_value(null, med) == pytest.approx(0.5, abs=1.0 / math.sqrt(100_000) * 3)

    def test_nan_observed_is_a_config_error(self):
        # A NaN compares false with every sample, which would read as the
        # most significant value there is.
        with pytest.raises(ConfigError, match="nan"):
            p_value(_null(np.arange(1, 1001)), math.nan)

    def test_consistent_with_critical_value(self):
        null = _null(np.random.default_rng(2).standard_normal(50_000))
        for alpha in (0.01, 0.05, 0.2):
            assert p_value(null, critical_value(null, alpha)) <= alpha + 1.0 / null.nsim


class TestSimulateNullLrt:
    def test_requires_df(self):
        cfg = NullSimConfig(M=2, bounds=WIDE, budget=PrivacyBudget(1.0), nsim=10)
        with pytest.raises(ConfigError):
            simulate_null_lrt(cfg, np.random.default_rng(0))

    def test_censoring_collapse(self):
        bounds = CensorBounds(0.0, 1e-9)
        cfg = NullSimConfig(M=5, bounds=bounds, budget=PrivacyBudget(1e6),
                            nsim=2000, df=1)
        null = simulate_null_lrt(cfg, np.random.default_rng(3))
        assert np.all(np.abs(null.sorted_samples) < 1e-3)

    def test_reference_calibrated_cutoff_exceeds_uncalibrated(self):
        # Small M with a Gaussian error inflates the null, so the simulated
        # 0.05 cutoff must exceed the 3.841 chi-squared value.
        cfg = NullSimConfig(M=2, bounds=CensorBounds(0.0, 7.0),
                            budget=PrivacyBudget(1.0, 0.25), nsim=100_000, df=1)
        null = simulate_null_lrt(cfg, np.random.default_rng(4))
        assert critical_value(null, 0.05) > 3.841

    def test_statistic_respects_doubled_bounds(self):
        bounds = CensorBounds(0.0, 7.0)
        cfg = NullSimConfig(M=3, bounds=bounds, budget=PrivacyBudget(0.5, 0.1),
                            nsim=5000, df=2)
        null = simulate_null_lrt(cfg, np.random.default_rng(5))
        assert null.sorted_samples.min() >= 0.0
        assert null.sorted_samples.max() <= 14.0


class TestSimulateNullBf:
    def test_beta_sampler_mean(self):
        rng = np.random.default_rng(6)
        draws = rng.beta(1.0, 49.5, size=1_000_000)
        se = math.sqrt(draws.var() / draws.size)
        assert draws.mean() == pytest.approx(1.0 / 50.5, abs=3 * se)

    def test_median_matches_transformed_beta_median(self):
        n = 120
        cfg = NullSimConfig(M=1, bounds=WIDE, budget=PrivacyBudget(1.0),
                            nsim=200_000, subset_sizes=(n,))
        null = simulate_null_bf(cfg, InfoCriterionSpec.bic(), p=2, p0=1,
                                rng=np.random.default_rng(7), with_noise=False)
        beta_med = stats.beta.median(1.0, (n - 3) / 2.0)
        want = log_info_criterion(float(beta_med), n, 2, InfoCriterionSpec.bic())
        got = float(np.median(null.sorted_samples))
        assert got == pytest.approx(want, abs=0.02)

    def test_degenerate_bounds_point_mass(self):
        bounds = CensorBounds(0.5, 0.5 + 1e-9)
        cfg = NullSimConfig(M=4, bounds=bounds, budget=PrivacyBudget(1.0),
                            nsim=1000, subset_sizes=(50, 50, 50, 50))
        null = simulate_null_bf(cfg, GPriorSpec.sample_size(), p=1, p0=1,
                                rng=np.random.default_rng(8), with_noise=False)
        np.testing.assert_allclose(null.sorted_samples, 0.5, atol=1e-8)

    def test_zellner_siow_interpolation_matches_direct(self):
        from dpms.calibration import _zs_interpolator
        from dpms.linmodel import log_bayes_factor

        interp = _zs_interpolator(80, 2, 1)
        for r2 in (0.01, 0.2, 0.55, 0.9):
            direct = log_bayes_factor(r2, 80, 2, 1, GPriorSpec.zellner_siow())
            assert float(interp(np.log1p(-np.array([r2])))[0]) == pytest.approx(direct, abs=1e-6)

    def test_zs_interpolator_is_scipy_pchip_bitwise(self):
        from scipy.interpolate import PchipInterpolator

        from dpms.calibration import _zs_interpolator
        from dpms.linmodel import log_stat

        interp = _zs_interpolator(80, 2, 1)
        t = np.linspace(math.log(1e-12), 0.0, 2000)
        ref = PchipInterpolator(t, log_stat(-np.expm1(t), 80, 2, 1, GPriorSpec.zellner_siow())[0])
        beyond = [t[0] - 10.0, t[0] - 1e-9, 1e-9, 2.0, np.nextafter(0.0, 1.0)]
        v = np.concatenate([t, 0.5 * (t[1:] + t[:-1]), np.nextafter(t, -np.inf),
                            np.nextafter(t, np.inf), beyond,
                            np.random.default_rng(0).uniform(-35.0, 1.0, 20_000)])
        np.testing.assert_array_equal(interp(v), ref(v))
        assert interp(v[:15].reshape(5, 3)).shape == (5, 3)

    def test_subset_sizes_required(self):
        cfg = NullSimConfig(M=2, bounds=WIDE, budget=PrivacyBudget(1.0), nsim=10)
        with pytest.raises(ConfigError):
            simulate_null_bf(cfg, InfoCriterionSpec.bic(), p=1, p0=1,
                             rng=np.random.default_rng(0))


class TestSimulateNullPvalue:
    def test_identity_transform_is_uniform(self):
        cfg = NullSimConfig(M=1, bounds=CensorBounds(0.0, 1.0),
                            budget=PrivacyBudget(1.0), nsim=1_000_000)
        null = simulate_null_pvalue(cfg, np.random.default_rng(9), with_noise=False)
        ranks = np.arange(1, null.nsim + 1) / null.nsim
        assert np.max(np.abs(null.sorted_samples - ranks)) < 0.005

    def test_large_m_concentrates(self):
        cfg = NullSimConfig(M=400, bounds=CensorBounds(0.0, 1.0),
                            budget=PrivacyBudget(1.0), nsim=5000)
        null = simulate_null_pvalue(cfg, np.random.default_rng(10), with_noise=False)
        assert null.sorted_samples.std() < 0.03
        assert null.sorted_samples.mean() == pytest.approx(0.5, abs=0.01)

    def test_reproducible_given_seed(self):
        cfg = NullSimConfig(M=3, bounds=CensorBounds(0.0, 1.0),
                            budget=PrivacyBudget(1.0), nsim=1000)
        a = simulate_null_pvalue(cfg, np.random.default_rng(11))
        b = simulate_null_pvalue(cfg, np.random.default_rng(11))
        assert np.array_equal(a.sorted_samples, b.sorted_samples)


class TestBetaTailBound:
    def test_p2_closed_form_cancellation(self):
        # B(1, 48.5) = 1/48.5 makes the bound collapse to (1-k)^{48.5}.
        got = beta_tail_bound(0.5, b=100, p=2, p0=1)
        assert got == pytest.approx(0.5**48.5, rel=1e-10)
        assert got == pytest.approx(2.37e-15, rel=1e-2)

    def test_small_k_limit_is_finite(self):
        b, p, p0 = 60, 3, 1
        got = beta_tail_bound(1e-12, b=b, p=p, p0=p0)
        limit = 2.0 / ((b - p - p0) * math.exp(betaln(p / 2, (b - p - p0) / 2)))
        assert got == pytest.approx(limit, rel=1e-6)

    def test_monte_carlo_tail_never_exceeds_bound(self):
        rng = np.random.default_rng(12)
        b, p, p0, k = 30, 2, 1, 0.3
        draws = rng.beta(p / 2, (b - p - p0) / 2, size=2_000_000)
        tail = float(np.mean(draws > k))
        assert tail <= beta_tail_bound(k, b=b, p=p, p0=p0)

    def test_p1_branch_bounds_tail(self):
        rng = np.random.default_rng(13)
        b, p0, k = 40, 1, 0.2
        draws = rng.beta(0.5, (b - 2) / 2, size=2_000_000)
        tail = float(np.mean(draws > k))
        assert tail <= beta_tail_bound(k, b=b, p=1, p0=p0)

    def test_domain_validation(self):
        with pytest.raises(DataError):
            beta_tail_bound(0.0, b=30, p=2, p0=1)
        with pytest.raises(DataError):
            beta_tail_bound(0.5, b=5, p=2, p0=1)


def test_quantile_table_shape():
    null = _null(np.arange(1000))
    table = quantile_table(null)
    assert [q for q, _ in table] == [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
    values = [v for _, v in table]
    assert values == sorted(values)
