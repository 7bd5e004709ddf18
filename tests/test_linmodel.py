"""Reparametrization, R^2, Bayes factors, and information criteria."""

import math
import warnings

import numpy as np
import pytest

from dpms import linmodel
from dpms.errors import DataError, DegenerateResponseError, NumericError, RankError
from dpms.gram import build_gram
from dpms.linmodel import (
    TOO_FEW_ROWS,
    UNUSABLE,
    CenteredData,
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    log_bayes_factor,
    log_info_criterion,
    log_stat,
    r_squared,
    reparametrize,
    zs_shrinkage,
)
from dpms.linmodel import _zs_quadrature
from dpms.split_aggregate import SplitPlan, per_subset_log_stats


def brute_force_zs_log_bf(r2, n, p, p0, npts=1_000_000):
    """Trapezoid integration on u = g/(1+g), independent of the library path."""
    u = np.linspace(1e-12, 1 - 1e-12, npts)
    g = u / (1 - u)
    ell = (0.5 * (n - p - p0) * np.log1p(g)
           - 0.5 * (n - p0) * np.log1p(g * (1 - r2))
           + 0.5 * np.log(n / (2 * np.pi))
           - 1.5 * np.log(g) - 0.5 * n / g
           + 2 * np.log1p(g))
    m = ell.max()
    return m + np.log(np.trapezoid(np.exp(ell - m), u))


def quad_zs(r2, n, k, p0):
    """Zellner-Siow log integral and shrinkage by scipy.integrate.quad in
    s = log g, over the span where the integrand is within e^-60 of its
    peak on a fine grid."""
    from scipy.integrate import quad

    def ell(s):
        g = np.exp(s)
        return (0.5 * (n - k - p0) * np.log1p(g) - 0.5 * (n - p0) * np.log1p(g * (1 - r2))
                + 0.5 * np.log(n / (2 * np.pi)) - 0.5 * s - 0.5 * n * np.exp(-s))

    grid = np.linspace(-40.0, 80.0, 240_001)
    vals = ell(grid)
    peak = vals.max()
    inside = grid[vals >= peak - 60.0]
    lo, hi = inside[0] - 1.0, inside[-1] + 1.0
    mode = grid[vals.argmax()]
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=500, points=[mode])
    mass = quad(lambda s: np.exp(ell(s) - peak), lo, hi, **opts)[0]
    first = quad(lambda s: np.exp(ell(s) - peak) / (1 + np.exp(-s)), lo, hi, **opts)[0]
    return peak + math.log(mass), first / mass


def mpmath_zs_log_integral(r2, n, k, p0):
    """Zellner-Siow log integral by mpmath.quad at 30 digits, where the
    integrand's two large log terms cancel without loss; the mode comes
    from bisecting the slope and the pieces from its curvature there."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, b, r2, n = mp.mpf(n - k - p0) / 2, mp.mpf(n - p0) / 2, mp.mpf(r2), mp.mpf(n)

        def ell(s):
            g = mp.exp(s)
            return a * mp.log1p(g) - b * mp.log1p(g * (1 - r2)) - s / 2 - n / (2 * g)

        def slope(s):
            g = mp.exp(s)
            return a * g / (1 + g) - b * g * (1 - r2) / (1 + g * (1 - r2)) - 0.5 + n / (2 * g)

        lo, hi = mp.mpf(-40), 80 + mp.log(n)
        for _ in range(110):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        h = mp.mpf("1e-8")
        curvature = (ell(lo + h) - 2 * ell(lo) + ell(lo - h)) / h**2
        width = min(mp.mpf(1), 1 / mp.sqrt(-curvature))
        pieces = [lo + width * mp.sinh(t) for t in range(-8, 9)]
        peak = ell(lo)
        assert max(ell(pieces[0]), ell(pieces[-1])) - peak < -80
        mass = mp.quad(lambda s: mp.exp(ell(s) - peak), pieces)
        return float(peak + mp.log(mass) + mp.log(n / (2 * mp.pi)) / 2)


def test_expit_within_two_ulp_of_scipy():
    from scipy.special import expit as scipy_expit

    x = np.concatenate([np.linspace(-800.0, 800.0, 400_001), [-745.2, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linmodel.expit(x)
        assert linmodel.expit(-800.0) == 0.0
    # Both compute 1/(1 + e^-x); numpy's exp and libm's differ by up to 1 ulp,
    # which the sum and reciprocal can turn into 2 (at 1,417 of these points).
    np.testing.assert_array_max_ulp(got, scipy_expit(x), maxulp=2)


class TestRegressionData:
    def test_requires_enough_rows(self):
        with pytest.raises(DataError):
            RegressionData(y=np.zeros(3), x0=np.ones((3, 1)), x=np.eye(3)[:, :2])

    def test_rejects_rank_deficient_combined_design(self):
        x = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(RankError):
            RegressionData(y=np.zeros(20), x0=x[:, :1], x=x[:, :1] * 2.0)


def _subset_1_unusable(reason):
    """per_subset_log_stats on three subsets of which subset 1 meets
    ``reason``: an index of ``UNUSABLE`` or "rows" (too few rows)."""
    rng = np.random.default_rng(9)
    x0 = np.column_stack([np.ones(60), rng.standard_normal(60)])
    x = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    sizes = [20, 20, 20]
    if reason == 0:
        x[20:40, 1] = 2.0 * x[20:40, 0]
    elif reason == 2:
        y[20:40] = 3.0
    elif reason == 3:
        # x0 = intercept; y = x[:, 0], both +-1: R^2 rounds to 1 here.
        x0, x[20:40, 0] = x0[:, :1], np.tile([-1.0, 1.0], 10)
        y[20:40] = x[20:40, 0]
    else:
        sizes = [28, 4, 28]
    plan = SplitPlan(M=3, assignment=np.repeat([0, 1, 2], sizes), seed=0)
    per_subset_log_stats(RegressionData(y=y, x0=x0, x=x), plan, InfoCriterionSpec.bic())


def _x0_rank_deficient():
    # [x0 x] would be rejected first, so the checks of RegressionData are skipped.
    rng = np.random.default_rng(4)
    data = RegressionData.__new__(RegressionData)
    data.y, data.x = rng.standard_normal(25), rng.standard_normal((25, 1))
    data.x0 = np.column_stack([np.ones(25), np.full(25, 3.0)])
    reparametrize(data)


_ZERO_RESPONSE = CenteredData(z=np.zeros(5), v=np.ones((5, 1)))
_COLLINEAR = np.random.default_rng(0).standard_normal((20, 1))
_SUBSET_1 = "subset 1 of the split is unusable: "

# Each route that can meet a reason of UNUSABLE, or too few rows: the call,
# its error type and its exact text.  A subset never reports reason 1: an
# x0 that the QR flags has its [x0 x] flagged first, since the smallest
# singular value of x0 bounds that of [x0 x] from above.
_UNUSABLE_ROUTES = {
    "RegressionData-design": (
        lambda: RegressionData(y=np.zeros(20), x0=_COLLINEAR, x=2.0 * _COLLINEAR),
        RankError, UNUSABLE[0]),
    "RegressionData-rows": (
        lambda: RegressionData(y=np.zeros(3), x0=np.ones((3, 1)), x=np.eye(3)[:, :2]),
        DataError, TOO_FEW_ROWS.format(3, 2, 1)),
    "reparametrize-x0": (_x0_rank_deficient, RankError, UNUSABLE[1]),
    "r_squared-response": (lambda: r_squared(_ZERO_RESPONSE), DegenerateResponseError,
                           UNUSABLE[2]),
    "build_gram-response": (lambda: build_gram(_ZERO_RESPONSE), DegenerateResponseError,
                            UNUSABLE[2]),
    "log_stat-rows": (lambda: log_stat(np.array([0.5]), 4, 3, 1, GPriorSpec.sample_size()),
                      DataError, TOO_FEW_ROWS.format(4, 3, 1)),
    **{f"per_subset_log_stats-{reason}": (lambda reason=reason: _subset_1_unusable(reason),
                                          RankError, _SUBSET_1 + text)
       for reason, text in ((0, UNUSABLE[0]), (2, UNUSABLE[2]), (3, UNUSABLE[3]),
                            ("rows", TOO_FEW_ROWS.format(4, 2, 2)))},
}


@pytest.mark.parametrize("route", _UNUSABLE_ROUTES)
def test_unusable_routes_raise_the_table_text(route):
    call, error, text = _UNUSABLE_ROUTES[route]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == text


class TestReparametrize:
    def test_intercept_only_centers(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        data = RegressionData(y=rng.standard_normal(30), x0=np.ones((30, 1)), x=x)
        c = reparametrize(data)
        np.testing.assert_allclose(c.v[:, 0], x - x.mean(), atol=1e-12)

    def test_orthogonal_response_unchanged(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((40, 2))
        q, _ = np.linalg.qr(x0)
        y = rng.standard_normal(40)
        y -= q @ (q.T @ y)
        data = RegressionData(y=y, x0=x0, x=rng.standard_normal((40, 1)))
        np.testing.assert_allclose(reparametrize(data).z, y, atol=1e-12)

    def test_matches_explicit_projector(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((20, 2))
        x = rng.standard_normal((20, 3))
        data = RegressionData(y=rng.standard_normal(20), x0=x0, x=x)
        c = reparametrize(data)
        proj = x0 @ np.linalg.solve(x0.T @ x0, x0.T)
        np.testing.assert_allclose(c.v, x - proj @ x, atol=1e-10)
        assert np.max(np.abs(x0.T @ c.v)) <= 1e-10

    def test_rank_deficient_x0_names_column(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((25, 1))
        x0 = np.hstack([base, 2.0 * base])
        data = RegressionData.__new__(RegressionData)
        data.y = rng.standard_normal(25)
        data.x0 = x0
        data.x = rng.standard_normal((25, 1))
        with pytest.raises(RankError) as err:
            reparametrize(data)
        assert err.value.column in (0, 1)


class TestRSquared:
    def test_orthogonal_gives_zero(self):
        z = np.array([1.0, -1.0, 0.0, 0.0])
        v = np.array([[0.0], [0.0], [1.0], [-1.0]])
        assert r_squared(CenteredData(z=z, v=v)) == pytest.approx(0.0, abs=1e-15)

    def test_in_span_gives_one(self):
        v = np.random.default_rng(5).standard_normal((10, 2))
        z = v @ np.array([0.3, -2.0])
        assert r_squared(CenteredData(z=z, v=v)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_least_squares_fits(self):
        rng = np.random.default_rng(6)
        x0 = np.column_stack([np.ones(50), rng.standard_normal(50)])
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50) + x[:, 0]
        data = RegressionData(y=y, x0=x0, x=x)
        r2 = r_squared(reparametrize(data))
        rss_null = np.sum((y - x0 @ np.linalg.lstsq(x0, y, rcond=None)[0]) ** 2)
        full = np.hstack([x0, x])
        rss_full = np.sum((y - full @ np.linalg.lstsq(full, y, rcond=None)[0]) ** 2)
        assert r2 == pytest.approx(1 - rss_full / rss_null, abs=1e-10)

    def test_degenerate_response_raises(self):
        with pytest.raises(DegenerateResponseError):
            r_squared(CenteredData(z=np.zeros(5), v=np.ones((5, 1))))

    def test_invariant_under_column_mixing(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((30, 3))
        z = rng.standard_normal(30)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        r_a = r_squared(CenteredData(z=z, v=v))
        r_b = r_squared(CenteredData(z=z, v=v @ a))
        assert r_a == pytest.approx(r_b, abs=1e-10)


class TestLogBayesFactor:
    def test_fixed_g_at_null_r2(self):
        for p, g in [(1, 10.0), (3, 200.0)]:
            got = log_bayes_factor(0.0, 100, p, 1, GPriorSpec.fixed(g))
            assert got == pytest.approx(-0.5 * p * math.log1p(g), rel=1e-12)

    def test_g_zero_is_unit_bayes_factor(self):
        assert log_bayes_factor(0.7, 50, 2, 1, GPriorSpec.fixed(0.0)) == 0.0

    def test_point_mass_reference_value(self):
        got = log_bayes_factor(0.02, 200, 1, 1, GPriorSpec.fixed(200.0))
        expected = 99 * math.log(201.0) - 99.5 * math.log(197.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(-0.652, abs=1e-3)

    def test_sample_size_prior_resolves_to_n(self):
        a = log_bayes_factor(0.1, 80, 2, 1, GPriorSpec.sample_size())
        b = log_bayes_factor(0.1, 80, 2, 1, GPriorSpec.fixed(80.0))
        assert a == b

    def test_zellner_siow_matches_brute_force(self):
        got = log_bayes_factor(0.3, 100, 2, 1, GPriorSpec.zellner_siow())
        assert got == pytest.approx(brute_force_zs_log_bf(0.3, 100, 2, 1), rel=1e-6)

    @pytest.mark.parametrize("r2", [0.0, 0.05, 0.5, 0.95])
    @pytest.mark.parametrize("n,p,p0", [(30, 1, 1), (100, 3, 2), (1000, 5, 1),
                                        (50, 2, 1), (400, 8, 3)])
    def test_zellner_siow_grid_against_oracle(self, r2, n, p, p0):
        got = log_bayes_factor(r2, n, p, p0, GPriorSpec.zellner_siow())
        want = brute_force_zs_log_bf(r2, n, p, p0, npts=400_000)
        assert got == pytest.approx(want, rel=2e-6, abs=2e-6)

    @pytest.mark.parametrize("prior", [GPriorSpec.fixed(50.0), GPriorSpec.zellner_siow()])
    def test_strictly_increasing_in_r2(self, prior):
        values = [log_bayes_factor(r2, 60, 2, 1, prior)
                  for r2 in np.linspace(0.0, 0.9, 15)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_no_overflow_at_extremes(self):
        for prior in (GPriorSpec.fixed(1e6), GPriorSpec.sample_size(),
                      GPriorSpec.zellner_siow()):
            val = log_bayes_factor(1 - 1e-12, 1_000_000, 2, 1, prior)
            assert math.isfinite(val)

    def test_domain_errors(self):
        with pytest.raises(DataError):
            log_bayes_factor(1.0, 100, 1, 1, GPriorSpec.fixed(1.0))
        with pytest.raises(DataError):
            log_bayes_factor(-0.1, 100, 1, 1, GPriorSpec.fixed(1.0))

    @pytest.mark.parametrize("n", [30, 2_000, 200_000])
    @pytest.mark.parametrize("r2", [0.0, 1e-9, 0.3, 1 - 1e-12])
    def test_batched_zellner_siow_against_quad_at_k1(self, r2, n):
        log_bf, shrink = log_stat(np.array([r2, r2]), n, 1, 1, GPriorSpec.zellner_siow())
        want_log, want_shrink = quad_zs(r2, n, 1, 1)
        assert log_bf[0] == log_bf[1]
        assert log_bf[0] == pytest.approx(want_log, rel=1e-8, abs=1e-8)
        assert shrink[0] == pytest.approx(want_shrink, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("n", [30, 20_000])
    @pytest.mark.parametrize("k,p0", [(3, 1), (3, 3), (12, 1), (12, 3)])
    @pytest.mark.parametrize("r2", [0.0, 0.5, 1 - 1e-9])
    def test_zellner_siow_against_quad(self, r2, k, p0, n):
        log_bf, shrink = _zs_quadrature(r2, n, k, p0)
        want_log, want_shrink = quad_zs(r2, n, k, p0)
        assert log_bf == pytest.approx(want_log, rel=1e-8, abs=1e-8)
        assert shrink == pytest.approx(want_shrink, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("n,k,p0", [(5, 3, 1), (14, 12, 1), (30, 26, 3)])
    @pytest.mark.parametrize("r2", [0.0, 0.5, 1 - 1e-14])
    def test_zellner_siow_against_quad_at_the_smallest_sample(self, r2, n, k, p0):
        # n = k + p0 + 1: the integrand is nearly flat between two walls.
        log_bf, shrink = _zs_quadrature(r2, n, k, p0)
        want_log, want_shrink = quad_zs(r2, n, k, p0)
        assert log_bf == pytest.approx(want_log, rel=1e-8, abs=1e-8)
        assert shrink == pytest.approx(want_shrink, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("n", [10**4, 10**6, 10**8])
    @pytest.mark.parametrize("r2", [0.001, 0.05, 0.3])
    def test_zellner_siow_at_large_n_against_mpmath(self, r2, n):
        # Written as a log(1 + e^s) - b log(1 + e^s (1-R^2)), the integrand
        # loses about 1e-16 n s / 2 to cancellation: 1e-12 relative at 1e8.
        log_bf, _ = _zs_quadrature(r2, n, 3, 1)
        assert log_bf == pytest.approx(mpmath_zs_log_integral(r2, n, 3, 1), rel=1e-15, abs=0)

    def test_zellner_siow_non_convergence_is_numeric_error(self, monkeypatch):
        monkeypatch.setattr(linmodel, "ZS_HALVINGS", 0)
        with pytest.raises(NumericError) as err:
            log_stat(np.array([0.1, 0.25]), 500, 3, 1, GPriorSpec.zellner_siow())
        assert err.value.diagnostics == {"r2": 0.1, "n": 500, "p": 3, "p0": 1}

    @pytest.mark.parametrize("r2,n,k", [(1 - 1e-12, 8, 5), (0.0, 10**6, 2),
                                        (0.5, 10**6, 2), (1 - 1e-12, 10**6, 2)])
    def test_zellner_siow_raises_no_floating_point_warning(self, r2, n, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_bf, shrink = log_stat(np.array([r2]), n, k, 1, GPriorSpec.zellner_siow())
        assert np.isfinite(log_bf).all() and 0.0 < shrink[0] <= 1.0

    def test_batched_zellner_siow_matches_one_at_a_time(self):
        r2 = np.linspace(0.0, 0.999, 150)  # more than two chunks
        log_bf, shrink = log_stat(r2, 500, 3, 1, GPriorSpec.zellner_siow())
        single = np.array([_zs_quadrature(float(r), 500, 3, 1) for r in r2])
        np.testing.assert_array_equal(log_bf, single[:, 0])
        np.testing.assert_array_equal(shrink, single[:, 1])

    def test_shrinkage_in_unit_interval_and_increasing_in_r2(self):
        vals = [zs_shrinkage(r2, 200, 2, 1) for r2 in (0.0, 0.2, 0.6)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert vals[0] < vals[1] < vals[2]


EVERY_STAT = {
    "zs": GPriorSpec.zellner_siow(),
    "fixed-g": GPriorSpec.fixed(40.0),
    "sample-size": GPriorSpec.sample_size(),
    "bic": InfoCriterionSpec.bic(),
    "aic": InfoCriterionSpec.aic(),
    "lrt": InfoCriterionSpec.lrt(),
    "custom": InfoCriterionSpec.custom(1.5),
}


class TestPerValueModelSizes:
    """log_stat with an array of model sizes, as enumeration calls it."""

    @pytest.mark.parametrize("n", [60, 20_000])
    @pytest.mark.parametrize("name", EVERY_STAT)
    def test_equals_one_call_per_size(self, name, n):
        rng = np.random.default_rng(12)
        r2 = rng.uniform(0.0, 0.95, size=(2, 60))
        r2[0, :3] = [0.0, 1e-300, 1 - 1e-12]
        k = rng.integers(1, 9, size=60)
        log_s, shrink = log_stat(r2, n, k, 1, EVERY_STAT[name])
        assert log_s.shape == shrink.shape == r2.shape
        for size in np.unique(k):
            cols = k == size
            want_log, want_shrink = log_stat(r2[:, cols], n, int(size), 1, EVERY_STAT[name])
            np.testing.assert_array_equal(log_s[:, cols], want_log)
            np.testing.assert_array_equal(shrink[:, cols], want_shrink)

    def test_sizes_broadcast_against_r2(self):
        log_s, shrink = log_stat(0.3, 80, np.array([1, 2, 3]), 1, GPriorSpec.zellner_siow())
        assert log_s.shape == shrink.shape == (3,)
        for i, k in enumerate((1, 2, 3)):
            assert (log_s[i], shrink[i]) == _zs_quadrature(0.3, 80, k, 1)

    def test_zellner_siow_error_carries_that_values_size(self, monkeypatch):
        monkeypatch.setattr(linmodel, "ZS_HALVINGS", 0)
        with pytest.raises(NumericError) as err:
            log_stat(np.array([0.1, 0.25]), 500, np.array([4, 2]), 1, GPriorSpec.zellner_siow())
        assert err.value.diagnostics == {"r2": 0.1, "n": 500, "p": 4, "p0": 1}

    def test_too_large_a_size_is_a_data_error(self):
        with pytest.raises(DataError, match="p=9"):
            log_stat(np.array([0.1, 0.2]), 10, np.array([2, 9]), 1, GPriorSpec.fixed(4.0))


class TestLogInfoCriterion:
    def test_lrt_at_null(self):
        assert log_info_criterion(0.0, 100, 3, InfoCriterionSpec.lrt()) == 0.0

    def test_bic_reference(self):
        got = log_info_criterion(0.0, 100, 1, InfoCriterionSpec.bic())
        assert got == pytest.approx(-math.log(10.0), rel=1e-12)

    def test_lrt_reference(self):
        got = log_info_criterion(0.5, 10, 1, InfoCriterionSpec.lrt())
        assert got == pytest.approx(5 * math.log(2.0), rel=1e-12)

    def test_aic_rho(self):
        spec = InfoCriterionSpec.aic()
        assert spec.rho_at(100, 3) == pytest.approx(6.0 / math.log(100.0))

    def test_custom_rho(self):
        got = log_info_criterion(0.0, 100, 1, InfoCriterionSpec.custom(4.0))
        assert got == pytest.approx(-2.0 * math.log(100.0))

    def test_domain_error(self):
        with pytest.raises(DataError):
            log_info_criterion(1.0, 100, 1, InfoCriterionSpec.bic())
