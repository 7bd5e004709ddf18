"""Noise primitives: distributions, calibration, and reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpms import mechanisms
from dpms.errors import ConfigError, EmptyRegionError, NumericError, WrongMechanismError
from dpms.mechanisms import (
    CALIBRATION,
    LaplaceGramLaw,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    WishartGramLaw,
    ZeroGramLaw,
    analytic_gaussian_sigma,
    child_rng,
    gram_law,
    laplace_gram_error,
    laplace_gram_scale,
    subsample_noise_scale,
    wishart_dof,
    wishart_gram_error,
)
from dpms.mechanisms import (
    _gaussian_delta,
    _log_ndtr,
    _screened_quantile,
    _shift_bounds,
    _spectral_norm_bounds,
    _spectral_norms,
)
from dpms.split_aggregate import CensorBounds, aggregate_private


class TestPrivacyBudget:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigError):
            PrivacyBudget(0.0)
        with pytest.raises(ConfigError):
            PrivacyBudget(-1.0)

    def test_rejects_delta_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            PrivacyBudget(1.0, -0.1)
        with pytest.raises(ConfigError):
            PrivacyBudget(1.0, 1.5)

    def test_pure_flag(self):
        assert PrivacyBudget(1.0).pure
        assert not PrivacyBudget(1.0, 1e-6).pure

    def test_sensitivity_validation(self):
        with pytest.raises(ConfigError):
            Sensitivity(l1=-1.0)
        with pytest.raises(ConfigError):
            Sensitivity(l2=math.inf)


class TestLaplaceNoise:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigError):
            NoiseScale("laplace", 0.0)

    def test_location_zero(self):
        rng = np.random.default_rng(1)
        b = 2.5
        draws = rng.laplace(0.0, b, 1_000_000)
        assert abs(draws.mean()) < 0.01 * b

    def test_variance_identity(self):
        rng = np.random.default_rng(2)
        b = 0.7
        draws = rng.laplace(0.0, b, 1_000_000)
        assert draws.var() == pytest.approx(2 * b**2, rel=0.05)

    def test_90th_percentile_matches_inverse_cdf(self):
        # F^{-1}(0.9) for scale 1 is -log(2 (1 - 0.9)) = log 5.
        rng = np.random.default_rng(3)
        law = NoiseScale("laplace", 1.0)
        draws = np.array([law.sample(rng) for _ in range(200_000)])
        rng2 = np.random.default_rng(3)
        more = rng2.laplace(0.0, 1.0, 800_000)
        q90 = np.quantile(np.concatenate([draws, more]), 0.9)
        assert q90 == pytest.approx(math.log(5.0), abs=0.02)

    @pytest.mark.parametrize("b", [0.3, 1.0, 4.5])
    def test_empirical_cdf_within_kolmogorov_band(self, b):
        rng = np.random.default_rng(4)
        draws = np.sort(rng.laplace(0.0, b, 1_000_000))
        cdf = np.where(draws < 0, 0.5 * np.exp(draws / b), 1 - 0.5 * np.exp(-draws / b))
        ranks = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(cdf - ranks)) < 0.005

    def test_deterministic_given_seed(self):
        a = NoiseScale("laplace", 1.0).sample(np.random.default_rng(7))
        b = NoiseScale("laplace", 1.0).sample(np.random.default_rng(7))
        assert a == b


def _scipy_gaussian_sigma(eps, delta):
    """Bisection for the analytic-Gaussian sigma (l2 = 1) on scipy's log_ndtr."""
    from scipy.special import log_ndtr

    def loss(s):
        return np.exp(log_ndtr(0.5 / s - eps * s)) - np.exp(eps + log_ndtr(-0.5 / s - eps * s))

    hi = 1.0
    while loss(hi) > delta:
        hi *= 2.0
    lo = hi
    while loss(lo) <= delta:
        lo /= 2.0
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if loss(mid) <= delta else (mid, hi)
    return hi


class TestAnalyticGaussian:
    def test_log_ndtr_matches_scipy(self):
        from scipy.special import log_ndtr

        a = np.concatenate([np.linspace(-1e4, 40.0, 200_001), np.linspace(-40.0, -20.0, 20_001),
                            -np.geomspace(1e-3, 1e4, 2_001), np.geomspace(1e-3, 40.0, 2_001)])
        got = np.array([_log_ndtr(float(v)) for v in a])
        # Where Phi(a) is within a subnormal of 1 the log is 0 to any use.
        np.testing.assert_allclose(got, log_ndtr(a), rtol=1e-13, atol=1e-300)

    def test_sigma_matches_scipy_bisection(self):
        for eps in np.geomspace(0.01, 1000.0, 11):
            for delta in np.geomspace(1e-12, 0.5, 9):
                sigma = analytic_gaussian_sigma(PrivacyBudget(eps, delta), 1.0)
                assert sigma == pytest.approx(_scipy_gaussian_sigma(eps, delta), rel=1e-12)
                assert _gaussian_delta(sigma, eps, 1.0) <= delta

    def test_residual_against_fine_grid_scan(self):
        budget = PrivacyBudget(1.0, 1e-6)
        sigma = analytic_gaussian_sigma(budget, 1.0)
        assert _gaussian_delta(sigma, 1.0, 1.0) == pytest.approx(1e-6, abs=1e-9)
        # The returned sigma is the smallest on a fine grid meeting delta.
        grid = sigma * (1 + np.linspace(-1e-4, 1e-4, 2001))
        deltas = np.array([_gaussian_delta(s, 1.0, 1.0) for s in grid])
        feasible = grid[deltas <= 1e-6]
        assert sigma <= feasible.min() * (1 + 1e-9)

    def test_tighter_than_classical_bound(self):
        budget = PrivacyBudget(1.0, 1e-6)
        classical = math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon  # l2 = 1
        assert analytic_gaussian_sigma(budget, 1.0) < classical
        assert classical == pytest.approx(5.299, abs=5e-3)

    def test_scale_equivariance(self):
        budget = PrivacyBudget(0.7, 1e-4)
        assert analytic_gaussian_sigma(budget, 2.0) == pytest.approx(
            2.0 * analytic_gaussian_sigma(budget, 1.0), rel=1e-12
        )

    def test_grid_residuals_and_monotonicity(self):
        eps_grid = np.geomspace(0.05, 10.0, 10)
        delta_grid = np.geomspace(1e-10, 0.5, 10)
        sigmas = np.empty((10, 10))
        for i, eps in enumerate(eps_grid):
            for j, delta in enumerate(delta_grid):
                s = analytic_gaussian_sigma(PrivacyBudget(eps, delta), 1.0)
                sigmas[i, j] = s
                assert abs(_gaussian_delta(s, eps, 1.0) - delta) <= 1e-9
        assert np.all(np.diff(sigmas, axis=0) <= 1e-12)  # nonincreasing in epsilon
        assert np.all(np.diff(sigmas, axis=1) <= 1e-12)  # nonincreasing in delta

    def test_requires_positive_delta(self):
        with pytest.raises(WrongMechanismError):
            analytic_gaussian_sigma(PrivacyBudget(1.0, 0.0), 1.0)


class TestSubsampleNoiseScale:
    def test_reference_bounds_arithmetic(self):
        bounds = CensorBounds(math.log(1.0 / 99.0), math.log(99.0))
        spec = subsample_noise_scale(bounds, 10, PrivacyBudget(1.0))
        assert spec.mechanism == "laplace"
        assert spec.scale == pytest.approx(0.919024, abs=1e-6)

    def test_scale_shrinks_monotonically_in_m(self):
        bounds = CensorBounds(-2.0, 2.0)
        scales = [subsample_noise_scale(bounds, m, PrivacyBudget(1.0)).scale
                  for m in (1, 2, 5, 10, 100, 1000)]
        assert all(a > b for a, b in zip(scales, scales[1:]))

    def test_unit_arithmetic(self):
        spec = subsample_noise_scale(CensorBounds(-1.0, 1.0), 1, PrivacyBudget(2.0))
        assert spec.scale == pytest.approx(1.0)

    def test_gaussian_branch_uses_analytic_sigma(self):
        bounds = CensorBounds(0.0, 7.0)
        budget = PrivacyBudget(1.0, 0.25)
        spec = subsample_noise_scale(bounds, 5, budget)
        assert spec.mechanism == "gaussian"
        assert spec.scale == pytest.approx(analytic_gaussian_sigma(budget, 7.0 / 5.0))

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            subsample_noise_scale(CensorBounds(-1.0, 1.0), 0, PrivacyBudget(1.0))

    def test_draw_records_metadata(self):
        # Width 2.5 over M = 5 subsets at epsilon 1: Laplace scale 0.5.
        result = aggregate_private(np.zeros(5), CensorBounds(-1.25, 1.25), PrivacyBudget(1.0),
                                   np.random.default_rng(0))
        assert result.law.mechanism == "laplace" and result.law.scale == 0.5


class TestLaplaceGramError:
    def test_symmetry_exact(self):
        e = laplace_gram_error(4, PrivacyBudget(1.0), 1.0, np.random.default_rng(0))
        assert np.array_equal(e, e.T)

    def test_scale_arithmetic_p1(self):
        assert laplace_gram_scale(1, 3.0, 1.0) == pytest.approx(1.0)

    def test_per_entry_variance_p9(self):
        # Scale (10 * 11) / 2 = 55, so the entry variance is 2 * 55^2.
        rng = np.random.default_rng(5)
        entries = []
        iu = np.triu_indices(10)
        for _ in range(2000):
            entries.append(laplace_gram_error(9, PrivacyBudget(1.0), 1.0, rng)[iu])
        var = np.concatenate(entries).var()
        assert var == pytest.approx(2 * 55.0**2, rel=0.05)

    def test_rejects_nonzero_delta(self):
        with pytest.raises(WrongMechanismError):
            laplace_gram_error(2, PrivacyBudget(1.0, 0.1), 1.0, np.random.default_rng(0))


class TestWishartGramError:
    def test_dof_formula(self):
        assert wishart_dof(9, PrivacyBudget(1.0, math.exp(-10.0))) == 328

    def test_shifted_error_is_psd(self):
        budget = PrivacyBudget(1.0, 0.1)
        k = wishart_dof(3, budget)
        rng = np.random.default_rng(6)
        for _ in range(20):
            e = wishart_gram_error(3, budget, 1.5, rng)
            shifted = e + k * 1.5**2 * np.eye(4)
            assert np.linalg.eigvalsh(shifted)[0] >= -1e-8 * np.trace(shifted)

    def test_entrywise_mean_near_zero(self):
        # Single draws, then one stack: the stack's column i of chi-squares
        # must carry k - i degrees of freedom like a single draw's.
        budget = PrivacyBudget(2.0, 0.5)
        k = wishart_dof(2, budget)
        rng = np.random.default_rng(7)
        n_draws = 10_000
        single = np.array([wishart_gram_error(2, budget, 1.0, rng) for _ in range(n_draws)])
        stacked = WishartGramLaw(2, k, 1.0, budget, seed=0).sample(rng, n_draws)
        # Var(M_ij) = k (1 + delta_ij) for unit scale.
        se = np.sqrt(k * (np.eye(3) + 1.0) / n_draws)
        for draws in (single, stacked):
            assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se)

    def test_diagonal_variance_identity(self):
        budget = PrivacyBudget(2.0, 0.5)
        k = wishart_dof(1, budget)
        rng = np.random.default_rng(8)
        single = np.array([wishart_gram_error(1, budget, 1.0, rng) for _ in range(10_000)])
        stacked = WishartGramLaw(1, k, 1.0, budget, seed=0).sample(rng, 10_000)
        for draws in (single, stacked):
            diags = np.diagonal(draws, axis1=1, axis2=2)
            assert diags.var(axis=0) == pytest.approx(2.0 * k, rel=0.1)

    def test_rejects_zero_delta(self):
        with pytest.raises(WrongMechanismError):
            wishart_gram_error(2, PrivacyBudget(1.0), 1.0, np.random.default_rng(0))


GRAM_LAWS = {
    "zero": ZeroGramLaw(2),
    "laplace": LaplaceGramLaw(2, 0.8, PrivacyBudget(1.0), seed=30),
    "wishart": WishartGramLaw(2, wishart_dof(2, PrivacyBudget(2.0, 0.5)), 0.7,
                              PrivacyBudget(2.0, 0.5), seed=30),
}


class TestNoiseLaws:
    @pytest.mark.parametrize("name", GRAM_LAWS)
    def test_central_draws_are_members(self, name):
        rng = np.random.default_rng(30)
        law = GRAM_LAWS[name]
        draws = list(law.central_draws(0.1, 200, rng))
        assert len(draws) == (1 if name == "zero" else 200)
        assert all(law.in_central_set(0.1, e) for e in draws)

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("name", GRAM_LAWS)
    def test_offdiag_quantile_matches_sampled_entries(self, name, q):
        # One off-diagonal entry per draw, so the |E_01| are iid; by the
        # DKW inequality their empirical CDF stays within eps of the true
        # one with probability 1 - 2 exp(-2 N eps^2) > 1 - 1e-6.  The
        # Wishart quantile is itself a Monte-Carlo estimate from its
        # chi-square-difference shortcut, so that law gets the band of
        # its own sample too.
        law = GRAM_LAWS[name]
        n = 20_000
        eps = math.sqrt(math.log(2e6) / (2 * n))
        if name == "wishart":
            eps += math.sqrt(math.log(2e6) / (2 * 100_000))
        rng = np.random.default_rng(31)
        x = law.offdiag_abs_quantile(q)
        entries = np.abs([law.sample(rng, 1)[0][0, 1] for _ in range(n)])
        assert np.mean(entries < x) <= q + eps
        assert np.mean(entries <= x) >= q - eps

    @pytest.mark.parametrize("law", [NoiseScale("laplace", 0.6), NoiseScale("gaussian", 1.7)],
                             ids=["laplace", "gaussian"])
    def test_stacked_subsample_draws_equal_sequential(self, law):
        stacked = law.sample(np.random.default_rng(32), 50)
        rng = np.random.default_rng(32)
        sequential = [law.sample(rng) for _ in range(50)]
        assert stacked.tolist() == sequential


class TestStackedGramDraws:
    """For the Laplace and zero laws ``sample(rng, N)`` equals N single
    draws ``sample(rng, 1)[0]`` taken in turn, so a stacked draw leaves
    the RNG stream where the serial loop left it.  A Wishart stack draws
    in bulk."""

    @pytest.mark.parametrize("name", ["zero", "laplace"])
    def test_law_stack_equals_single_draws(self, name):
        law = GRAM_LAWS[name]
        stacked = law.sample(np.random.default_rng(33), 40)
        rng = np.random.default_rng(33)
        sequential = np.stack([law.sample(rng, 1)[0] for _ in range(40)])
        assert stacked.shape == (40, 3, 3)
        assert np.array_equal(stacked, sequential)
        # The stream ends in the same place.
        tail = np.random.default_rng(33)
        law.sample(tail, 40)
        assert tail.random() == rng.random()

    def test_laplace_box_stack_equals_single_draws(self):
        law = GRAM_LAWS["laplace"]
        stacked = law.central_draws(0.1, 40, np.random.default_rng(34))
        rng = np.random.default_rng(34)
        assert np.array_equal(stacked,
                              np.stack([law.central_draws(0.1, 1, rng)[0] for _ in range(40)]))

    def test_wishart_ball_draws_n_members(self):
        law = GRAM_LAWS["wishart"]
        draws = law.central_draws(0.3, 60, np.random.default_rng(36))
        assert draws.shape == (60, 3, 3)
        assert all(law.in_central_set(0.3, e) for e in draws)

    def test_wishart_ball_below_every_norm_stalls(self, monkeypatch):
        monkeypatch.setattr(WishartGramLaw, "ball_radius", lambda law, alpha: -1.0)
        with pytest.raises(EmptyRegionError):
            GRAM_LAWS["wishart"].central_draws(0.3, 5, np.random.default_rng(36))

    def test_wishart_single_draw_is_the_bartlett_product(self):
        law = GRAM_LAWS["wishart"]
        got = law.sample(np.random.default_rng(37), 1)[0]
        rng = np.random.default_rng(37)
        a = np.zeros((3, 3))
        a[np.tril_indices(3, k=-1)] = rng.standard_normal(3)
        a[np.diag_indices(3)] = np.sqrt(rng.chisquare(law.k - np.arange(3)))
        want = law.l2**2 * (a @ a.T) - law.k * law.l2**2 * np.eye(3)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _eigvalsh_norms(e):
    return np.abs(np.linalg.eigvalsh(e)).max(axis=-1)


def _draw_chunks(law, n, rng):
    """n draws of ``law`` as consecutive stacks of at most DRAW_CHUNK, the
    stacks the calibrations draw."""
    for start in range(0, n, mechanisms.DRAW_CHUNK):
        yield law.sample(rng, min(mechanisms.DRAW_CHUNK, n - start))


def _eigvalsh_radius(law, alpha):
    """The ball radius from an eigvalsh on every calibration draw."""
    rng = child_rng(law.seed, CALIBRATION, 2)
    norms = np.concatenate([_eigvalsh_norms(e) for e in
                            _draw_chunks(law, mechanisms.QUANTILE_DRAWS, rng)])
    return float(np.quantile(norms, 1.0 - alpha))


def _eigvalsh_shift(law):
    """The repair shift from an eigvalsh on every calibration draw."""
    rng = child_rng(law.seed, CALIBRATION, 0)
    mins = np.concatenate([np.linalg.eigvalsh(e)[:, 0] for e in
                           _draw_chunks(law, mechanisms.REPAIR_DRAWS, rng)])
    return float(np.quantile(np.maximum(-mins, 0.0), 0.99))


def _eigvalsh_ball_draws(law, alpha, n, rng):
    """The ball's rejection sampling with an eigvalsh on every draw."""
    kept, found = [], 0
    while found < n:
        e = law.sample(rng, mechanisms.DRAW_CHUNK)
        e = e[_eigvalsh_norms(e) <= law.ball_radius(alpha)]
        kept.append(e)
        found += len(e)
    return np.concatenate(kept)[:n]


# Spectra of the property test, every |eigenvalue| at most 1.
_SPECTRA = {
    "generic": lambda rng, m: rng.uniform(-1.0, 1.0, m),
    "plus-minus": lambda rng, m: np.concatenate([[1.0, -1.0], rng.uniform(-0.9, 0.9, m - 2)]),
    "repeated-top": lambda rng, m: np.concatenate([np.ones(m // 2 + 1),
                                                   rng.uniform(-0.5, 0.5, m - m // 2 - 1)]),
    "rank-one": lambda rng, m: np.concatenate([[-1.0], np.zeros(m - 1)]),
    "identity": lambda rng, m: np.full(m, rng.choice([-1.0, 1.0])),
    "zero": lambda rng, m: np.zeros(m),
}


def _spectral_stack(m, kind, exponent, seed):
    """Four symmetric m x m matrices with spectra of ``kind`` times 10^exponent."""
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(4):
        lam = _SPECTRA[kind](rng, m) * 10.0**exponent
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        e = (q * lam) @ q.T
        stack.append(0.5 * (e + e.T))
    return np.stack(stack)


def _law(name, p):
    """The Laplace or Wishart Gram law of the bitwise calibration checks."""
    budget = PrivacyBudget(1.0, 1e-5 if name == "wishart" else 0.0)
    return gram_law(p, budget, Sensitivity(0.5, 0.5 * math.sqrt(p + 1)), seed=p)


class TestSpectralNormScreen:
    """Trace bounds bracket every eigvalsh norm, and the ball's radius and
    draws equal those of an eigvalsh on every draw."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(2, 21), kind=st.sampled_from(sorted(_SPECTRA)),
           exponent=st.floats(-150.0, 150.0), seed=st.integers(0, 2**32 - 1))
    def test_bounds_bracket_the_eigvalsh_norm(self, m, kind, exponent, seed):
        e = _spectral_stack(m, kind, exponent, seed)
        lo, hi = _spectral_norm_bounds(e)
        norms = _spectral_norms(e)
        assert np.all(lo <= norms) and np.all(norms <= hi)
        # hi/lo <= sqrt(tr(P^2)) / (tr(P^2)/tr(P)) <= sqrt(m), so the bracket
        # is never wider than this.
        root = 0.5**mechanisms.SCREEN_SQUARINGS
        assert np.all(lo >= hi * m ** (-0.5 * root) * (1.0 - 3e-12 * m**3))

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(2, 21), kind=st.sampled_from(sorted(_SPECTRA)),
           exponent=st.floats(-150.0, 150.0), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(-1.5, 1.5))
    def test_shift_bounds_bracket_the_eigvalsh_shift(self, m, kind, exponent, seed, shift):
        # A shift of the spectrum moves lambda_min across zero and off it.
        e = _spectral_stack(m, kind, exponent, seed)
        e += shift * 10.0**exponent * np.eye(m)
        lo, hi = _shift_bounds(e)
        x = np.maximum(-np.linalg.eigvalsh(e)[:, 0], 0.0)
        assert np.all(lo <= x) and np.all(x <= hi)

    def test_unscaled_matrices_get_trivial_bounds(self):
        # Sums of squares that underflow or overflow give no scale.
        e = np.stack([np.eye(3) * 1e-170, np.eye(3) * 1e160, np.zeros((3, 3)), np.eye(3)])
        lo, hi = _spectral_norm_bounds(e)
        assert lo.tolist()[:3] == [0.0, 0.0, 0.0] and hi.tolist()[:3] == [np.inf, np.inf, 0.0]
        assert lo[3] <= 1.0 <= hi[3] < 1.1

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5, 0.95])
    @pytest.mark.parametrize("n", [2001, 4801, 4567])
    def test_screened_quantile_is_np_quantile(self, n, alpha):
        # Values 2% apart, so a wrong value at a rank np.quantile reads
        # shows; (n-1)(1-alpha) is an integer at n = 2001 and 4801.
        rng = np.random.default_rng(n)
        x = rng.permutation(np.exp(np.arange(n) / 50.0))
        lo = x * (1.0 - 0.015 * rng.random(n))
        hi = x * (1.0 + 0.015 * rng.random(n))
        asked = []

        def exact(rows):
            asked.append(rows)
            return x[rows]

        assert _screened_quantile(lo, hi, 1.0 - alpha, exact) == np.quantile(x, 1.0 - alpha)
        assert len(asked) == 1 and asked[0].size < 10

    @pytest.mark.parametrize("n", [1201, 1167], ids=["integer-index", "fractional-index"])
    @pytest.mark.parametrize("screen", ["exact", "loose", "none"])
    @pytest.mark.parametrize("p", [1, 2, 5, 8, 12, 20])
    def test_ball_radius_is_the_eigvalsh_quantile(self, monkeypatch, p, screen, n):
        # n - 1 = 1200 makes (n-1)(1-alpha) an integer at every alpha
        # below; both n leave a partial last stack of 500.  Loosened bounds
        # leave many draws to the replay, and no bounds at all every draw.
        monkeypatch.setattr(mechanisms, "QUANTILE_DRAWS", n)
        monkeypatch.setattr(mechanisms, "DRAW_CHUNK", 500)
        real = mechanisms._spectral_norm_bounds
        if screen == "loose":
            monkeypatch.setattr(mechanisms, "_spectral_norm_bounds",
                                lambda e: tuple(b * f for b, f in zip(real(e), (0.97, 1.03))))
        elif screen == "none":
            monkeypatch.setattr(mechanisms, "_spectral_norm_bounds",
                                lambda e: (np.zeros(len(e)), np.full(len(e), np.inf)))
        budget = PrivacyBudget(1.0, 1e-5)
        law = WishartGramLaw(p, wishart_dof(p, budget), 0.5 * math.sqrt(p + 1), budget, seed=p)
        for alpha in (0.01, 0.05, 0.5, 0.95):
            assert law.ball_radius(alpha) == _eigvalsh_radius(law, alpha)
            a, b = np.random.default_rng(40), np.random.default_rng(40)
            assert np.array_equal(law.central_draws(alpha, 300, a),
                                  _eigvalsh_ball_draws(law, alpha, 300, b))
            assert a.random() == b.random()

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_full_size_radius_is_the_eigvalsh_quantile(self, alpha):
        law = _law("wishart", 5)
        assert law.ball_radius(alpha) == _eigvalsh_radius(law, alpha)

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_radius_replays_every_stack_but_the_last(self, monkeypatch, alpha):
        # Stacks of 2,000, 2,000 and 500 with no bounds at all: every draw
        # needs its eigvalsh, so the pass replays the first two stacks from
        # their saved states and reads the last one from memory.
        monkeypatch.setattr(mechanisms, "QUANTILE_DRAWS", 4500)
        monkeypatch.setattr(mechanisms, "_spectral_norm_bounds",
                            lambda e: (np.zeros(len(e)), np.full(len(e), np.inf)))
        assert mechanisms.DRAW_CHUNK == 2000
        law, calls, real = _law("wishart", 5), [], WishartGramLaw.sample

        def counted(law, rng, n):
            calls.append(n)
            return real(law, rng, n)

        monkeypatch.setattr(WishartGramLaw, "sample", counted)
        radius = law.ball_radius(alpha)
        assert calls == [2000, 2000, 500, 2000, 2000]
        assert radius == _eigvalsh_radius(law, alpha)

    @pytest.mark.parametrize("screen", ["exact", "none"])
    @pytest.mark.parametrize("p", [1, 5, 12, 20])
    @pytest.mark.parametrize("name", ["laplace", "wishart"])
    def test_repair_shift_is_the_eigvalsh_quantile(self, monkeypatch, name, p, screen):
        if screen == "none":
            monkeypatch.setattr(mechanisms, "_shift_bounds",
                                lambda e: (np.zeros(len(e)), np.full(len(e), np.inf)))
        law = _law(name, p)
        assert law.repair_shift == _eigvalsh_shift(law)


class TestChildRng:
    def test_stable_by_index(self):
        a = child_rng(123, 5).standard_normal(4)
        b = child_rng(123, 5).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = child_rng(123, 0).standard_normal(4)
        b = child_rng(123, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_calibration_streams_differ_from_one_level_streams(self):
        # Release (k = 1) and replication (k = rep) streams have one-level keys.
        one_level = {tuple(child_rng(123, k).random(4)) for k in range(1000)}
        for j in range(3):
            assert tuple(child_rng(123, CALIBRATION, j).random(4)) not in one_level
