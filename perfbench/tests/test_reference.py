"""The independent references against closed forms and identities."""

import math

import numpy as np
import pytest

import reference as ref


@pytest.mark.parametrize("r2,n,k", [(0.2, 500, 2), (0.87, 20_000, 5), (1e-4, 200_000, 3)])
def test_mixture_concentrating_on_g0_tends_to_fixed_g(r2, n, k):
    g0 = 0.5 * n
    closed = float(ref.log_bf_fixed_g(r2, n, k, 1, g0))
    errors = []
    for a in (1e2, 1e4, 1e6):
        # Inverse-gamma(a, (a + 1) g0) has its mode at g0 and variance ~ g0^2 / a.
        log_bf, _ = ref.mixture_log_bf(r2, n, k, 1, ref.inverse_gamma_log_density(a, (a + 1) * g0))
        errors.append(abs(log_bf - closed))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-4


def test_zs_shrinkage_is_the_concentrated_prior_shrinkage():
    g0, a = 400.0, 1e6
    _, shrink = ref.mixture_log_bf(0.3, 1_000, 3, 1, ref.inverse_gamma_log_density(a, (a + 1) * g0))
    assert shrink == pytest.approx(g0 / (1 + g0), rel=1e-5)


@pytest.mark.parametrize("r2,n,k", [(0.0, 100, 1), (0.3, 200, 3), (0.9, 20_000, 12)])
def test_zs_is_bounded_by_empirical_bayes(r2, n, k):
    log_bf, shrink = ref.zs_log_bf(r2, n, k, 1)
    assert log_bf <= float(ref.log_bf_eb_bound(r2, n, k, 1)) + 1e-12
    assert 0.0 < shrink < 1.0


def test_zs_matches_the_program_quadrature():
    from dpms.linmodel import GPriorSpec, log_bayes_factor, zs_shrinkage

    for r2, n, k in [(0.05, 300, 2), (0.6, 5_000, 4), (0.999, 500, 2)]:
        log_bf, shrink = ref.zs_log_bf(r2, n, k, 1)
        assert log_bf == pytest.approx(log_bayes_factor(r2, n, k, 1, GPriorSpec.zellner_siow()),
                                       abs=1e-7, rel=1e-9)
        assert shrink == pytest.approx(zs_shrinkage(r2, n, k, 1), abs=1e-8)


@pytest.mark.parametrize("eps,delta,sens", [(1.0, 1e-5, 1.0), (0.5, 1e-3, 0.2), (2.0, 0.1, 3.0)])
def test_brentq_sigma_solves_the_delta_identity(eps, delta, sens):
    sigma = ref.analytic_gaussian_sigma(eps, delta, sens)
    assert ref.gaussian_delta(sigma, eps, sens) == pytest.approx(delta, rel=1e-9)
    # delta(sigma) decreases in sigma, and sigma scales with the sensitivity.
    assert ref.gaussian_delta(sigma * 0.999, eps, sens) > delta
    assert ref.analytic_gaussian_sigma(eps, delta, 2 * sens) == pytest.approx(2 * sigma, rel=1e-12)
    # Never above the classical bound where that bound applies.
    if eps <= 1.0:
        assert sigma < math.sqrt(2 * math.log(1.25 / delta)) * sens / eps


def test_gram_submodels_match_least_squares():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.45, 0.45, size=(300, 4))
    y = x @ [0.3, 0.0, -0.2, 0.1] + rng.uniform(-0.1, 0.1, size=300)
    d = np.column_stack([x, y])
    d -= d.mean(axis=0)
    r2_gram, coef_gram, _ = ref.submodels_from_gram(d.T @ d)
    r2_ls, coef_ls, _ = ref.submodels_least_squares(x, y)
    np.testing.assert_allclose(r2_gram, r2_ls, rtol=0, atol=1e-12)
    np.testing.assert_allclose(coef_gram, coef_ls, rtol=0, atol=1e-10)


def test_dkw_epsilon_meets_the_false_alarm_rate():
    eps = ref.dkw_epsilon(100_000, 1e-6)
    assert 2 * math.exp(-2 * 100_000 * eps**2) == pytest.approx(1e-6)


def test_lrt_null_without_censoring_or_noise_is_chi_square():
    from scipy.stats import chi2

    spec = dict(statistic="lrt", df=2, M=1, L=-1e9, U=1e9, epsilon=1e12, delta=0.0)
    sample, _ = ref.simulate_null(spec, 200_000, np.random.default_rng(1))
    for q in (0.5, 0.9, 0.99):
        assert np.quantile(sample, q) == pytest.approx(chi2.ppf(q, 2), rel=0.02)
