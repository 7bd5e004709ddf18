"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``dpms``: every value the checks compare against is
recomputed from the formulas of the method with numpy and scipy alone
(least squares, closed-form Bayes factors, ``scipy.integrate.quad`` for
the Zellner-Siow mixture, ``scipy.optimize.brentq`` for the analytic
Gaussian scale, and a numpy simulation of each null distribution).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, ndtr

# Clamp applied to a noisy R^2 outside [0, 1), as documented for the
# Gram-release enumeration.
R2_CEILING = 1.0 - 1e-12


# --------------------------------------------------------------------------
# Bayes factors and information criteria as functions of R^2
# --------------------------------------------------------------------------

def log_bf_fixed_g(r2, n, k, p0, g):
    """Closed-form log Bayes factor of a k-predictor block under a g-prior."""
    r2 = np.asarray(r2, dtype=float)
    return 0.5 * (n - k - p0) * np.log1p(g) - 0.5 * (n - p0) * np.log1p(g * (1.0 - r2))


def log_bic(r2, n, k):
    """BIC-type log statistic: -(k/2) log n - (n/2) log(1 - R^2)."""
    r2 = np.asarray(r2, dtype=float)
    return -0.5 * k * math.log(n) - 0.5 * n * np.log1p(-r2)


def log_bf_eb_bound(r2, n, k, p0):
    """max over g >= 0 of the fixed-g log Bayes factor.

    Any mixture of g-priors (Zellner-Siow included) averages the fixed-g
    Bayes factor against a probability density, so this maximum bounds
    its log Bayes factor from above.
    """
    r2 = np.asarray(r2, dtype=float)
    g_star = ((n - p0) * r2 - k) / (k * (1.0 - r2))
    g_star = np.maximum(g_star, 0.0)
    return log_bf_fixed_g(r2, n, k, p0, g_star)


def inverse_gamma_log_density(a, b):
    """Inverse-gamma(a, b) log density of g, for numpy arrays or floats."""
    const = a * math.log(b) - math.lgamma(a)

    def log_density(g):
        log_g = math.log(g) if isinstance(g, float) else np.log(g)
        return const - (a + 1.0) * log_g - b / g

    return log_density


def mixture_log_bf(r2, n, k, p0, log_density, *, with_shrinkage=True):
    """log of the integral of BF_g(R^2) pi(g) dg, and E[g/(1+g) | data].

    Integrated with QUADPACK over s = log g around the mode of the
    integrand, which decays like exp(-(k+1) s / 2) on the right and
    super-exponentially on the left.  The shrinkage is None unless
    ``with_shrinkage``.
    """
    a, b = 0.5 * (n - k - p0), 0.5 * (n - p0)

    s_hi = math.log(n) - math.log1p(-r2) + 40.0 + 400.0 / (k + 1.0)
    grid = np.linspace(-60.0, s_hi, 4001)
    g = np.exp(grid)
    with np.errstate(over="ignore"):
        vals = a * np.log1p(g) - b * np.log1p(g * (1.0 - r2)) + log_density(g) + grid
    i = int(np.nanargmax(vals))
    m = float(vals[i])
    inside = np.flatnonzero(vals >= m - 90.0)
    lo = float(grid[max(inside[0] - 1, 0)])
    hi = float(grid[min(inside[-1] + 1, grid.size - 1)])

    def f(s):
        g = math.exp(s)
        return math.exp(a * math.log1p(g) - b * math.log1p(g * (1.0 - r2))
                        + log_density(g) + s - m)

    opts = dict(points=[float(grid[i])], epsabs=0.0, epsrel=1e-10, limit=400)
    z, _ = quad(f, lo, hi, **opts)
    if not with_shrinkage:
        return m + math.log(z), None
    zu, _ = quad(lambda s: f(s) / (1.0 + math.exp(-s)), lo, hi, **opts)
    return m + math.log(z), zu / z


def zs_log_bf(r2, n, k, p0, *, with_shrinkage=True):
    """Zellner-Siow log Bayes factor and posterior mean of g/(1+g).

    The Zellner-Siow mixing density of g is inverse-gamma(1/2, n/2).
    """
    return mixture_log_bf(float(r2), n, k, p0, inverse_gamma_log_density(0.5, 0.5 * n),
                          with_shrinkage=with_shrinkage)


def hierarchical_log_prior(size, p):
    """Uniform over model sizes, then uniform within a size."""
    size = np.asarray(size)
    return -math.log(p + 1.0) - (gammaln(p + 1) - gammaln(size + 1) - gammaln(p - size + 1))


def log_stat(prior, r2, n, k, p0=1):
    """Per-model log statistic for the closed-form priors ``g`` and ``bic``."""
    if prior == "g":
        return log_bf_fixed_g(r2, n, k, p0, float(n))
    if prior == "bic":
        return log_bic(r2, n, k)
    raise ValueError(f"no closed form for prior {prior!r}")


def shrinkage(prior, n):
    """Posterior-mean shrinkage of the coefficients for closed-form priors."""
    if prior == "g":
        return n / (1.0 + n)
    if prior == "bic":
        return 1.0
    raise ValueError(f"no closed-form shrinkage for prior {prior!r}")


# --------------------------------------------------------------------------
# Model space from a Gram matrix, and from raw data by least squares
# --------------------------------------------------------------------------

def model_bits(p):
    """(2^p, p) 0/1 matrix; bit j of model gamma is predictor j."""
    gammas = np.arange(1 << p)
    return ((gammas[:, None] >> np.arange(p)) & 1).astype(bool)


def submodels_from_gram(g):
    """R^2 and coefficient block of every submodel of a (p+1)x(p+1) Gram.

    The last row/column is the response.  Models of one size are solved
    together with ``numpy.linalg.solve`` on the stacked blocks.
    """
    p = g.shape[0] - 1
    bits = model_bits(p)
    sizes = bits.sum(axis=1)
    r2 = np.zeros(bits.shape[0])
    coef = np.zeros((bits.shape[0], p))
    for k in range(1, p + 1):
        ms = np.flatnonzero(sizes == k)
        idx = np.array([np.flatnonzero(bits[m]) for m in ms])
        s = g[idx[:, :, None], idx[:, None, :]]
        w = g[idx, p]
        sol = np.linalg.solve(s, w[:, :, None])[:, :, 0]
        r2[ms] = np.einsum("ij,ij->i", w, sol) / g[p, p]
        coef[ms[:, None], idx] = sol
    return np.clip(r2, 0.0, R2_CEILING), coef, sizes


def submodels_least_squares(x, y):
    """R^2 and OLS slopes of every submodel y ~ 1 + x[:, gamma]."""
    n, p = x.shape
    bits = model_bits(p)
    yc = y - y.mean()
    tss = float(yc @ yc)
    r2 = np.zeros(bits.shape[0])
    coef = np.zeros((bits.shape[0], p))
    for gamma in range(1, bits.shape[0]):
        idx = np.flatnonzero(bits[gamma])
        design = np.column_stack([np.ones(n), x[:, idx]])
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ sol
        r2[gamma] = 1.0 - float(resid @ resid) / tss
        coef[gamma, idx] = sol[1:]
    return r2, coef, bits.sum(axis=1)


def block_r_squared(y, x0, x):
    """R^2 of the tested block x given the common block x0 (with intercept)."""
    n = y.shape[0]
    base = np.column_stack([np.ones(n), x0])
    full = np.column_stack([base, x])

    def rss(design):
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        r = y - design @ sol
        return float(r @ r)

    return 1.0 - rss(full) / rss(base)


def softmax(log_w):
    w = np.exp(log_w - np.max(log_w))
    return w / w.sum()


def oracle_posterior(x, y, prior):
    """Zero-noise hierarchical-prior posterior from least squares on raw data.

    Returns (posterior, inclusion, beta_avg) for the ``g`` or ``bic`` prior.
    """
    n, p = x.shape
    r2, coef, sizes = submodels_least_squares(x, y)
    log_m = hierarchical_log_prior(sizes, p) + np.where(
        sizes > 0, log_stat(prior, r2, n, np.maximum(sizes, 1)), 0.0)
    post = softmax(log_m)
    inclusion = post @ model_bits(p)
    beta = shrinkage(prior, n) * (post @ coef)
    return post, inclusion, beta


# --------------------------------------------------------------------------
# Privacy calibration
# --------------------------------------------------------------------------

def gaussian_delta(sigma, epsilon, sens):
    """delta(sigma) of the Gaussian mechanism (Balle and Wang 2018, Thm. 8)."""
    a = sens / (2.0 * sigma)
    b = epsilon * sigma / sens
    return float(ndtr(a - b) - math.exp(epsilon) * ndtr(-a - b))


def analytic_gaussian_sigma(epsilon, delta, sens):
    """Smallest sigma with delta(sigma) <= delta, by brentq on delta(sigma)."""
    def f(s):
        return gaussian_delta(s, epsilon, 1.0) - delta

    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    lo = hi
    while f(lo) <= 0.0:
        lo /= 2.0
    return sens * brentq(f, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500)


def noise_draws(M, L, U, epsilon, delta, size, rng):
    """Noise added to a mean of M statistics censored to [L, U]."""
    width = (U - L) / M
    if delta == 0.0:
        return rng.laplace(0.0, width / epsilon, size=size)
    return rng.normal(0.0, analytic_gaussian_sigma(epsilon, delta, width), size=size)


def _zs_table(b, k, p0, r2_max):
    """Quad-evaluated table of the ZS log Bayes factor on [0, r2_max].

    Returns an evaluator by linear interpolation and an error bound for
    it: twice h^2 max|f''| / 8, with f'' estimated by second differences.
    """
    grid = np.linspace(0.0, r2_max, 801)
    vals = np.array([zs_log_bf(r, b, k, p0, with_shrinkage=False)[0] for r in grid])
    err = 0.25 * float(np.max(np.abs(np.diff(vals, 2))))
    return (lambda r2: np.interp(r2, grid, vals)), err


def simulate_null(spec, nsim, rng):
    """Simulate the censored, averaged, noised null statistic with numpy.

    ``spec`` holds the calibrate settings: statistic ("lrt" or "bf"), M,
    L, U, epsilon, delta and, for "lrt", df; for "bf", n, p, p0 and the
    prior ("g", "zs" or "bic").  Returns the sorted sample and a bound on
    the error of the tables used to evaluate the per-subset statistic.
    """
    M, L, U = spec["M"], spec["L"], spec["U"]
    table_err = 0.0
    if spec["statistic"] == "lrt":
        per = 0.5 * rng.chisquare(spec["df"], size=(nsim, M))
        np.clip(per, L, U, out=per)
        agg = per.mean(axis=1) + noise_draws(M, L, U, spec["epsilon"], spec["delta"], nsim, rng)
        stat = np.clip(2.0 * agg, 2.0 * L, 2.0 * U)
        return np.sort(stat), table_err
    n, p, p0, prior = spec["n"], spec["p"], spec["p0"], spec["prior"]
    base, extra = divmod(n, M)
    sizes = np.array([base + 1] * extra + [base] * (M - extra))
    r2 = np.empty((nsim, M))
    for i, b in enumerate(sizes):
        r2[:, i] = rng.beta(0.5 * p, 0.5 * (b - p - p0), size=nsim)
    per = np.empty_like(r2)
    for b in np.unique(sizes):
        cols = np.flatnonzero(sizes == b)
        b = int(b)
        if prior == "zs":
            table, err = _zs_table(b, p, p0, float(r2[:, cols].max()))
            table_err = max(table_err, err)
            per[:, cols] = table(r2[:, cols])
        elif prior == "g":
            per[:, cols] = log_bf_fixed_g(r2[:, cols], b, p, p0, float(b))
        else:
            per[:, cols] = log_bic(r2[:, cols], b, p)
    np.clip(per, L, U, out=per)
    agg = per.mean(axis=1) + noise_draws(M, L, U, spec["epsilon"], spec["delta"], nsim, rng)
    return np.sort(np.clip(agg, L, U)), table_err


def dkw_epsilon(n, false_alarm):
    """Half-width with P(sup |F_n - F| > eps) <= false_alarm (DKW-Massart)."""
    return math.sqrt(math.log(2.0 / false_alarm) / (2.0 * n))
