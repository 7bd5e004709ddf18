"""Simulated null distributions for fixed-level private testing.

The private statistics are not distributed like their non-private
counterparts under the null, so critical values and p-values are
calibrated by running the release step itself
(:func:`dpms.split_aggregate.release_means`) on draws from the known null
law of the per-subset statistic (chi-squared for likelihood ratios, Beta
for R^2, uniform for p-values).  The closed-form Beta tail bounds used in
consistency arguments are exposed for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError, InsufficientSimulationsError
from .linmodel import GPriorSpec, InfoCriterionSpec, log_stat
# Bound here because perfbench/tracing.py wraps it under dpms.calibration.
from .linmodel import log_bayes_factor  # noqa: F401
from .mechanisms import PrivacyBudget
from .split_aggregate import CensorBounds, censor, release_means

__all__ = [
    "NullSimConfig",
    "EmpiricalNull",
    "simulate_null_lrt",
    "simulate_null_bf",
    "simulate_null_pvalue",
    "critical_value",
    "p_value",
    "beta_tail_bound",
    "quantile_table",
]

SUMMARY_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


@dataclass(frozen=True)
class NullSimConfig:
    """Settings for one null simulation run.

    ``df`` is the likelihood-ratio degrees of freedom (difference in
    parameter counts); ``subset_sizes`` drives the Beta null of R^2 and
    may be omitted for the LRT pipeline.
    """

    M: int
    bounds: CensorBounds
    budget: PrivacyBudget
    nsim: int = 100_000
    df: int | None = None
    subset_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.nsim < 1:
            raise ConfigError(f"nsim must be >= 1, got {self.nsim}")
        if self.df is not None and self.df < 1:
            raise ConfigError(f"df must be >= 1, got {self.df}")
        if self.subset_sizes is not None and len(self.subset_sizes) != self.M:
            raise ConfigError("subset_sizes must have length M")


@dataclass(frozen=True)
class EmpiricalNull:
    """Sorted simulated null sample of a private statistic."""

    sorted_samples: np.ndarray

    @property
    def nsim(self) -> int:
        return self.sorted_samples.shape[0]


def simulate_null_lrt(
    cfg: NullSimConfig, rng: np.random.Generator, *, with_noise: bool = True
) -> EmpiricalNull:
    """Null distribution of the censored private statistic 2 log Lambda*.

    Per subset, 2 log Lambda_i is drawn from its asymptotic chi-squared
    law with ``df`` degrees of freedom; censoring happens on the
    log-Lambda scale with (L, U), and the doubled aggregate is clamped to
    [2L, 2U].
    """
    if cfg.df is None:
        raise ConfigError("simulate_null_lrt requires df in the configuration")
    log_lambda = 0.5 * rng.chisquare(cfg.df, size=(cfg.nsim, cfg.M))
    released = release_means(log_lambda, cfg.bounds, cfg.budget, rng, with_noise=with_noise)
    # Doubling is exact, so 2 clip(a, L, U) is bitwise clip(2a, 2L, 2U).
    return EmpiricalNull(np.sort(2.0 * censor(released, cfg.bounds)))


# Values per block of a PCHIP evaluation: a block's temporaries stay in cache.
PCHIP_BLOCK = 8192


class _Pchip:
    """Monotone piecewise cubic Hermite interpolant (PCHIP) on the evenly
    spaced knots ``np.linspace(start, stop, len(y))``.

    The arithmetic of scipy's ``PchipInterpolator``, so its values are
    bitwise scipy's: Fritsch-Carlson slopes (the weighted harmonic mean of
    the neighbouring secants, 0 where they differ in sign or one is 0), the
    one-sided three-point slope at each end with its shape-preserving
    limits, extrapolation by the end cubics, and the cubic of interval i,
    x[i] <= v < x[i+1] (the last one closed), evaluated as the power sum
    ((a0 + a1 s) + a2 s^2) + a3 s^3 with s = v - x[i].  Needs three knots
    or more.  Values are taken in blocks of PCHIP_BLOCK.
    """

    def __init__(self, start: float, stop: float, y: np.ndarray):
        x = np.linspace(start, stop, y.size)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = self._end_slope(h[0], h[1], m[0], m[1])
        d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        # Row i holds interval i's a0..a3, so one gather fetches all four.
        self.coef = np.stack([y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h], axis=1)
        # Interval i holds v when lower[i] <= v < upper[i]; NaN ends never
        # compare true, so the end intervals extend to +-inf.
        self.lower, self.upper = x[:-1].copy(), x[1:].copy()
        self.lower[0] = self.upper[-1] = np.nan
        self.per_step = (y.size - 1) / (x[-1] - x[0])

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        out = np.empty_like(flat)
        last = self.x.size - 2
        for j in range(0, flat.size, PCHIP_BLOCK):
            vb = flat[j:j + PCHIP_BLOCK]
            # On even knots (v - x0) / step misses v's interval by at most
            # one, through rounding; one comparison each way makes it exact.
            i = np.fmin(np.fmax((vb - self.x[0]) * self.per_step, 0.0), last).astype(np.intp)
            i -= vb < self.lower[i]
            i += vb >= self.upper[i]
            s = vb - self.x[i]
            a = self.coef.take(i, axis=0)  # several times faster than coef[i]
            s2 = s * s
            out[j:j + PCHIP_BLOCK] = a[:, 0] + a[:, 1] * s + a[:, 2] * s2 + a[:, 3] * (s2 * s)
        return out.reshape(v.shape)


@lru_cache(maxsize=128)
def _zs_interpolator(b: int, p: int, p0: int) -> _Pchip:
    """Monotone interpolant of the Zellner-Siow log Bayes factor in R^2.

    A numpy PCHIP (:class:`_Pchip`) on 2,000 knots of t = log(1 - r2),
    evenly spaced over [log 1e-12, 0], where the log Bayes factor is
    nearly linear as r2 -> 1; it takes arrays of t, and its
    interpolation error is below 1e-6 across the grid.
    """
    t = np.linspace(math.log(1e-12), 0.0, 2000)
    return _Pchip(t[0], t[-1], log_stat(-np.expm1(t), b, p, p0, GPriorSpec.zellner_siow())[0])


def simulate_null_bf(
    cfg: NullSimConfig,
    stat: GPriorSpec | InfoCriterionSpec,
    p: int,
    p0: int,
    rng: np.random.Generator,
    *,
    with_noise: bool = True,
) -> EmpiricalNull:
    """Null distribution of the censored private log Bayes factor.

    Under the null, R^2_i in a subset of size b_i follows
    Beta(p/2, (b_i - p - p0)/2); the statistic is evaluated per subset
    with b_i as its sample size and then censored, averaged, and noised
    exactly as in the release pipeline.  The Zellner-Siow statistic is
    read off its interpolant in R^2.
    """
    if cfg.subset_sizes is None:
        raise ConfigError("simulate_null_bf requires subset_sizes in the configuration")
    if min(cfg.subset_sizes) <= p + p0:
        raise ConfigError("every subset size must exceed p + p0")
    cols = np.empty((cfg.nsim, cfg.M))
    for i, b in enumerate(cfg.subset_sizes):
        r2 = rng.beta(0.5 * p, 0.5 * (b - p - p0), size=cfg.nsim)
        if isinstance(stat, GPriorSpec) and stat.kind == "zellner-siow":
            cols[:, i] = _zs_interpolator(int(b), p, p0)(np.log1p(-r2))
        else:
            cols[:, i] = log_stat(r2, int(b), p, p0, stat)[0]
    released = release_means(cols, cfg.bounds, cfg.budget, rng, with_noise=with_noise)
    return EmpiricalNull(np.sort(censor(released, cfg.bounds)))


def simulate_null_pvalue(
    cfg: NullSimConfig, rng: np.random.Generator, *, with_noise: bool = True
) -> EmpiricalNull:
    """Null distribution of aggregated private p-values.

    Per-subset p-values are Uniform(0, 1) under the null and are censored
    on their own scale.
    """
    u = rng.uniform(size=(cfg.nsim, cfg.M))
    released = release_means(u, cfg.bounds, cfg.budget, rng, with_noise=with_noise)
    return EmpiricalNull(np.sort(censor(released, cfg.bounds)))


def critical_value(null: EmpiricalNull, alpha: float) -> float:
    """Empirical (1 - alpha) quantile, higher-interpolation convention."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if null.nsim < 1.0 / alpha:
        raise InsufficientSimulationsError(
            f"need at least {math.ceil(1.0 / alpha)} simulations for alpha={alpha}, "
            f"have {null.nsim}"
        )
    return float(np.quantile(null.sorted_samples, 1.0 - alpha, method="higher"))


def p_value(null: EmpiricalNull, observed: float) -> float:
    """Add-one Monte-Carlo p-value: (1 + #{samples >= observed}) / (nsim + 1).
    A NaN observed value is a ``ConfigError``."""
    if math.isnan(observed):
        raise ConfigError("the observed statistic must be a number, got nan")
    n_ge = null.nsim - int(np.searchsorted(null.sorted_samples, observed, side="left"))
    return (1.0 + n_ge) / (null.nsim + 1.0)


def beta_tail_bound(k: float, b: int, p: int, p0: int) -> float:
    """Closed-form upper bound on P(R^2 > k) for the Beta null of R^2.

    R^2 ~ Beta(p/2, (b - p - p0)/2).  For p >= 2 the bound is
    2 (1-k)^((b-p-p0)/2) / ((b-p-p0) B(p/2, (b-p-p0)/2)); for p = 1 it is
    B(1/2, (b-1-p0)/2)^(-1) ((1-k)^(b-p0-2) log(1/k) / (b-p0-2))^(1/2).
    """
    from scipy.special import betaln  # the one scipy use; no command calls this

    if not 0.0 < k < 1.0:
        raise DataError(f"k must lie in (0, 1), got {k}")
    if p < 1:
        raise DataError(f"p must be >= 1, got {p}")
    if b <= p0 + p + 2:
        raise DataError(f"need b > p0 + p + 2, got b={b}, p={p}, p0={p0}")
    if p >= 2:
        log_bound = (
            math.log(2.0)
            + 0.5 * (b - p - p0) * math.log1p(-k)
            - math.log(b - p - p0)
            - betaln(0.5 * p, 0.5 * (b - p - p0))
        )
    else:
        log_bound = -betaln(0.5, 0.5 * (b - 1 - p0)) + 0.5 * (
            (b - p0 - 2) * math.log1p(-k)
            + math.log(math.log(1.0 / k))
            - math.log(b - p0 - 2)
        )
    return float(math.exp(log_bound))


def quantile_table(null: EmpiricalNull) -> list[tuple[float, float]]:
    """Summary quantiles of a simulated null, for CSV emission."""
    return [(float(q), float(np.quantile(null.sorted_samples, q))) for q in SUMMARY_QUANTILES]
