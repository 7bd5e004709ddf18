"""Simulated null distributions for fixed-level private testing.

The private statistics are not distributed like their non-private
counterparts under the null, so critical values and p-values are
calibrated by simulating the whole censor-average-noise pipeline from the
known null law of the per-subset statistic (chi-squared for likelihood
ratios, Beta for R^2, uniform for p-values).  The closed-form Beta tail
bounds used in consistency arguments are exposed for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import betaln

from .errors import ConfigError, DataError, InsufficientSimulationsError
from .linmodel import GPriorSpec, InfoCriterionSpec, log_stat
# Bound here because perfbench/tracing.py wraps it under dpms.calibration.
from .linmodel import log_bayes_factor  # noqa: F401
from .mechanisms import PrivacyBudget, subsample_noise_scale
from .split_aggregate import CensorBounds

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
    seed: int = 0
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
    statistic_kind: str  # "lrt" | "bf" | "pvalue"

    @property
    def nsim(self) -> int:
        return self.sorted_samples.shape[0]


def _noise_draws(
    cfg: NullSimConfig, rng: np.random.Generator, with_noise: bool
) -> np.ndarray:
    if not with_noise:
        return np.zeros(cfg.nsim)
    return subsample_noise_scale(cfg.bounds, cfg.M, cfg.budget).sample(rng, cfg.nsim)


def simulate_null_lrt(
    cfg: NullSimConfig, rng: np.random.Generator | None = None, *, with_noise: bool = True
) -> EmpiricalNull:
    """Null distribution of the censored private statistic 2 log Lambda*.

    Per subset, 2 log Lambda_i is drawn from its asymptotic chi-squared
    law with ``df`` degrees of freedom; censoring happens on the
    log-Lambda scale with (L, U), and the doubled aggregate is clamped to
    [2L, 2U].
    """
    if cfg.df is None:
        raise ConfigError("simulate_null_lrt requires df in the configuration")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    log_lambda = 0.5 * rng.chisquare(cfg.df, size=(cfg.nsim, cfg.M))
    np.clip(log_lambda, cfg.bounds.L, cfg.bounds.U, out=log_lambda)
    agg = log_lambda.mean(axis=1) + _noise_draws(cfg, rng, with_noise)
    stat = np.clip(2.0 * agg, 2.0 * cfg.bounds.L, 2.0 * cfg.bounds.U)
    return EmpiricalNull(np.sort(stat), "lrt")


@lru_cache(maxsize=128)
def _zs_interpolator(b: int, p: int, p0: int) -> PchipInterpolator:
    """Monotone interpolant of the Zellner-Siow log Bayes factor in R^2.

    Built on a grid of log(1 - r2), where the log Bayes factor is nearly
    linear as r2 -> 1; interpolation error is below 1e-6 across the grid.
    """
    t = np.linspace(math.log(1e-12), 0.0, 2000)
    vals = log_stat(-np.expm1(t), b, p, p0, GPriorSpec.zellner_siow())[0]
    order = np.argsort(t)
    return PchipInterpolator(t[order], vals[order])


def simulate_null_bf(
    cfg: NullSimConfig,
    stat: GPriorSpec | InfoCriterionSpec,
    p: int,
    p0: int,
    rng: np.random.Generator | None = None,
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
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    cols = np.empty((cfg.nsim, cfg.M))
    for i, b in enumerate(cfg.subset_sizes):
        r2 = rng.beta(0.5 * p, 0.5 * (b - p - p0), size=cfg.nsim)
        if isinstance(stat, GPriorSpec) and stat.kind == "zellner-siow":
            cols[:, i] = _zs_interpolator(int(b), p, p0)(np.log1p(-r2))
        else:
            cols[:, i] = log_stat(r2, int(b), p, p0, stat)[0]
    np.clip(cols, cfg.bounds.L, cfg.bounds.U, out=cols)
    agg = cols.mean(axis=1) + _noise_draws(cfg, rng, with_noise)
    stat_vals = np.clip(agg, cfg.bounds.L, cfg.bounds.U)
    return EmpiricalNull(np.sort(stat_vals), "bf")


def simulate_null_pvalue(
    cfg: NullSimConfig,
    rng: np.random.Generator | None = None,
    *,
    transform=None,
    with_noise: bool = True,
) -> EmpiricalNull:
    """Null distribution of aggregated private p-values.

    Per-subset p-values are Uniform(0, 1) under the null; ``transform``
    maps them to the aggregation scale (identity by default) before
    censoring.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    u = rng.uniform(size=(cfg.nsim, cfg.M))
    vals = u if transform is None else transform(u)
    vals = np.clip(vals, cfg.bounds.L, cfg.bounds.U)
    agg = vals.mean(axis=1) + _noise_draws(cfg, rng, with_noise)
    stat_vals = np.clip(agg, cfg.bounds.L, cfg.bounds.U)
    return EmpiricalNull(np.sort(stat_vals), "pvalue")


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
    """Add-one Monte-Carlo p-value: (1 + #{samples >= observed}) / (nsim + 1)."""
    n_ge = null.nsim - int(np.searchsorted(null.sorted_samples, observed, side="left"))
    return (1.0 + n_ge) / (null.nsim + 1.0)


def beta_tail_bound(k: float, b: int, p: int, p0: int) -> float:
    """Closed-form upper bound on P(R^2 > k) for the Beta null of R^2.

    R^2 ~ Beta(p/2, (b - p - p0)/2).  For p >= 2 the bound is
    2 (1-k)^((b-p-p0)/2) / ((b-p-p0) B(p/2, (b-p-p0)/2)); for p = 1 it is
    B(1/2, (b-1-p0)/2)^(-1) ((1-k)^(b-p0-2) log(1/k) / (b-p0-2))^(1/2).
    """
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


def quantile_table(null: EmpiricalNull, probs=SUMMARY_QUANTILES) -> list[tuple[float, float]]:
    """Summary quantiles of a simulated null, for CSV emission."""
    return [(float(q), float(np.quantile(null.sorted_samples, q))) for q in probs]
