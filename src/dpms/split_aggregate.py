"""Subsample-and-aggregate release of Bayes factors and information criteria.

The data are split into M disjoint subsets, the per-subset log statistics
are censored to [L, U], averaged, and a single calibrated noise draw makes
the average differentially private.  Exponentiating recovers a noisy
geometric mean of the censored per-subset statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, RankError, SplitInfeasibleError
from .linmodel import (TOO_FEW_ROWS, GPriorSpec, InfoCriterionSpec, RegressionData, _r2_stack,
                       expit, log_stat)
# Bound here because perfbench/tracing.py wraps them under dpms.split_aggregate.
from .linmodel import log_bayes_factor, log_info_criterion, r_squared, reparametrize  # noqa: F401
from .mechanisms import NoiseScale, PrivacyBudget, subsample_noise_scale

__all__ = [
    "CensorBounds",
    "SplitPlan",
    "DPTestResult",
    "default_bounds",
    "split_sizes",
    "make_split",
    "censor",
    "release_means",
    "per_subset_log_stats",
    "aggregate_private",
    "posterior_probability",
]


@dataclass(frozen=True)
class CensorBounds:
    """Censoring interval [L, U] for log statistics."""

    L: float
    U: float

    def __post_init__(self):
        if not (math.isfinite(self.L) and math.isfinite(self.U)):
            raise ConfigError("censor bounds must be finite")
        if not self.L < self.U:
            raise ConfigError(f"censor bounds must satisfy L < U, got ({self.L}, {self.U})")

    @property
    def width(self) -> float:
        return self.U - self.L

    def reflected(self) -> "CensorBounds":
        """Bounds for the swapped-hypotheses statistic: (-U, -L)."""
        return CensorBounds(-self.U, -self.L)


def default_bounds() -> CensorBounds:
    """Censor log Bayes factors so posterior probabilities stay in
    [0.01, 0.99]: L = log(1/99), U = log(99)."""
    u = math.log(99.0)
    return CensorBounds(-u, u)


@dataclass(frozen=True)
class SplitPlan:
    """Seeded assignment of the n rows to M disjoint subsets."""

    M: int
    assignment: np.ndarray  # n-vector of subset indices in 0..M-1
    seed: int

    def __post_init__(self):
        a = self.assignment
        if a.size and not (0 <= a.min() and a.max() < self.M):
            raise ConfigError(f"split assignment must lie in 0..{self.M - 1}")

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.M)

    def rows(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i)


def split_sizes(n: int, M: int) -> np.ndarray:
    """Sizes of a near-equal partition of n rows into M subsets: they
    differ by at most one, larger blocks first."""
    if M < 1 or n < 1:
        raise ConfigError(f"need n >= 1 and M >= 1, got n={n}, M={M}")
    base, extra = divmod(n, M)
    sizes = np.full(M, base)
    sizes[:extra] += 1
    return sizes


def make_split(n: int, M: int, min_subset: int, seed: int) -> SplitPlan:
    """Random partition of n rows into subsets of :func:`split_sizes`.

    The permutation is seeded so the same seed reproduces the same
    assignment.
    """
    sizes = split_sizes(n, M)
    if sizes.min() < min_subset:
        raise SplitInfeasibleError(
            f"cannot split n={n} into M={M} subsets of at least {min_subset} rows"
        )
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = np.repeat(np.arange(M), sizes)
    return SplitPlan(M=M, assignment=assignment, seed=seed)


def censor(x, bounds: CensorBounds):
    """Clamp a value (or array) to [L, U]."""
    return np.clip(x, bounds.L, bounds.U)


def release_means(
    values: np.ndarray,
    bounds: CensorBounds,
    budget: PrivacyBudget,
    rng: np.random.Generator,
    *,
    with_noise: bool = True,
) -> np.ndarray | float:
    """The release step on an (..., M) array of per-subset values: censor
    each to [L, U] (in place), average over the last axis, and add one
    draw of the release law (:func:`dpms.mechanisms.subsample_noise_scale`)
    per mean, drawn after the values.  ``with_noise=False`` leaves the
    means noiseless and draws nothing.

    :func:`aggregate_private` releases one row; the null simulators of
    :mod:`dpms.calibration` release ``nsim`` rows, so their calibration
    simulates exactly this step.
    """
    np.clip(values, bounds.L, bounds.U, out=values)
    means = values.mean(axis=-1)
    if with_noise:
        means += subsample_noise_scale(bounds, values.shape[-1], budget).sample(rng, means.shape)
    return means


def per_subset_log_stats(
    data: RegressionData,
    plan: SplitPlan,
    stat: GPriorSpec | InfoCriterionSpec,
) -> np.ndarray:
    """Uncensored per-subset log statistics.

    Each subset is reparametrized and scored with its own sample size
    (so the sample-size g-prior uses g = b_i, and AIC resolves rho at
    b_i), in one batched pass per distinct subset size.  An unusable
    subset (too few rows, a rank-deficient design, a degenerate
    response) is a hard error; silently dropping it would change the
    privacy analysis.  The message gives the reason alone: the index of
    the first such subset, which with the recorded seed locates its rows,
    is the error's ``subset`` attribute.
    """
    if plan.n != data.n:
        raise DataError(f"split plan covers {plan.n} rows but data has {data.n}")
    sizes = plan.sizes
    # A stable sort of the smallest integer type numpy radix-sorts, in the
    # same order as the int64 sort.
    order = np.argsort(plan.assignment.astype(np.min_scalar_type(plan.M - 1)), kind="stable")
    starts = np.cumsum(sizes) - sizes
    out = np.empty(plan.M)
    reasons = {}
    for b in np.unique(sizes):
        idx = np.flatnonzero(sizes == b)
        if b <= data.p + data.p0:
            reasons[int(idx[0])] = TOO_FEW_ROWS.format(b, data.p, data.p0)
            continue
        rows = order[starts[idx, None] + np.arange(b)]
        r2, j, reason = _r2_stack(data.x0[rows], data.x[rows], data.y[rows])
        if j is not None:
            reasons[int(idx[j])] = reason
            continue
        out[idx] = log_stat(r2, int(b), data.p, data.p0, stat)[0]
    if reasons:
        i = min(reasons)
        raise RankError(f"a subset of the split is unusable: {reasons[i]}", subset=i)
    return out


@dataclass(frozen=True)
class DPTestResult:
    """Private test output: the noisy average of censored log statistics.

    ``law`` is the noise law of the release.  ``per_subset_logs`` (the
    censored per-subset values) is not part of the release: only a
    non-private record may carry it.
    """

    log_bstar: float
    log_bstar_censored: float
    per_subset_logs: np.ndarray
    law: NoiseScale
    budget: PrivacyBudget
    bounds: CensorBounds

    @property
    def M(self) -> int:
        return self.per_subset_logs.shape[0]

    def posterior_h0(self, pi0: float = 0.5) -> float:
        return posterior_probability(self.log_bstar, pi0)

    def to_record(self, pi0: float = 0.5) -> dict:
        """The release, its law and budget, and the posterior it gives."""
        return {
            "log_bstar": self.log_bstar,
            "log_bstar_censored": self.log_bstar_censored,
            "p_h0": self.posterior_h0(pi0),
            "p_h1": 1.0 - self.posterior_h0(pi0),
            "epsilon": self.budget.epsilon,
            "delta": self.budget.delta,
            "M": self.M,
            "L": self.bounds.L,
            "U": self.bounds.U,
            "mechanism": self.law.mechanism,
        }


def aggregate_private(
    per_subset: np.ndarray,
    bounds: CensorBounds,
    budget: PrivacyBudget,
    rng: np.random.Generator,
    *,
    with_noise: bool = True,
) -> DPTestResult:
    """Censor, average, and privatize per-subset log statistics
    (:func:`release_means` on one row).

    ``with_noise=False`` gives the noiseless aggregate (oracle runs and
    tests) while keeping the rest of the pipeline intact.
    """
    censored = np.array(per_subset, dtype=float)
    if censored.ndim != 1 or censored.size == 0:
        raise ConfigError("per-subset statistics must be a nonempty 1-d array")
    law = subsample_noise_scale(bounds, censored.size, budget)
    log_bstar = float(release_means(censored, bounds, budget, rng, with_noise=with_noise))
    return DPTestResult(
        log_bstar=log_bstar,
        log_bstar_censored=float(censor(log_bstar, bounds)),
        per_subset_logs=censored,
        law=law,
        budget=budget,
        bounds=bounds,
    )


def posterior_probability(log_bstar: float, pi0: float) -> float:
    """Posterior probability of the null: pi0 / (pi0 + (1-pi0) B*).

    Evaluated through the logistic function so extreme log Bayes factors
    cannot overflow.
    """
    if not 0.0 <= pi0 <= 1.0:
        raise ConfigError(f"pi0 must lie in [0, 1], got {pi0}")
    if pi0 == 0.0:
        return 0.0
    if pi0 == 1.0:
        return 1.0
    return float(expit(-(log_bstar + math.log((1.0 - pi0) / pi0))))
