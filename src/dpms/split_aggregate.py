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
from scipy.special import expit

from .errors import ConfigError, DataError, RankError, SplitInfeasibleError
from .linmodel import (
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    log_bayes_factor,
    log_info_criterion,
    r_squared,
    reparametrize,
)
from .mechanisms import NoiseScale, PrivacyBudget, subsample_noise_scale

__all__ = [
    "CensorBounds",
    "SplitPlan",
    "DPTestResult",
    "default_bounds",
    "make_split",
    "censor",
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

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.M)

    def rows(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == i)


def make_split(n: int, M: int, min_subset: int, seed: int) -> SplitPlan:
    """Random near-equal partition of n rows into M subsets.

    Sizes differ by at most one, larger blocks first; the permutation is
    seeded so the same seed reproduces the same assignment.
    """
    if M < 1 or n < 1:
        raise ConfigError(f"need n >= 1 and M >= 1, got n={n}, M={M}")
    base, extra = divmod(n, M)
    sizes = np.full(M, base)
    sizes[:extra] += 1
    if sizes.min() < min_subset:
        raise SplitInfeasibleError(
            f"cannot split n={n} into M={M} subsets of at least {min_subset} rows"
        )
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    start = 0
    for i, size in enumerate(sizes):
        assignment[perm[start:start + size]] = i
        start += size
    return SplitPlan(M=M, assignment=assignment, seed=seed)


def censor(x, bounds: CensorBounds):
    """Clamp a value (or array) to [L, U]."""
    return np.clip(x, bounds.L, bounds.U)


def per_subset_log_stats(
    data: RegressionData,
    plan: SplitPlan,
    stat: GPriorSpec | InfoCriterionSpec,
) -> np.ndarray:
    """Uncensored per-subset log statistics.

    Each subset is reparametrized and scored with its own sample size
    (so the sample-size g-prior uses g = b_i, and AIC resolves rho at
    b_i).  A rank-deficient subset design is a hard error naming the
    subset; silently dropping it would change the privacy analysis.
    """
    if plan.n != data.n:
        raise DataError(f"split plan covers {plan.n} rows but data has {data.n}")
    out = np.empty(plan.M)
    for i in range(plan.M):
        rows = plan.rows(i)
        try:
            sub = data.subset(rows)
            c = reparametrize(sub)
            r2 = r_squared(c)
        except (RankError, DataError) as exc:
            raise RankError(f"subset {i} of the split is unusable: {exc}") from exc
        b = rows.size
        if isinstance(stat, GPriorSpec):
            out[i] = log_bayes_factor(r2, b, data.p, data.p0, stat)
        else:
            out[i] = log_info_criterion(r2, b, data.p, stat)
    return out


@dataclass(frozen=True)
class DPTestResult:
    """Private test output: the noisy average of censored log statistics.

    ``law`` is the noise law of the release and ``noise`` its realised
    value.  ``per_subset_logs`` (the censored per-subset values) is
    retained for the non-private diagnostics mode only and must never
    appear in output marked private; ``to_record`` enforces that.
    """

    log_bstar: float
    log_bstar_censored: float
    per_subset_logs: np.ndarray
    law: NoiseScale
    noise: float
    budget: PrivacyBudget
    bounds: CensorBounds

    @property
    def M(self) -> int:
        return self.per_subset_logs.shape[0]

    def posterior_h0(self, pi0: float = 0.5) -> float:
        return posterior_probability(self.log_bstar, pi0)

    def to_record(self, pi0: float = 0.5, seed: int | None = None, private: bool = True) -> dict:
        rec = {
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
            "seed": seed,
        }
        if not private:
            rec["per_subset_logs"] = [float(v) for v in self.per_subset_logs]
        return rec


def aggregate_private(
    per_subset: np.ndarray,
    bounds: CensorBounds,
    budget: PrivacyBudget,
    rng: np.random.Generator,
    *,
    noise_value: float | None = None,
) -> DPTestResult:
    """Censor, average, and privatize per-subset log statistics.

    ``noise_value`` overrides the sampled noise (test hook; 0.0 gives the
    noiseless aggregate while keeping the rest of the pipeline intact).
    """
    per_subset = np.asarray(per_subset, dtype=float)
    if per_subset.ndim != 1 or per_subset.size == 0:
        raise ConfigError("per-subset statistics must be a nonempty 1-d array")
    censored = censor(per_subset, bounds)
    law = subsample_noise_scale(bounds, per_subset.size, budget)
    noise = law.sample(rng) if noise_value is None else float(noise_value)
    log_bstar = float(np.mean(censored)) + noise
    return DPTestResult(
        log_bstar=log_bstar,
        log_bstar_censored=float(censor(log_bstar, bounds)),
        per_subset_logs=censored,
        law=law,
        noise=noise,
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
