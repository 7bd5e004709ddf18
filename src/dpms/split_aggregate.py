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
    _RANK_RTOL,
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    log_stat,
    r_squared,
    reparametrize,
)
# Bound here because perfbench/tracing.py wraps them under dpms.split_aggregate.
from .linmodel import log_bayes_factor, log_info_criterion  # noqa: F401
from .mechanisms import NoiseScale, PrivacyBudget, subsample_noise_scale

__all__ = [
    "CensorBounds",
    "SplitPlan",
    "DPTestResult",
    "default_bounds",
    "split_sizes",
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


# What each check of _r2_stack found, in its order.
_UNUSABLE = (
    "combined design [x0 x] is rank deficient",
    "common predictor block x0 is rank deficient",
    "centered response has zero sum of squares",
    "the tested block fits the response exactly (R^2 = 1)",
)


def _r2_stack(x0: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int | None, str]:
    """R^2 of the tested block for a (k, b, .) stack of equal-size subsets,
    the position of the first unusable subset (None if none is) and the
    first check it fails.

    An unusable subset has a rank-deficient [x0 x] or x0 (relative
    singular-value or QR-diagonal tolerance ``_RANK_RTOL``), a centered
    response that is zero up to ``_RANK_RTOL`` of the response, or a
    perfect fit.
    """
    s = np.linalg.svd(np.concatenate([x0, x], axis=2), compute_uv=False)
    q, r = np.linalg.qr(x0)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    z = y - (q @ (q.mT @ y[..., None]))[..., 0]
    v = x - q @ (q.mT @ x)
    zz = np.einsum("kb,kb->k", z, z)
    yy = np.einsum("kb,kb->k", y, y)
    proj = np.linalg.qr(v)[0].mT @ z[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.clip(np.einsum("kpi,kpi->k", proj, proj) / zz, 0.0, 1.0)
    failed = np.stack([
        s[:, -1] <= _RANK_RTOL * s[:, 0],
        diag.min(axis=1) <= _RANK_RTOL * diag.max(axis=1),
        zz <= _RANK_RTOL**2 * yy,
        ~(r2 < 1.0),
    ])
    bad = failed.any(axis=0)
    if not bad.any():
        return r2, None, ""
    j = int(bad.argmax())
    return r2, j, _UNUSABLE[int(failed[:, j].argmax())]


def _subset_error(data: RegressionData, rows: np.ndarray, i: int, reason: str) -> RankError:
    """The error for unusable subset i: the message of the per-subset
    route (reparametrize, r_squared, the R^2 range check) where it raises,
    else ``reason``."""
    try:
        r2 = r_squared(reparametrize(data.subset(rows)))
        if r2 >= 1.0:
            raise DataError(f"R^2 must lie in [0, 1), got {r2}")
    except DataError as exc:  # RankError and DegenerateResponseError included
        reason = str(exc)
    return RankError(f"subset {i} of the split is unusable: {reason}")


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
    response) is a hard error naming the first such subset; silently
    dropping it would change the privacy analysis.
    """
    if plan.n != data.n:
        raise DataError(f"split plan covers {plan.n} rows but data has {data.n}")
    sizes = plan.sizes
    order = np.argsort(plan.assignment, kind="stable")
    starts = np.cumsum(sizes) - sizes
    out = np.empty(plan.M)
    reasons = {}
    for b in np.unique(sizes):
        idx = np.flatnonzero(sizes == b)
        if b <= data.p + data.p0:
            reasons[int(idx[0])] = f"need n > p + p0, got n={b}, p={data.p}, p0={data.p0}"
            continue
        rows = order[starts[idx, None] + np.arange(b)]
        r2, j, reason = _r2_stack(data.x0[rows], data.x[rows], data.y[rows])
        if j is not None:
            reasons[int(idx[j])] = reason
            continue
        out[idx] = log_stat(r2, int(b), data.p, data.p0, stat)[0]
    if reasons:
        i = min(reasons)
        raise _subset_error(data, plan.rows(i), i, reasons[i])
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
