"""Non-private linear-model statistics.

Reparametrization onto the orthogonal complement of the common predictors,
the coefficient of determination of the tested block, log Bayes factors
under mixtures of g-priors, and log information criteria.  These are the
building blocks that the private pipelines censor, aggregate, and perturb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _qr
from scipy.special import expit

from .errors import ConfigError, DataError, DegenerateResponseError, NumericError, RankError

__all__ = [
    "RegressionData",
    "CenteredData",
    "GPriorSpec",
    "InfoCriterionSpec",
    "reparametrize",
    "r_squared",
    "log_stat",
    "log_bayes_factor",
    "log_info_criterion",
    "zs_shrinkage",
]

_RANK_RTOL = 1e-10


def _check_full_rank(m: np.ndarray, what: str) -> None:
    if m.size == 0:
        return
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= _RANK_RTOL * s[0]:
        raise RankError(f"{what} is rank deficient (smallest/largest singular value "
                        f"= {s[-1] / s[0]:.3e})")


@dataclass
class RegressionData:
    """Raw regression inputs: response y, common block x0, tested block x.

    Requires n > p + p0 and a full-rank combined design [x0 x].
    """

    y: np.ndarray
    x0: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.x0 = np.asarray(self.x0, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.x0.ndim == 1:
            self.x0 = self.x0[:, None]
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        n = self.y.shape[0]
        if self.x0.shape[0] != n or self.x.shape[0] != n:
            raise DataError("y, x0, x must have the same number of rows")
        if n <= self.p + self.p0:
            raise DataError(f"need n > p + p0, got n={n}, p={self.p}, p0={self.p0}")
        _check_full_rank(np.hstack([self.x0, self.x]), "combined design [x0 x]")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p0(self) -> int:
        return self.x0.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def subset(self, rows: np.ndarray) -> "RegressionData":
        return RegressionData(self.y[rows], self.x0[rows], self.x[rows])


@dataclass
class CenteredData:
    """Response and tested predictors projected off the common block."""

    z: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> int:
        return self.v.shape[1]


def reparametrize(data: RegressionData) -> CenteredData:
    """Project y and x onto the orthogonal complement of x0.

    Uses a QR factorization of x0; the projector is never formed
    explicitly.  Raises RankError naming the first dependent column if x0
    is rank deficient.
    """
    x0 = data.x0
    q, r, piv = _qr(x0, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    bad = np.flatnonzero(diag <= _RANK_RTOL * diag[0])
    if bad.size:
        col = int(piv[bad[0]])
        raise RankError(f"common predictor block x0 is rank deficient at column {col}", column=col)
    z = data.y - q @ (q.T @ data.y)
    v = data.x - q @ (q.T @ data.x)
    return CenteredData(z=z, v=v)


def r_squared(c: CenteredData) -> float:
    """R^2 of the tested block: z' P_v z / z'z, via QR of v."""
    zz = float(c.z @ c.z)
    if zz <= 0.0:
        raise DegenerateResponseError("centered response has zero sum of squares")
    q, _ = np.linalg.qr(c.v)
    proj = q.T @ c.z
    r2 = float(proj @ proj) / zz
    # Guard against roundoff pushing the ratio a hair outside [0, 1].
    return min(max(r2, 0.0), 1.0)


@dataclass(frozen=True)
class GPriorSpec:
    """Prior on the g-prior scale: a point mass or the Zellner-Siow mixture.

    ``sample-size`` resolves g to the sample size of whatever dataset the
    statistic is evaluated on (the g = n convention), so subsets use their
    own sizes.
    """

    kind: str  # "fixed-g" | "sample-size" | "zellner-siow"
    g: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed-g", "sample-size", "zellner-siow"):
            raise ConfigError(f"unknown g-prior kind {self.kind!r}")
        if self.kind == "fixed-g":
            if self.g is None or self.g < 0:
                raise ConfigError("fixed-g prior requires g >= 0")
        elif self.g is not None:
            raise ConfigError(f"{self.kind} prior takes no g value")

    @classmethod
    def fixed(cls, g: float) -> "GPriorSpec":
        return cls("fixed-g", float(g))

    @classmethod
    def sample_size(cls) -> "GPriorSpec":
        return cls("sample-size")

    @classmethod
    def zellner_siow(cls) -> "GPriorSpec":
        return cls("zellner-siow")


@dataclass(frozen=True)
class InfoCriterionSpec:
    """Penalty selector for the information criterion: BIC, AIC, LRT, or a
    custom exponent rho."""

    kind: str  # "bic" | "aic" | "lrt" | "custom"
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("bic", "aic", "lrt", "custom"):
            raise ConfigError(f"unknown information criterion {self.kind!r}")
        if self.kind == "custom":
            if self.rho is None or self.rho < 0:
                raise ConfigError("custom criterion requires rho >= 0")
        elif self.rho is not None:
            raise ConfigError(f"{self.kind} criterion takes no rho value")

    @classmethod
    def bic(cls) -> "InfoCriterionSpec":
        return cls("bic")

    @classmethod
    def aic(cls) -> "InfoCriterionSpec":
        return cls("aic")

    @classmethod
    def lrt(cls) -> "InfoCriterionSpec":
        return cls("lrt")

    @classmethod
    def custom(cls, rho: float) -> "InfoCriterionSpec":
        return cls("custom", float(rho))

    def rho_at(self, n: int, p: int) -> float:
        if self.kind == "bic":
            return float(p)
        if self.kind == "aic":
            return 2.0 * p / math.log(n)
        if self.kind == "lrt":
            return 0.0
        return float(self.rho)


def _check_r2(r2: float) -> float:
    if not (0.0 <= r2 < 1.0):
        raise DataError(f"R^2 must lie in [0, 1), got {r2}")
    return float(r2)


def log_stat(
    r2, n: int, k: int, p0: int, stat: GPriorSpec | InfoCriterionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Log statistic and shrinkage factor of size-k models, per R^2 value.

    The log statistic is the log Bayes factor against the null under a
    g-prior (log of the integral of
    (g+1)^((n-k-p0)/2) [1 + g (1-R^2)]^(-(n-p0)/2) against the prior on g)
    or the log information criterion -(rho/2) log n - (n/2) log(1 - R^2).
    The shrinkage multiplies the least-squares coefficients in the
    posterior mean: g/(1+g) for a point mass, its posterior mean under
    Zellner-Siow, 1 for an information criterion.  ``r2`` is an array of
    values in [0, 1); both results have its shape.
    """
    r2 = np.asarray(r2, dtype=float)
    if isinstance(stat, InfoCriterionSpec):
        rho = stat.rho_at(n, k)
        return -0.5 * rho * math.log(n) - 0.5 * n * np.log1p(-r2), np.ones_like(r2)
    if n <= k + p0:
        raise DataError(f"need n > p + p0, got n={n}, p={k}, p0={p0}")
    if stat.kind == "zellner-siow":
        return _zs_batch(r2, n, k, p0)
    g = stat.g if stat.kind == "fixed-g" else float(n)
    return (0.5 * (n - k - p0) * math.log1p(g) - 0.5 * (n - p0) * np.log1p(g * (1.0 - r2)),
            np.full_like(r2, g / (1.0 + g)))


# Most step halvings of the ZS rule; most integrand values in one evaluation.
ZS_HALVINGS = 8
_ZS_VALUES = 2**18


def _zs_batch(r2: np.ndarray, n: int, p: int, p0: int) -> tuple[np.ndarray, np.ndarray]:
    """Zellner-Siow log integrals and shrinkages for an array of R^2 values.

    With g = e^s, a = (n-p-p0)/2, b = (n-p0)/2, sigma the logistic function
    and sigma_r = sigma(s + log(1-R^2)), the integral against the
    inverse-gamma(1/2, n/2) prior is sqrt(n/(2 pi)) times that of exp(l), with
        l(s)   = a log(1 + e^s) - b log(1 + e^s (1-R^2)) - s/2 - (n/2) e^(-s),
        l'(s)  = a sigma(s) - b sigma_r - 1/2 + (n/2) e^(-s),
        l''(s) = a sigma(s)(1-sigma(s)) - b sigma_r(1-sigma_r) - (n/2) e^(-s) < 0,
    as sigma(1-sigma) <= min(1/4, e^(-s)) and a < n/2.  So bisecting l' on
    [-40, 80 + log n] finds the mode, and with w = min(1, (-l''(mode))^-1/2)
    the trapezoid rule in t, s = mode + w sinh(t), t in [-6, 6], converges
    geometrically in the step (Takahasi & Mori 1974); the cap acts near a = 1/2,
    where l is almost flat and l''(mode) near 0.  The step starts at 1/8 and
    halves, reusing the earlier nodes, until two successive sums agree to
    1e-8 relative; a value keeps its first converged result, so a stack of
    values gives bitwise the results of one call per value.  The shrinkage,
    the posterior mean of g/(1+g) = sigma(s), uses the same nodes.  Tails
    not negligible at t = +-6, or no convergence after ZS_HALVINGS
    halvings, raise a NumericError carrying r2, n, p and p0.
    """
    if p < 1:
        raise DataError(f"the tested block must have p >= 1 columns, got {p}")
    flat = np.asarray(r2, dtype=float).ravel()
    a, b, shift = 0.5 * (n - p - p0), 0.5 * (n - p0), np.log1p(-flat)

    def ell(s, shift):
        # Capping e^(-s) only touches nodes already e^(-1e260) below the peak.
        return (a * np.logaddexp(0.0, s) - b * np.logaddexp(0.0, s + shift) - 0.5 * s
                - 0.5 * n * np.exp(-np.maximum(s, -600.0)))

    mode, step = np.full_like(flat, -40.0), 120.0 + math.log(n)
    for _ in range(18):
        step *= 0.5
        mid = mode + step
        rising = a * expit(mid) - b * expit(mid + shift) - 0.5 + 0.5 * n * np.exp(-mid) > 0.0
        mode = np.where(rising, mid, mode)
    # expit(-x) is 1 - expit(x) without the cancellation.
    w = np.minimum(1.0, (0.5 * n * np.exp(-mode) - a * expit(mode) * expit(-mode)
                         + b * expit(mode + shift) * expit(-mode - shift)) ** -0.5)
    peak = ell(mode, shift)
    ends = mode + np.array([[-1.0], [1.0]]) * (w * math.sinh(6.0))
    wide = np.flatnonzero(ell(ends, shift).max(axis=0) - peak > math.log(1e-16 / math.cosh(6.0)))
    if wide.size:
        raise NumericError("Zellner-Siow integrand is not negligible at the ends of its range",
                           {"r2": float(flat[wide[0]]), "n": n, "p": p, "p0": p0})
    # Node sums of f, the integrand in t over its peak and without w, and of sigma(s) f.
    idx, h, total = np.arange(flat.size), 0.25, np.zeros((2, flat.size))
    out = np.empty((2, flat.size))
    for level in range(ZS_HALVINGS + 1):
        h *= 0.5
        t = np.arange(-6.0 + h, 6.0, 2.0 * h) if level else np.linspace(-6.0, 6.0, 97)
        more = np.empty_like(total)
        block = max(1, _ZS_VALUES // t.size)
        for j in range(0, idx.size, block):
            rows = idx[j:j + block]
            s = mode[rows, None] + w[rows, None] * np.sinh(t)
            f = np.exp(ell(s, shift[rows, None]) - peak[rows, None]) * np.cosh(t)
            more[:, j:j + block] = f.sum(axis=1), (expit(s) * f).sum(axis=1)
        done = np.abs(more[0] - total[0]) <= 1e-8 * (total[0] + more[0])
        total += more
        hit = idx[done]
        out[0, hit] = (peak[hit] + 0.5 * math.log(n / (2.0 * math.pi))
                       + np.log(h * w[hit] * total[0, done]))
        out[1, hit] = total[1, done] / total[0, done]
        idx, total = idx[~done], total[:, ~done]
        if not idx.size:
            return out[0].reshape(np.shape(r2)), out[1].reshape(np.shape(r2))
    raise NumericError("Zellner-Siow quadrature did not converge",
                       {"r2": float(flat[idx[0]]), "n": n, "p": p, "p0": p0})


def _zs_quadrature(r2: float, n: int, p: int, p0: int) -> tuple[float, float]:
    """(log integral, shrinkage) of :func:`_zs_batch` for one R^2 value."""
    log_int, shrink = _zs_batch(np.array([r2], dtype=float), n, p, p0)
    return float(log_int[0]), float(shrink[0])


def zs_shrinkage(r2: float, n: int, p: int, p0: int) -> float:
    """Posterior mean of g/(1+g) under the Zellner-Siow prior."""
    return _zs_quadrature(_check_r2(r2), n, p, p0)[1]


def log_bayes_factor(r2: float, n: int, p: int, p0: int, prior: GPriorSpec) -> float:
    """Log Bayes factor of the tested block against the null, given R^2
    (see :func:`log_stat`)."""
    return float(log_stat(_check_r2(r2), n, p, p0, prior)[0])


def log_info_criterion(r2: float, n: int, p: int, spec: InfoCriterionSpec) -> float:
    """Log information criterion: -(rho/2) log n - (n/2) log(1 - R^2)."""
    return float(log_stat(_check_r2(r2), n, p, 0, spec)[0])
