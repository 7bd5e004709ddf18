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

# Why a design and response are unusable, in the order the checks run.  The
# texts carry no number computed from the data: a private run prints them.
UNUSABLE = (
    "combined design [x0 x] is rank deficient",
    "common predictor block x0 is rank deficient",
    "centered response has zero sum of squares",
    "the tested block fits the response exactly (R^2 = 1)",
)
TOO_FEW_ROWS = "need n > p + p0, got n={}, p={}, p0={}"


def expit(x):
    """The logistic function 1/(1 + e^-x) of a scalar or an array.

    Where e^-x overflows the result is 0, without a warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _rank_deficient(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (..., r, c) stack has its smallest singular
    value at most ``_RANK_RTOL`` times its largest."""
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., -1] <= _RANK_RTOL * s[..., 0]


def _project(x0: np.ndarray, y: np.ndarray, x: np.ndarray):
    """Project y (..., n) and x (..., n, p) off the columns of x0
    (..., n, p0) by an unpivoted QR of x0, never forming the projector:
    (z, v, dependent), with ``dependent`` flagging each column of x0 whose
    |diag R| is at most ``_RANK_RTOL`` times the largest, a column in the
    span of the columns before it."""
    q, r = np.linalg.qr(x0)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    z = y - (q @ (q.mT @ y[..., None]))[..., 0]
    v = x - q @ (q.mT @ x)
    return z, v, diag <= _RANK_RTOL * diag.max(axis=-1, keepdims=True)


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
            raise DataError(TOO_FEW_ROWS.format(n, self.p, self.p0))
        if self.x0.size + self.x.size and _rank_deficient(np.hstack([self.x0, self.x])):
            raise RankError(UNUSABLE[0])

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p0(self) -> int:
        return self.x0.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[1]


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

    Raises RankError if x0 is rank deficient, with ``column`` its first
    dependent column (see :func:`_project`).
    """
    z, v, dependent = _project(data.x0, data.y, data.x)
    if dependent.any():
        raise RankError(UNUSABLE[1], column=int(dependent.argmax()))
    return CenteredData(z=z, v=v)


def r_squared(c: CenteredData) -> float:
    """R^2 of the tested block: z' P_v z / z'z, via QR of v."""
    zz = float(c.z @ c.z)
    if zz <= 0.0:
        raise DegenerateResponseError(UNUSABLE[2])
    q, _ = np.linalg.qr(c.v)
    proj = q.T @ c.z
    r2 = float(proj @ proj) / zz
    # Guard against roundoff pushing the ratio a hair outside [0, 1].
    return min(max(r2, 0.0), 1.0)


def _r2_stack(x0: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int | None, str]:
    """R^2 of the tested block for a (k, b, .) stack of equal-size subsets,
    the position of the first unusable subset (None if none is) and the
    first reason of ``UNUSABLE`` it meets: a rank-deficient [x0 x], a
    centered response that is zero up to ``_RANK_RTOL`` of the response,
    or a perfect fit.

    The check of :func:`reparametrize` on x0 alone would never decide:
    with x0 = QR, in exact arithmetic sigma_min([x0 x]) <= sigma_min(x0)
    <= min |R_ii| and sigma_max([x0 x]) >= sigma_max(x0) >= max |R_ii|, so
    an x0 whose QR flags a column has its [x0 x] flagged by the SVD test.
    """
    z, v, _ = _project(x0, y, x)
    zz = np.einsum("kb,kb->k", z, z)
    yy = np.einsum("kb,kb->k", y, y)
    proj = np.linalg.qr(v)[0].mT @ z[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.clip(np.einsum("kpi,kpi->k", proj, proj) / zz, 0.0, 1.0)
    reasons = (UNUSABLE[0], UNUSABLE[2], UNUSABLE[3])
    failed = np.stack([
        _rank_deficient(np.concatenate([x0, x], axis=2)),
        zz <= _RANK_RTOL**2 * yy,
        ~(r2 < 1.0),
    ])
    bad = failed.any(axis=0)
    if not bad.any():
        return r2, None, ""
    j = int(bad.argmax())
    return r2, j, reasons[int(failed[:, j].argmax())]


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
            if self.g is None or not 0 <= self.g < math.inf:
                raise ConfigError(f"fixed-g prior requires a finite g >= 0, got {self.g}")
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
            if self.rho is None or not 0 <= self.rho < math.inf:
                raise ConfigError(f"custom criterion requires a finite rho >= 0, got {self.rho}")
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

    def rho_at(self, n: int, p):
        """The penalty exponent at sample size n for model size p, an int
        or an integer array (then an array for BIC and AIC)."""
        if self.kind == "bic":
            return 1.0 * p
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
    r2, n: int, k, p0: int, stat: GPriorSpec | InfoCriterionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Log statistic and shrinkage factor per R^2 value.

    The log statistic of a size-k model is the log Bayes factor against
    the null under a g-prior (log of the integral of
    (g+1)^((n-k-p0)/2) [1 + g (1-R^2)]^(-(n-p0)/2) against the prior on g)
    or the log information criterion -(rho/2) log n - (n/2) log(1 - R^2).
    The shrinkage multiplies the least-squares coefficients in the
    posterior mean: g/(1+g) for a point mass, its posterior mean under
    Zellner-Siow, 1 for an information criterion.  ``r2`` is an array of
    values in [0, 1) and ``k`` an int or an integer array of model sizes,
    broadcast against it; both results have the broadcast shape, and each
    value equals that of a call with its own scalar k.
    """
    r2 = np.asarray(r2, dtype=float)
    k = np.asarray(k)
    r2 = np.broadcast_to(r2, np.broadcast_shapes(r2.shape, k.shape))
    if isinstance(stat, InfoCriterionSpec):
        rho = stat.rho_at(n, k)
        return -0.5 * rho * math.log(n) - 0.5 * n * np.log1p(-r2), np.ones_like(r2)
    if np.any(n <= k + p0):
        raise DataError(TOO_FEW_ROWS.format(n, int(k.max()), p0))
    if stat.kind == "zellner-siow":
        return _zs_batch(r2, n, k, p0)
    g = stat.g if stat.kind == "fixed-g" else float(n)
    return (0.5 * (n - k - p0) * math.log1p(g) - 0.5 * (n - p0) * np.log1p(g * (1.0 - r2)),
            np.full_like(r2, g / (1.0 + g)))


# Most step halvings of the ZS rule; most integrand values in one evaluation
# (an evaluation holds about four arrays of this size, 1 MB each, at once).
ZS_HALVINGS = 8
_ZS_VALUES = 2**17


def _zs_batch(r2: np.ndarray, n: int, p, p0: int) -> tuple[np.ndarray, np.ndarray]:
    """Zellner-Siow log integrals and shrinkages for an array of R^2 values,
    each of the model size p (an int or an integer array) broadcast to it.

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
    where l is almost flat and l''(mode) near 0.  Since a - b = -p/2, l is
    evaluated as
        l(s) = a log1p(R^2 sigma_r / (1-R^2)) - (p/2) log1p(u) - s/2 - (n/2) e^(-s),
    with u = e^s (1-R^2) and R^2 sigma_r / (1-R^2) = R^2 e^s / (1 + u): the
    form above subtracts two terms near n s / 2, whose rounding would cost
    about 1e-16 n s / 2 in l (1e-12 relative in the log integral at n = 1e8).
    The step starts at 1/8 and halves, reusing the earlier nodes, until two
    successive sums agree to 1e-8 relative.  Each value carries its own a
    and p/2 and keeps its first converged result, so a stack of values,
    of one size or of many, gives bitwise the results of one call per
    value.  The shrinkage, the posterior mean of g/(1+g) = sigma(s), uses
    the same nodes.  Tails not negligible at t = +-6, or no convergence
    after ZS_HALVINGS halvings, raise a NumericError carrying the failing
    value's r2 and p, with n and p0.
    """
    shape = np.broadcast_shapes(np.shape(r2), np.shape(p))
    flat = np.broadcast_to(np.asarray(r2, dtype=float), shape).ravel()
    sizes = np.broadcast_to(p, shape).ravel()
    low = np.flatnonzero(sizes < 1)
    if low.size:
        raise DataError(f"the tested block must have p >= 1 columns, got {sizes[low[0]]}")
    a, b, half_p = 0.5 * (n - sizes - p0), 0.5 * (n - p0), 0.5 * sizes
    shift = np.log1p(-flat)

    def ell(s, rows):
        # l at the nodes s (R, T) of the values ``rows`` (R,), and e^(-s),
        # from which sigma(s) = 1/(1 + e^(-s)) is bitwise expit's.  Nodes
        # lie within w sinh(6) < 202 of a mode in [-40, 80 + log n], so
        # neither e^s nor e^(-s) can overflow.  In place, to hold few arrays
        # at once.
        r2 = flat[rows, None]
        g = np.exp(s)
        u = g * (1.0 - r2)
        g *= r2
        g /= 1.0 + u
        out = np.log1p(g, out=g)
        out *= a[rows, None]
        np.log1p(u, out=u)
        u *= half_p[rows, None]
        out -= u
        out -= 0.5 * s
        decay = np.exp(-s)
        out -= 0.5 * n * decay
        return out, decay

    mode, step = np.full_like(flat, -40.0), 120.0 + math.log(n)
    for _ in range(18):
        step *= 0.5
        mid = mode + step
        rising = a * expit(mid) - b * expit(mid + shift) - 0.5 + 0.5 * n * np.exp(-mid) > 0.0
        mode = np.where(rising, mid, mode)
    # expit(-x) is 1 - expit(x) without the cancellation.
    w = np.minimum(1.0, (0.5 * n * np.exp(-mode) - a * expit(mode) * expit(-mode)
                         + b * expit(mode + shift) * expit(-mode - shift)) ** -0.5)
    idx = np.arange(flat.size)
    peak = ell(mode[:, None], idx)[0][:, 0]
    ends = mode[:, None] + (w * math.sinh(6.0))[:, None] * np.array([-1.0, 1.0])
    wide = np.flatnonzero(ell(ends, idx)[0].max(axis=1) - peak > math.log(1e-16 / math.cosh(6.0)))
    if wide.size:
        raise NumericError("Zellner-Siow integrand is not negligible at the ends of its range",
                           {"r2": float(flat[wide[0]]), "n": n, "p": int(sizes[wide[0]]),
                            "p0": p0})
    # Node sums of f, the integrand in t over its peak and without w, and of sigma(s) f.
    h, total = 0.25, np.zeros((2, flat.size))
    out = np.empty((2, flat.size))
    for level in range(ZS_HALVINGS + 1):
        h *= 0.5
        t = np.arange(-6.0 + h, 6.0, 2.0 * h) if level else np.linspace(-6.0, 6.0, 97)
        more = np.empty_like(total)
        block = max(1, _ZS_VALUES // t.size)
        for j in range(0, idx.size, block):
            rows = idx[j:j + block]
            s = mode[rows, None] + w[rows, None] * np.sinh(t)
            log_f, sigma = ell(s, rows)
            f = np.exp(log_f - peak[rows, None]) * np.cosh(t)
            sigma += 1.0
            np.divide(1.0, sigma, out=sigma)
            sigma *= f
            more[:, j:j + block] = f.sum(axis=1), sigma.sum(axis=1)
        done = np.abs(more[0] - total[0]) <= 1e-8 * (total[0] + more[0])
        total += more
        hit = idx[done]
        out[0, hit] = (peak[hit] + 0.5 * math.log(n / (2.0 * math.pi))
                       + np.log(h * w[hit] * total[0, done]))
        out[1, hit] = total[1, done] / total[0, done]
        idx, total = idx[~done], total[:, ~done]
        if not idx.size:
            return out[0].reshape(shape), out[1].reshape(shape)
    raise NumericError("Zellner-Siow quadrature did not converge",
                       {"r2": float(flat[idx[0]]), "n": n, "p": int(sizes[idx[0]]), "p0": p0})


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
