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


def _zs_log_integrand(s: np.ndarray, r2, n: int, p: int, p0: int) -> np.ndarray:
    """Log of the Zellner-Siow integrand after g = e^s, including Jacobian.

    The mixing density is inverse-gamma(1/2, n/2):
    pi(g) = sqrt(n/(2 pi)) g^(-3/2) exp(-n/(2g)).
    """
    g = np.exp(s)
    return (
        0.5 * (n - p - p0) * np.log1p(g)
        - 0.5 * (n - p0) * np.log1p(g * (1.0 - r2))
        + 0.5 * math.log(n / (2.0 * math.pi))
        - 0.5 * s
        - 0.5 * n * np.exp(-s)
    )


# 15-point Kronrod rule with the embedded 7-point Gauss rule (nodes on
# [-1, 1], ascending; the Gauss nodes are the odd-indexed Kronrod nodes).
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# Both rules as the columns of one (15, 2) matrix, Gauss weights on the
# Kronrod grid.
_KG_WEIGHTS = np.column_stack([_K15_WEIGHTS, np.zeros(15)])
_KG_WEIGHTS[1::2, 1] = _G7_WEIGHTS


# Models per vectorized quadrature pass: the coarse peak grid alone takes
# 2001 values per model.
ZS_CHUNK = 64


def _zs_batch(
    r2: np.ndarray, n: int, p: int, p0: int, *, epsrel: float = 1e-8, initial_panels: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Zellner-Siow log integrals and shrinkages for an array of R^2 values,
    in chunks of ZS_CHUNK models (see :func:`_zs_chunk`)."""
    if p < 1:
        raise DataError(f"the tested block must have p >= 1 columns, got {p}")
    flat = np.asarray(r2, dtype=float).ravel()
    log_int, shrink = np.empty_like(flat), np.empty_like(flat)
    for lo in range(0, flat.size, ZS_CHUNK):
        part = slice(lo, lo + ZS_CHUNK)
        log_int[part], shrink[part] = _zs_chunk(flat[part], n, p, p0, epsrel, initial_panels)
    return log_int.reshape(np.shape(r2)), shrink.reshape(np.shape(r2))


def _zs_chunk(
    r2: np.ndarray, n: int, p: int, p0: int, epsrel: float, initial_panels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive Gauss-Kronrod quadrature for the Zellner-Siow integral, run
    for every R^2 value of a chunk at once.

    The support change u = g/(1+g) = expit(s) with s = log g turns the
    half-line into a tamed integrand whose peak has O(1) width in s, so
    panels are laid out in s.  Per model, panels whose Kronrod-Gauss
    discrepancy exceeds their share of the relative tolerance are split in
    half until the model's total estimated error is below ``epsrel``; a
    model leaves the pass as soon as it converges.  The panels of all
    models live in flat arrays with an owner index, ordered by model and
    then by position.

    Returns the log integral and the posterior mean of g/(1+g) (the
    shrinkage factor of the posterior mean under this prior) per model.
    """
    size = r2.size
    # Locate each peak on a coarse grid; the right tail decays like
    # exp(-s (p+1)/2), so the grid must reach ~160/(p+1) past the mode,
    # which itself can sit near log(n/p) - log(1-r2).  Grid axis first.
    s_max = np.array([math.log(10.0 * n) - math.log1p(-r) + 10.0 + 160.0 / (p + 1)
                      for r in r2])
    s_grid = np.linspace(-25.0, s_max, 2001)
    ell = _zs_log_integrand(s_grid, r2, n, p, p0)
    m = ell.max(axis=0)
    keep = ell >= m - 80.0
    models = np.arange(size)
    s_lo = s_grid[keep.argmax(axis=0), models]
    s_hi = s_grid[s_grid.shape[0] - 1 - keep[::-1].argmax(axis=0), models]
    same = s_lo == s_hi
    s_lo, s_hi = np.where(same, s_lo - 1.0, s_lo), np.where(same, s_hi + 1.0, s_hi)

    edges = np.linspace(s_lo, s_hi, initial_panels + 1).T
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.repeat(models, initial_panels)
    log_int, shrink = np.empty(size), np.empty(size)
    for _ in range(40):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        x = mid[:, None] + half[:, None] * _K15_NODES
        fx = np.exp(_zs_log_integrand(x, r2[owner, None], n, p, p0) - m[owner, None])
        k15, g7 = (fx @ _KG_WEIGHTS * half[:, None]).T
        err = np.abs(k15 - g7)
        panels = np.bincount(owner, minlength=size)
        total = np.bincount(owner, k15, minlength=size)
        done = (total > 0.0) & (np.bincount(owner, err, minlength=size) <= epsrel * total)
        if done.any():
            k15_u = np.bincount(owner, (expit(x) * fx) @ _K15_WEIGHTS * half, minlength=size)
            log_int[done] = m[done] + np.log(total[done])
            shrink[done] = k15_u[done] / total[done]
            live = ~done[owner]
            if not live.any():
                return log_int, shrink
            a, b, mid, err, owner = a[live], b[live], mid[live], err[live], owner[live]
        tol = epsrel * np.maximum(total, np.finfo(float).tiny) / np.maximum(panels, 1)
        bad = err > tol[owner]
        calm = np.bincount(owner, bad, minlength=size)[owner] == 0
        if calm.any():
            # A model with no panel over its share splits its worst panels.
            worst = np.full(size, -np.inf)
            np.maximum.at(worst, owner, err)
            bad |= calm & (err == worst[owner])
        # Split each bad panel [a, b] at its midpoint, in place.
        rep = 1 + bad
        grown = np.bincount(owner, rep, minlength=size)
        if grown.max() > 4096:
            stuck = int(grown.argmax())
            break
        first = np.cumsum(rep) - rep
        a, b, owner = np.repeat(a, rep), np.repeat(b, rep), np.repeat(owner, rep)
        b[first[bad]] = mid[bad]
        a[first[bad] + 1] = mid[bad]
    else:
        stuck = int(owner[0])
    raise NumericError(
        "Zellner-Siow quadrature did not converge",
        {"r2": float(r2[stuck]), "n": n, "p": p, "p0": p0, "panels": int(panels[stuck])},
    )


def _zs_quadrature(
    r2: float, n: int, p: int, p0: int, *, epsrel: float = 1e-8, initial_panels: int = 16
) -> tuple[float, float]:
    """(log integral, shrinkage) of the Zellner-Siow quadrature for one R^2
    value (see :func:`_zs_chunk`)."""
    log_int, shrink = _zs_batch(np.array([r2], dtype=float), n, p, p0,
                                epsrel=epsrel, initial_panels=initial_panels)
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
