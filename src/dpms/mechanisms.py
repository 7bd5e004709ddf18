"""Noise laws and privacy calibration.

Every noise law of the package lives here, and each release route picks
its law once, from the budget: :func:`subsample_noise_scale` gives the
Laplace or analytic-Gaussian law of a subsample-and-aggregate mean, and
:func:`gram_law` the Laplace or Wishart error law of the Gram release
(:class:`ZeroGramLaw` is the zero-noise oracle).  A Gram law samples its
error as a stack (a single draw is a stack of one), gives the quantiles
of an off-diagonal entry's absolute value (for hard thresholds) and the
auto PD repair's shift, and owns the central (1-alpha) set of its errors
that confidence regions use: ``central_draws`` samples the law restricted
to the set and ``in_central_set`` tests membership.  The set is a box of
per-coordinate quantiles for Laplace, a spectral-norm ball for Wishart
and the origin for the zero law.  The calibrations read the law alone and
are drawn once per law (:class:`_CalibratedLaw`).  The Wishart ball tests
spectral norms against its radius, which is itself a quantile of spectral
norms, and the repair shift is a quantile of smallest eigenvalues; all
three screen the draws with bounds built from matrix products and traces
(:func:`_spectral_norm_bounds`, widened by a stated rounding margin) and
call eigvalsh only on the draws the bounds cannot place, so each result
equals that of an eigvalsh on every draw.  A Laplace or zero stack equals
that many single draws in turn.  A Wishart stack takes its variates in
bulk, so Wishart draws depend on the stack size and on DRAW_CHUNK as well
as on the stream.  Everything is pure given a ``numpy.random.Generator``;
callers own their streams (see :func:`child_rng`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, EmptyRegionError, NumericError, WrongMechanismError

__all__ = [
    "PrivacyBudget",
    "Sensitivity",
    "NoiseScale",
    "LaplaceGramLaw",
    "WishartGramLaw",
    "ZeroGramLaw",
    "CALIBRATION",
    "RELEASE",
    "child_rng",
    "analytic_gaussian_sigma",
    "subsample_noise_scale",
    "gram_law",
    "laplace_gram_scale",
    "laplace_gram_error",
    "wishart_dof",
    "wishart_gram_error",
]

# Monte-Carlo draws behind the Wishart off-diagonal quantile and ball radius.
QUANTILE_DRAWS = 100_000
# Mechanism draws behind the auto repair's 99th-percentile shift.
REPAIR_DRAWS = 1000
# Calibration j of a law with seed s draws from child_rng(s, CALIBRATION, j),
# and a command's release from child_rng(s, RELEASE).  The one-level release
# key never equals a two-level calibration key, so the two cannot share draws.
CALIBRATION = 0
RELEASE = 1
# Largest stack of Gram error draws formed at once.
DRAW_CHUNK = 2_000
# Wishart draws without an acceptance after which central_draws gives up.
STALL = 10_000
# Squarings behind the spectral-norm bounds, and their relative margin per
# m^3.  On the ball radius at alpha = 0.05, six timed as fast as five and
# seven at p = 5 and 10-14% faster than either at p = 12; at alpha = 0.5,
# seven was 4-15% faster than six.
SCREEN_SQUARINGS = 6
SCREEN_MARGIN = 1e-12
# The normal range of float64, which a matrix's sum of squares must lie in.
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
# Bracketing and bisection steps allowed in analytic_gaussian_sigma.
SIGMA_MAX_ITER = 500


@dataclass(frozen=True)
class PrivacyBudget:
    """Privacy parameters (epsilon, delta).

    ``delta == 0`` selects pure-epsilon mechanisms (Laplace family);
    ``delta > 0`` selects the (epsilon, delta) mechanisms (analytic
    Gaussian, Wishart).
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError(f"epsilon must be a positive finite real, got {self.epsilon}")
        if not (0.0 <= self.delta <= 1.0):
            raise ConfigError(f"delta must lie in [0, 1], got {self.delta}")

    @property
    def pure(self) -> bool:
        return self.delta == 0.0


@dataclass(frozen=True)
class Sensitivity:
    """Global sensitivity bounds: l1 is the per-entry data bound, l2 the
    row Euclidean-norm bound."""

    l1: float = 0.0
    l2: float = 0.0

    def __post_init__(self):
        for name in ("l1", "l2"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ConfigError(f"sensitivity {name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class NoiseScale:
    """Noise law of a subsample-and-aggregate release.

    For ``laplace`` the scale is the Laplace scale parameter b; for
    ``gaussian`` it is the standard deviation.
    """

    mechanism: str  # "laplace" | "gaussian"
    scale: float

    def __post_init__(self):
        if self.mechanism not in ("laplace", "gaussian"):
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        if not self.scale > 0:
            raise ConfigError(f"noise scale must be positive, got {self.scale}")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One noise value, or an array of ``size`` values equal to that
        many single draws in turn."""
        if self.mechanism == "laplace":
            return rng.laplace(0.0, self.scale, size)
        return rng.normal(0.0, self.scale, size)


def child_rng(root_seed: int, *indices: int) -> np.random.Generator:
    """Derive an independent child stream from a root seed by stable index.

    Children are independent of scheduling order, so parallel tasks that
    each own ``child_rng(seed, task_index)`` are reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=tuple(indices)))


_SQRT_HALF = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_ndtr(a: float) -> float:
    """log Phi(a), the log of the standard normal CDF, for any float a.

    Phi(a) = erfc(-a/sqrt 2)/2.  Below a = -30, where erfc nears its
    underflow (at a = -37.5), the asymptotic series
    Phi(a) = phi(a)/|a| (1 - 1/a^2 + 3/a^4 - ...) is used; its first
    omitted term there is below 1e-17.
    """
    if a < -30.0:
        x2, term, total = a * a, 1.0, 1.0
        for k in range(1, 8):
            term *= -(2 * k - 1) / x2
            total += term
        return -0.5 * x2 - math.log(-a) - _HALF_LOG_2PI + math.log(total)
    if a < -1.0:
        return math.log(0.5 * math.erfc(-a * _SQRT_HALF))
    return math.log1p(-0.5 * math.erfc(a * _SQRT_HALF))


def _gaussian_delta(sigma: float, epsilon: float, l2: float) -> float:
    """Exact privacy loss delta of the Gaussian mechanism at scale sigma.

    delta(sigma) = Phi(l2/(2 sigma) - eps sigma/l2)
                   - e^eps Phi(-l2/(2 sigma) - eps sigma/l2),
    evaluated through log Phi so the e^eps factor cannot overflow.
    """
    a = l2 / (2.0 * sigma) - epsilon * sigma / l2
    b = -l2 / (2.0 * sigma) - epsilon * sigma / l2
    return float(np.exp(_log_ndtr(a)) - np.exp(epsilon + _log_ndtr(b)))


def analytic_gaussian_sigma(budget: PrivacyBudget, l2: float) -> float:
    """Minimal Gaussian standard deviation meeting (epsilon, delta)-privacy.

    Solves delta(sigma) = delta by bisection on the exact privacy-loss
    curve; the curve is strictly decreasing in sigma, so the bracket is
    well defined.  The returned sigma satisfies delta(sigma) <= delta with
    a bracket of relative width <= 1e-12.
    """
    if budget.delta <= 0 or budget.delta > 1:
        raise WrongMechanismError(
            f"analytic Gaussian mechanism needs 0 < delta <= 1, got {budget.delta}"
        )
    if not l2 > 0:
        raise ConfigError(f"l2 sensitivity must be positive, got {l2}")
    eps, delta = budget.epsilon, budget.delta

    # The condition is scale equivariant: solve for l2 = 1 and rescale.
    hi = max(math.sqrt(2.0 * math.log(1.25 / max(delta, 1e-300))) / eps, 1.0 / eps, 1e-8)
    it = 0
    while _gaussian_delta(hi, eps, 1.0) > delta:
        hi *= 2.0
        it += 1
        if it > SIGMA_MAX_ITER:
            raise NumericError(
                "failed to bracket sigma from above",
                {"epsilon": eps, "delta": delta, "hi": hi},
            )
    lo = hi
    while _gaussian_delta(lo, eps, 1.0) <= delta:
        lo /= 2.0
        it += 1
        if lo < 1e-300 or it > SIGMA_MAX_ITER:
            # delta(sigma) <= delta for arbitrarily small sigma: delta ~ 1.
            return float(lo * l2)
    for _ in range(SIGMA_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if _gaussian_delta(mid, eps, 1.0) <= delta:
            hi = mid
        else:
            lo = mid
        if (hi - lo) <= 1e-12 * hi:
            break
    else:
        raise NumericError(
            "sigma bisection did not reach tolerance",
            {"epsilon": eps, "delta": delta, "lo": lo, "hi": hi},
        )
    return float(hi * l2)


def subsample_noise_scale(bounds, M: int, budget: PrivacyBudget) -> NoiseScale:
    """Noise scale for privatizing a mean of M censored statistics.

    The mean of M subset statistics censored to [L, U] changes by at most
    (U - L)/M when one row changes.  Pure epsilon gives Laplace scale
    (U - L)/(M epsilon); delta > 0 gives the analytic Gaussian sigma for
    l2 sensitivity (U - L)/M.
    """
    if not bounds.U > bounds.L:
        raise ConfigError(f"censor bounds must satisfy L < U, got ({bounds.L}, {bounds.U})")
    if M < 1:
        raise ConfigError(f"M must be >= 1, got {M}")
    width = (bounds.U - bounds.L) / M
    if budget.pure:
        return NoiseScale("laplace", width / budget.epsilon)
    return NoiseScale("gaussian", analytic_gaussian_sigma(budget, width))


def laplace_gram_scale(p: int, epsilon: float, per_entry_sensitivity: float) -> float:
    """Per-entry Laplace scale for releasing the (p+1)x(p+1) Gram matrix.

    The upper triangle holds (p+1)(p+2)/2 statistics, so the total l1
    sensitivity is per_entry_sensitivity * (p+1)(p+2)/2 and the shared
    per-entry scale is that divided by epsilon.
    """
    if not per_entry_sensitivity > 0:
        raise ConfigError("per-entry sensitivity must be positive")
    return per_entry_sensitivity * (p + 1) * (p + 2) / (2.0 * epsilon)


def wishart_dof(p: int, budget: PrivacyBudget) -> int:
    """Degrees of freedom k = floor(p + 1 + 28 log(4/delta) / epsilon^2)."""
    if budget.delta <= 0:
        raise WrongMechanismError("Wishart mechanism requires delta > 0")
    return int(math.floor(p + 1 + 28.0 * math.log(4.0 / budget.delta) / budget.epsilon**2))


def _wishart_bartlett(dim: int, k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` Wishart(k, I_dim) draws via the Bartlett decomposition.

    All below-diagonal normals come from one call, then all diagonal
    chi-squares (k - i degrees of freedom in column i) from another, so a
    stack of one takes its variates in the order a single draw always has.
    """
    il = np.tril_indices(dim, k=-1)
    a = np.zeros((size, dim, dim))
    a[:, il[0], il[1]] = rng.standard_normal((size, il[0].size))
    a[:, np.arange(dim), np.arange(dim)] = np.sqrt(rng.chisquare(k - np.arange(dim), (size, dim)))
    return a @ a.transpose(0, 2, 1)


def _symmetric(dim: int, upper: np.ndarray) -> np.ndarray:
    """The symmetric dim x dim matrices whose upper triangles, read row by
    row, are the last axis of ``upper``."""
    e = np.zeros(upper.shape[:-1] + (dim, dim))
    iu = np.triu_indices(dim)
    e[..., iu[0], iu[1]] = upper
    e[..., iu[1], iu[0]] = upper
    return e


@dataclass(frozen=True, kw_only=True)
class _CalibratedLaw:
    """A noisy Gram law's Monte-Carlo calibrations, each computed at most
    once per law object.  Calibration j (0 the repair shift, 1 the
    off-diagonal quantile, 2 the ball radius) draws from the two-level key
    child_rng(seed, CALIBRATION, j), which no release stream has, so the
    values depend neither on the release nor on which comes first.  The
    repair shift and the ball radius are eigvalsh quantiles, each one
    screened pass (:meth:`_screened`)."""

    seed: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    calibration_stream: ClassVar[tuple[int, ...]] = (CALIBRATION,)

    def _calibrated(self, j: int, key, compute) -> float:
        if (j, key) not in self._memo:
            self._memo[j, key] = compute(child_rng(self.seed, CALIBRATION, j))
        return self._memo[j, key]

    def _screened(self, j: int, key, n: int, q: float, bounds, value) -> float:
        """Calibration (j, key): the q quantile of ``value`` over n draws,
        bitwise that of ``value`` on every draw.  One pass draws DRAW_CHUNK
        stacks and keeps each draw's ``bounds`` and the stream's state before
        each stack; :func:`_screened_quantile` picks the rows it needs, whose
        stacks are drawn again from their saved states, except the last,
        still in memory.  The stream is the law's own, so the replay moves
        no other stream."""
        def quantile(rng):
            states, bracket = [], []
            for start in range(0, n, DRAW_CHUNK):
                states.append(rng.bit_generator.state)
                e = self.sample(rng, min(DRAW_CHUNK, n - start))
                bracket.append(bounds(e))

            def exact(rows):
                x, stack = np.empty(rows.size), rows // DRAW_CHUNK
                for c in np.unique(stack):
                    start, mine = c * DRAW_CHUNK, stack == c
                    drawn = e
                    if c < len(states) - 1:
                        rng.bit_generator.state = states[c]
                        drawn = self.sample(rng, DRAW_CHUNK)
                    x[mine] = value(drawn[rows[mine] - start])
                return x

            return _screened_quantile(*(np.concatenate(b) for b in zip(*bracket)), q, exact)
        return self._calibrated(j, key, quantile)

    @property
    def repair_shift(self) -> float:
        """The auto PD repair's r: the 99th percentile of max(-lambda_min(E),
        0) over REPAIR_DRAWS draws of the law, bitwise that of an eigvalsh
        on every draw, with :func:`_shift_bounds` as the screen."""
        return self._screened(0, None, REPAIR_DRAWS, 0.99, _shift_bounds,
                              lambda e: np.maximum(-np.linalg.eigvalsh(e)[:, 0], 0.0))


@dataclass(frozen=True)
class LaplaceGramLaw(_CalibratedLaw):
    """Gram error with an iid Laplace(0, scale) upper triangle."""

    p: int
    scale: float
    budget: PrivacyBudget
    name: ClassVar[str] = "laplace"

    def __post_init__(self):
        if not self.budget.pure:
            raise WrongMechanismError("Laplace Gram error requires delta = 0")
        if not self.scale > 0:
            raise ConfigError(f"Laplace scale must be positive, got {self.scale}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """An (n, p+1, p+1) stack of errors equal to n single draws in turn."""
        m = self.p + 1
        return _symmetric(m, rng.laplace(0.0, self.scale, size=(n, m * (m + 1) // 2)))

    def offdiag_abs_quantile(self, q: float) -> float:
        # |Laplace(b)| has CDF 1 - exp(-t/b).
        return -self.scale * math.log1p(-q)

    def _half_width(self, alpha: float) -> float:
        """The central box's half-width: each of the c = (p+1)(p+2)/2 free
        coordinates gets its two-sided quantile at level (1-alpha)^(1/c),
        so the box has probability exactly 1 - alpha."""
        m = self.p + 1
        return self.offdiag_abs_quantile((1.0 - alpha) ** (1.0 / (m * (m + 1) // 2)))

    def central_draws(self, alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """n errors restricted to the central box, as an (n, p+1, p+1)
        stack equal to n single draws in turn."""
        # Inverse-CDF sampling of Laplace truncated to [-w, w]: the CDF at
        # w is 1 - exp(-w/b)/2, symmetric about 1/2.
        m, b = self.p + 1, self.scale
        hi = 1.0 - 0.5 * math.exp(-self._half_width(alpha) / b)
        u = rng.uniform(1.0 - hi, hi, size=(n, m * (m + 1) // 2))
        return _symmetric(m, np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 * (1.0 - u))))

    def in_central_set(self, alpha: float, e: np.ndarray) -> bool:
        iu = np.triu_indices(self.p + 1)
        return bool(np.all(np.abs(e[iu]) <= self._half_width(alpha)))


@dataclass(frozen=True)
class WishartGramLaw(_CalibratedLaw):
    """Centered Wishart Gram error E = W - k l2^2 I.

    W ~ Wishart(k, l2^2 I_{p+1}) with k from :func:`wishart_dof`; the
    subtraction centers at E(W), so E + k l2^2 I is always PSD.
    """

    p: int
    k: int
    l2: float
    budget: PrivacyBudget
    name: ClassVar[str] = "wishart"

    def __post_init__(self):
        if self.budget.pure:
            raise WrongMechanismError("Wishart mechanism requires delta > 0")
        if not self.l2 > 0:
            raise ConfigError("row-norm bound must be positive")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """An (n, p+1, p+1) stack of errors whose variates are drawn in bulk."""
        m = self.p + 1
        return self.l2**2 * _wishart_bartlett(m, self.k, n, rng) - self.k * self.l2**2 * np.eye(m)

    def offdiag_abs_quantile(self, q: float) -> float:
        # An off-diagonal entry of Wishart(k, I) is sum_l x_l y_l with x, y
        # iid standard normal, which equals (chi2_k - chi2_k) / 2 in
        # distribution; its quantile is a Monte-Carlo estimate.
        def quantile(rng):
            k, size = self.k, QUANTILE_DRAWS
            draws = np.abs(self.l2**2 * 0.5 * (rng.chisquare(k, size) - rng.chisquare(k, size)))
            return float(np.quantile(draws, q))
        return self._calibrated(1, q, quantile)

    def ball_radius(self, alpha: float) -> float:
        """The (1-alpha) quantile of the spectral norm over QUANTILE_DRAWS
        draws, bitwise the ``np.quantile`` of every draw's eigvalsh norm,
        with :func:`_spectral_norm_bounds` as the screen."""
        return self._screened(2, alpha, QUANTILE_DRAWS, 1.0 - alpha, _spectral_norm_bounds,
                              _spectral_norms)

    def central_draws(self, alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """n errors restricted to the spectral-norm ball of radius
        :meth:`ball_radius`, as an (n, p+1, p+1) stack.

        The radius is the (1-alpha) quantile of the norm, so the ball has
        probability 1 - alpha.  Rejection keeps the accepted draws of whole
        DRAW_CHUNK stacks and returns the first n, so the draws depend on n
        and on DRAW_CHUNK as well as on the stream.  A draw whose
        :func:`_spectral_norm_bounds` upper bound is within the radius is
        accepted and one whose lower bound is beyond it rejected; only the
        rest get an eigvalsh, so the accepted draws are exactly those whose
        eigvalsh norm is within the radius.
        """
        radius = self.ball_radius(alpha)
        kept: list[np.ndarray] = []
        found = stalled = 0
        while found < n:
            e = self.sample(rng, DRAW_CHUNK)
            lo, hi = _spectral_norm_bounds(e)
            inside = hi <= radius
            open_ = ~inside & (lo <= radius)
            inside[open_] = _spectral_norms(e[open_]) <= radius
            e = e[inside]
            stalled = 0 if len(e) else stalled + DRAW_CHUNK
            if stalled >= STALL:
                raise EmptyRegionError("rejection sampling of the Wishart error set stalled")
            kept.append(e)
            found += len(e)
        return np.concatenate(kept)[:n]

    def in_central_set(self, alpha: float, e: np.ndarray) -> bool:
        return bool(_spectral_norms(e) <= self.ball_radius(alpha))


@dataclass(frozen=True)
class ZeroGramLaw:
    """No Gram error at all: the zero-noise (epsilon -> infinity) oracle."""

    p: int
    name: ClassVar[str] = "none"
    budget: ClassVar[None] = None
    repair_shift: ClassVar[float] = 0.0
    calibration_stream: ClassVar[None] = None

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        m = self.p + 1
        return np.zeros((n, m, m))

    def offdiag_abs_quantile(self, q: float) -> float:
        return 0.0

    def central_draws(self, alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
        m = self.p + 1
        return np.zeros((1, m, m))  # a single point needs a single candidate

    def in_central_set(self, alpha: float, e: np.ndarray) -> bool:
        return bool(np.allclose(e, 0.0))


def gram_law(p: int, budget: PrivacyBudget, sens: Sensitivity,
             seed: int) -> LaplaceGramLaw | WishartGramLaw:
    """The error law of a Gram release under this budget.

    delta = 0 gives iid Laplace noise on the upper triangle at the
    per-entry sensitivity 2 * l1^2 (the worst-case change of one Gram
    entry when one data row with entries bounded by l1 is replaced).
    delta > 0 gives the centered Wishart error, which needs the row-norm
    bound l2.  The law draws its calibrations from ``seed`` (see
    :class:`_CalibratedLaw`); build it once per command and pass it on.
    """
    if budget.pure:
        if sens.l1 <= 0:
            raise ConfigError("Laplace Gram release needs the data entry bound sens.l1")
        scale = laplace_gram_scale(p, budget.epsilon, 2.0 * sens.l1**2)
        return LaplaceGramLaw(p, scale, budget, seed=seed)
    if sens.l2 <= 0:
        raise ConfigError("Wishart Gram release needs the row-norm bound sens.l2")
    return WishartGramLaw(p, wishart_dof(p, budget), sens.l2, budget, seed=seed)


def laplace_gram_error(
    p: int,
    budget: PrivacyBudget,
    per_entry_sensitivity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Symmetric (p+1)x(p+1) error with iid Laplace upper triangle."""
    scale = laplace_gram_scale(p, budget.epsilon, per_entry_sensitivity)
    return LaplaceGramLaw(p, scale, budget, seed=0).sample(rng, 1)[0]  # reads no seed


def wishart_gram_error(
    p: int,
    budget: PrivacyBudget,
    l2_row_bound: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One centered Wishart error draw for the Gram release (see
    :class:`WishartGramLaw`)."""
    law = WishartGramLaw(p, wishart_dof(p, budget), l2_row_bound, budget, seed=0)
    return law.sample(rng, 1)[0]


def _spectral_norms(e: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue of each symmetric matrix in a stack."""
    return np.abs(np.linalg.eigvalsh(e)).max(axis=-1)


def _screened_quantile(lo: np.ndarray, hi: np.ndarray, q: float, exact) -> float:
    """``np.quantile(x, q)`` of values x known as lo <= x <= hi, bitwise,
    where ``exact(rows)`` gives x[rows] for the sorted index array rows.

    ``np.quantile`` reads the sorted x at ranks k = floor(v) and k+1 of
    v = (n-1) q, as computed here; the window takes one more rank each
    side, k-1 to k+2, so that a quantile rounding v differently still
    reads inside it.  Every x at those ranks lies in [A, B], with A the
    lower bound at rank k-1 and B the upper bound at rank k+2.  Outside
    ``rows`` (bounds meeting [A, B]) a value is replaced by its lower
    bound, which lies on the same side of [A, B] as the value: as many
    values then lie below A and above B as among the x, and every value
    in [A, B] is exact, so the ranks read hold the x's own values.
    """
    n = lo.size
    k = math.floor((n - 1) * q)
    below, above = max(k - 1, 0), min(k + 2, n - 1)
    a, b = np.partition(lo, below)[below], np.partition(hi, above)[above]
    values = lo.copy()
    rows = np.flatnonzero((hi >= a) & (lo <= b))
    values[rows] = exact(rows)
    return float(np.quantile(values, q))


def _spectral_norm_bounds(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= :func:`_spectral_norms` (e) <= hi, from matmuls alone.

    Each m x m matrix E is divided by its Frobenius norm s, so every
    |eigenvalue| of Q = E/s is at most 1 and the largest at least m^-1/2.
    With j = SCREEN_SQUARINGS, Q is squared j times with no rescaling in
    between, to P = Q^(2^j), which is PSD with ||E||_2 = s x^(2^-j) for x
    its largest eigenvalue.  tr(P^2) lies in [m^(-2^j), m], so nothing
    overflows, and nothing that matters underflows, while m^(2^j) <
    2^1022: at j = 6 for m up to 60,000, at j = 7 still for m = 21
    (ENUMERATION_GUARD + 1).  With t = tr(P) and w = tr(P^2), P's other
    eigenvalues lie in [0, x] and sum to t - x, so their squares sum to
    w - x^2 <= min(x, t - x) (t - x).  Hence x <= sqrt(w), x >= w/t, and
    x >= (t + sqrt(2w - t^2))/2 where 2w > t^2 (then x >= w/t > t/2); that
    last bound is used only where 2w - t^2 >= t^2/4, which keeps its
    rounding error within a few times that of w/t.  A ratio r < 1 of the
    two largest |eigenvalues| of E leaves hi/lo - 1 of order r^(2^(j+1)) /
    2^(j+1); a top |eigenvalue| of multiplicity d (a pair +-lambda has d =
    2) leaves d^(2^-(j+1)).  A zero, subnormal or
    infinite s^2 (entries beyond about 1e+-154) gives no scale: such a
    matrix gets lo = hi = 0 if it is zero and the trivial bracket [0, inf]
    otherwise.  The bounds are widened by SCREEN_MARGIN m^3 relative: each
    squaring of a matrix A errs by at most about m u |A|^2, which moves
    its top eigenvalue by m^2 u relative, and the 2^-j root scales the
    error of squaring i by 2^-i, so the products and traces move the
    bounds by about m^2 u relative and eigvalsh's own result errs by about
    m u ||E||_2 (u = 1.1e-16); the margin exceeds both some 9,000 times.
    """
    m = e.shape[-1]
    ss = np.einsum("nij,nij->n", e, e)
    odd = np.flatnonzero(~((ss >= _TINY) & (ss <= _HUGE)))
    s = np.sqrt(ss)
    s[odd] = 1.0
    q = e / s[:, None, None]
    q[odd] = np.eye(m)
    for _ in range(SCREEN_SQUARINGS):
        q = q @ q
    t = np.einsum("nii->n", q)
    w = np.einsum("nij,nij->n", q, q)
    gap = 2.0 * w - t * t
    x_lo = np.maximum(w / t, np.where(gap >= 0.25 * t * t, 0.5 * (t + np.sqrt(np.abs(gap))), 0.0))
    root = 0.5**SCREEN_SQUARINGS
    margin = SCREEN_MARGIN * m**3
    lo = s * x_lo**root * (1.0 - margin)
    hi = s * w ** (0.5 * root) * (1.0 + margin)
    lo[odd] = 0.0
    hi[odd] = np.where(e[odd].any(axis=(1, 2)), np.inf, 0.0)
    return lo, hi


def _shift_bounds(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= max(-lambda_min(E), 0) <= hi for each matrix of
    a stack, lambda_min as eigvalsh gives it, from :func:`_spectral_norm_bounds`.

    The Gershgorin bound c = max_i (E_ii + sum_(j != i) |E_ij|) is at least
    lambda_max(E), so F = cI - E is PSD and ||F||_2 = c - lambda_min(E).
    Forming F rounds its diagonal by u |c - E_ii|, a rounded c can fall
    short of lambda_max(E) by about m u ||E||_2, eigvalsh errs by about
    m u ||E||_2 and subtracting c rounds by u |hi - c|; with ||E||_2 <= |c|
    + ||F||_2, each is at most a few m u (|c| + hi), which the widening by
    SCREEN_MARGIN m^3 (|c| + hi) exceeds many times.
    """
    m = e.shape[-1]
    diag = np.einsum("nii->ni", e)
    c = (np.abs(e).sum(axis=2) - np.abs(diag) + diag).max(axis=1)
    f = -e
    f[:, np.arange(m), np.arange(m)] += c[:, None]
    lo, hi = _spectral_norm_bounds(f)
    slack = SCREEN_MARGIN * m**3 * (np.abs(c) + hi)
    return np.maximum(lo - c - slack, 0.0), np.maximum(hi - c + slack, 0.0)
