"""Noisy-Gram-matrix pipeline for model averaging and selection.

The Gram matrix of the centered design-and-response stack is a sufficient
summary for every submodel's R^2, so privatizing it once (Laplace entries
or a centered Wishart draw) privatizes the whole model space.  One record,
:class:`GramChain`, carries the release: :func:`build_gram` gives the
zero-noise release (G* = G), :func:`privatize_gram` adds the error.  Hard
thresholding of small off-diagonal entries and a ridge-style diagonal
shift repair the damage the noise does to sparsity and positive
definiteness in the chain's working matrix; full enumeration over the 2^p
models then yields posterior probabilities, inclusion probabilities, and
model-averaged coefficients.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateResponseError,
    NumericError,
    RepairFailureError,
)
from .linmodel import UNUSABLE, CenteredData, GPriorSpec, InfoCriterionSpec, log_stat
from .mechanisms import LaplaceGramLaw, WishartGramLaw, ZeroGramLaw
# Bound here because perfbench/tracing.py wraps them under dpms.gram.
from .linmodel import log_bayes_factor, log_info_criterion, zs_shrinkage  # noqa: F401
from .mechanisms import laplace_gram_error, wishart_gram_error  # noqa: F401

__all__ = [
    "GramChain",
    "ModelPosterior",
    "build_gram",
    "privatize_gram",
    "threshold_offdiagonal",
    "pd_repair",
    "synthetic_dataset",
    "r2_gamma",
    "model_prior_log",
    "enumerate_posterior",
    "model_averaged_beta",
]

log = logging.getLogger(__name__)

ENUMERATION_GUARD = 20
# Largest temporary of a batched enumeration pass, in float64 entries (2 MB).
STACK_FLOATS = 1 << 18


@dataclass(frozen=True)
class GramChain:
    """One Gram release and the matrix post-processing makes of it.

    ``g_star`` is the release G* = G + E of the stack D = [V; Z] (G
    itself under :class:`ZeroGramLaw`); confidence regions read it and
    the error law ``law``.  ``g`` is the working matrix: G* until
    :func:`threshold_offdiagonal` and :func:`pd_repair` replace it, and
    the matrix that enumeration and synthetic rows use.  ``e_lambda`` and
    ``r`` record the threshold and the repair shift.
    """

    g_star: np.ndarray
    g: np.ndarray
    n: int
    law: LaplaceGramLaw | WishartGramLaw | ZeroGramLaw
    e_lambda: float = 0.0
    r: float | None = None

    @property
    def p(self) -> int:
        return self.g.shape[0] - 1


def build_gram(c: CenteredData) -> GramChain:
    """The zero-noise release of centered data: G = D'D for D = [V; Z],
    (p+1) x (p+1), as G* under :class:`ZeroGramLaw` (the epsilon ->
    infinity oracle)."""
    zz = float(c.z @ c.z)
    if zz <= 0.0:
        raise DegenerateResponseError(UNUSABLE[2])
    d = np.column_stack([c.v, c.z])
    g = d.T @ d
    g = 0.5 * (g + g.T)
    return GramChain(g_star=g, g=g, n=c.n, law=ZeroGramLaw(c.p))


def privatize_gram(
    chain: GramChain,
    law: LaplaceGramLaw | WishartGramLaw,
    rng: np.random.Generator,
) -> GramChain:
    """Release G* = G + E from the zero-noise chain of :func:`build_gram`,
    with E one draw from ``rng`` of the error law
    (:func:`dpms.mechanisms.gram_law`), whose calibrations every chain of
    that law shares.  A chain that already carries noise, or a law of
    another dimension, is a ``ConfigError``."""
    if not isinstance(chain.law, ZeroGramLaw):
        raise ConfigError(f"the chain already carries {chain.law.name} noise")
    if law.p != chain.p:
        raise ConfigError(f"a law for p = {law.p} cannot noise a chain with p = {chain.p}")
    g_star = chain.g_star + law.sample(rng, 1)[0]
    return GramChain(g_star=g_star, g=g_star, n=chain.n, law=law)


def threshold_offdiagonal(chain: GramChain, lambda_pct: float) -> GramChain:
    """Zero out off-diagonal entries of the working matrix smaller than
    the noise quantile.

    The threshold e_lambda is the lambda-th percentile of |E_ij| (closed
    form for Laplace; for Wishart a Monte-Carlo percentile that the law
    draws once, from its calibration stream).  An off-diagonal entry
    below it is more plausibly pure noise than signal.
    """
    if not 0.0 < lambda_pct < 100.0:
        raise ConfigError(f"lambda percentile must lie in (0, 100), got {lambda_pct}")
    e_lambda = chain.law.offdiag_abs_quantile(lambda_pct / 100.0)
    g = chain.g.copy()
    off = ~np.eye(g.shape[0], dtype=bool)
    g[off & (np.abs(g) < e_lambda)] = 0.0
    return replace(chain, g=g, e_lambda=float(e_lambda))


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def _draw_error(chain: GramChain, rng: np.random.Generator, size: int = 1):
    # Kept because perfbench/tracing.py wraps it; no package code calls it.
    return chain.law.sample(rng, size)


def pd_repair(chain: GramChain, *, r: float | None = None) -> GramChain:
    """Add r I to the working matrix to restore positive definiteness
    after noise/thresholding.

    With ``r=None`` (auto policy), r is the law's ``repair_shift``, drawn
    once per law and shared by all its chains; if the result is still not
    positive definite, r escalates to 3 |lambda_min| of this chain's
    unrepaired matrix.  A fixed r is used as given; it must be finite.
    """
    base = chain.g
    auto = r is None
    r = chain.law.repair_shift if auto else float(r)
    if not math.isfinite(r):
        raise ConfigError(f"the repair shift r must be finite, got {r}")
    candidate = base + r * np.eye(base.shape[0])
    w_min = _min_eig(candidate)
    if auto and w_min <= 0.0:
        r = 3.0 * abs(_min_eig(base))
        candidate = base + r * np.eye(base.shape[0])
        w_min = _min_eig(candidate)
    if w_min <= 0.0:
        raise RepairFailureError(
            "matrix is not positive definite after repair",
            {"r": r, "min_eigenvalue": w_min},
        )
    return replace(chain, g=candidate, r=r)


def synthetic_dataset(g_reg: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """A centered n x (p+1) matrix D* with (D*)'D* equal to g_reg exactly.

    D* = (I - P_1) U (U'(I - P_1) U)^(-1/2) (g_reg)^(1/2) with U filled
    with iid Uniform(0, 1) entries and the square roots taken as upper
    Cholesky factors.  The first p columns are the synthetic predictors,
    the last the synthetic centered response; any standard model-space
    tool applied to D* reproduces the released-Gram analysis.
    """
    m = g_reg.shape[0]
    if n <= m:
        raise ConfigError(f"need n > p + 1 rows, got n={n} for dimension {m}")
    chol_g = np.linalg.cholesky(g_reg).T
    for attempt in range(2):
        u = rng.uniform(size=(n, m))
        uc = u - u.mean(axis=0)
        w = uc.T @ uc
        try:
            chol_w = np.linalg.cholesky(w).T
        except np.linalg.LinAlgError:
            if attempt == 1:
                raise NumericError("centered uniform matrix was rank deficient twice")
            continue
        return uc @ np.linalg.solve(chol_w, chol_g)
    raise NumericError("unreachable")  # pragma: no cover


class _ClampCounter:
    """Counts how often a noisy R^2 had to be clamped into [0, 1), over
    every enumeration of the process (each posterior has its own count)."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


r2_clamp_counter = _ClampCounter()


def _fit(gs: np.ndarray, idx: np.ndarray):
    """Coefficient blocks (S, C, k) and R^2 values (S, C) of the submodels
    ``idx`` (C, k) of every matrix in the stack gs (S, m, m), from one
    batched solve of the normal equations.

    Values outside [0, 1) from a noisy matrix are clamped into it and
    counted, per matrix (the third result) and in ``r2_clamp_counter``.
    """
    p = gs.shape[-1] - 1
    w = gs[:, idx, p]
    try:
        coef = np.linalg.solve(gs[:, idx[:, :, None], idx[:, None, :]], w[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"singular submodel block among the size-{idx.shape[1]} models") from exc
    r2 = (w * coef).sum(axis=-1) / gs[:, p, p, None]
    clamps = np.count_nonzero(~((r2 >= 0.0) & (r2 < 1.0)), axis=1)
    if clamps.any():
        r2_clamp_counter.count += int(clamps.sum())
        log.debug("clamped %d out-of-range noisy R^2 values", clamps.sum())
        r2 = np.clip(r2, 0.0, 1.0 - 1e-12)
    return coef, r2, clamps


def _submodels(gs: np.ndarray, n: int, stat: GPriorSpec | InfoCriterionSpec):
    """Every nonempty submodel of every matrix in the stack gs (S, m, m).

    Size class by size class, in chunks whose (S, C, k, k) block stack
    stays within STACK_FLOATS, yields ``(idx, coef, log_stat, shrink,
    clamps)``: the predictor indices (C, k), the coefficient blocks
    (S, C, k), the log statistic and shrinkage (S, C) of :func:`log_stat`,
    and the per-matrix clamp counts of :func:`_fit`.  Fitted chunks are
    held until their coefficient blocks reach STACK_FLOATS entries or the
    size classes run out; one :func:`log_stat` call, with a model size per
    value, then scores the whole group (one Zellner-Siow quadrature for
    all of a small enumeration).  The common block is the intercept alone
    (p0 = 1), as centering makes it.
    """
    s, m, _ = gs.shape
    p = m - 1
    held, floats = [], 0
    for k in range(1, p + 1):
        combos = itertools.combinations(range(p), k)
        step = max(1, STACK_FLOATS // (s * k * k))
        while chunk := list(itertools.islice(combos, step)):
            idx = np.array(chunk)
            coef, r2, clamps = _fit(gs, idx)
            held.append((idx, coef, r2, clamps))
            floats += coef.size
            if floats >= STACK_FLOATS:
                yield from _scored(held, n, stat)
                held, floats = [], 0
    yield from _scored(held, n, stat)


def _scored(held: list, n: int, stat: GPriorSpec | InfoCriterionSpec):
    """The held ``(idx, coef, r2, clamps)`` chunks, in order, with their
    R^2 values replaced by the log statistic and shrinkage of one
    :func:`log_stat` call over all of them."""
    if not held:
        return
    r2 = np.concatenate([r2 for _, _, r2, _ in held], axis=1)
    sizes = np.concatenate([np.full(idx.shape[0], idx.shape[1]) for idx, *_ in held])
    lstat, shrink = log_stat(r2, n, sizes, 1, stat)
    at = 0
    for idx, coef, _, clamps in held:
        cols = slice(at, at + idx.shape[0])
        at = cols.stop
        yield idx, coef, lstat[:, cols], shrink[:, cols], clamps


def _gammas(idx: np.ndarray) -> np.ndarray:
    """Bitmask model index of each row of predictor indices."""
    return (1 << idx).sum(axis=1)


def _add_to_columns(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """out[s, idx[c, t]] += vals[s, c, t] over every model c and slot t."""
    s, p = out.shape
    cols = (np.arange(s)[:, None] * p + idx.ravel()).ravel()
    out += np.bincount(cols, weights=vals.ravel(), minlength=s * p).reshape(s, p)


def r2_gamma(g_reg: np.ndarray, gamma: int) -> float:
    """R^2 of submodel gamma, computed from the released Gram matrix only.

    gamma is a bitmask over the p predictors (bit j set = predictor j in
    the model); the empty model returns 0.  Values outside [0, 1) from a
    noisy matrix are clamped, counted in ``r2_clamp_counter``.
    """
    g = np.asarray(g_reg, dtype=float)
    if gamma == 0:
        return 0.0
    idx = np.flatnonzero([(gamma >> j) & 1 for j in range(g.shape[0] - 1)])
    return float(_fit(g[None], idx[None])[1][0, 0])


def model_prior_log(gamma: int, p: int, kind: str = "hierarchical") -> float:
    """Log prior mass of a model under the uniform or hierarchical-uniform
    prior (uniform over sizes, then uniform within a size)."""
    size = bin(gamma).count("1")
    if kind == "uniform":
        return -p * math.log(2.0)
    if kind == "hierarchical":
        return -math.log(p + 1.0) - (math.lgamma(p + 1) - math.lgamma(size + 1)
                                     - math.lgamma(p - size + 1))
    raise ConfigError(f"unknown model prior kind {kind!r}")


@dataclass(frozen=True)
class ModelPosterior:
    """Posterior over the 2^p models plus derived summaries.

    Model index gamma is the integer bitmask; arrays are ordered by
    gamma = 0 .. 2^p - 1.  Enumerated from a stack of matrices, every
    array (and ``r2_clamps``) gains a leading stack axis.  ``shrinkage``
    holds each model's factor on its least-squares coefficients (see
    :func:`dpms.linmodel.log_stat`), laid out like ``log_marginals``; the
    null model, with no coefficients, has 0.  ``r2_clamps`` counts the
    noisy R^2 values that were clamped into [0, 1).
    """

    log_marginals: np.ndarray
    posterior: np.ndarray
    inclusion: np.ndarray
    beta_avg: np.ndarray
    shrinkage: np.ndarray
    prior_kind: str
    p: int
    n: int
    r2_clamps: int | np.ndarray = 0

    def top_model(self) -> int:
        return int(np.argmax(self.posterior))


def enumerate_posterior(
    g: np.ndarray,
    stat: GPriorSpec | InfoCriterionSpec,
    prior_kind: str = "hierarchical",
    *,
    n: int,
) -> ModelPosterior:
    """Posterior over all 2^p models from a released Gram matrix.

    ``g`` is a positive-definite matrix (a repaired chain's ``g``) or a
    stack (S, m, m) of such matrices; ``n`` is the row count of the data
    behind them.  Log marginals are prior + log Bayes factor
    (or log information criterion) and are normalized by log-sum-exp.
    One pass over the size classes gives every model's log marginal,
    shrinkage and coefficient block, scored a group of chunks at a time
    (see :func:`_submodels`); the model-averaged coefficients accumulate
    chunk by chunk, rescaled whenever the running maximum log marginal
    grows.
    """
    g = np.asarray(g, dtype=float)
    p = g.shape[-1] - 1
    if p > ENUMERATION_GUARD:
        raise ConfigError(
            f"model space enumeration is capped at p = {ENUMERATION_GUARD} "
            f"(2^{p} models requested); reduce the predictor count"
        )
    gs = g.reshape((-1, p + 1, p + 1))
    log_marg = np.empty((gs.shape[0], 1 << p))
    log_marg[:, 0] = model_prior_log(0, p, prior_kind)
    shrinkage = np.zeros_like(log_marg)
    shift = log_marg[:, 0].copy()
    beta = np.zeros((gs.shape[0], p))
    clamps = np.zeros(gs.shape[0], dtype=int)
    for idx, coef, lstat, shrink, bad in _submodels(gs, n, stat):
        lm = model_prior_log((1 << idx.shape[1]) - 1, p, prior_kind) + lstat
        cols = _gammas(idx)
        log_marg[:, cols] = lm
        shrinkage[:, cols] = shrink
        top = np.maximum(shift, lm.max(axis=1))
        beta *= np.exp(shift - top)[:, None]
        shift = top
        _add_to_columns(beta, idx, (np.exp(lm - shift[:, None]) * shrink)[..., None] * coef)
        clamps += bad
    w = np.exp(log_marg - shift[:, None])
    total = w.sum(axis=1)
    posterior = w / total[:, None]
    beta /= total[:, None]
    gammas = np.arange(1 << p)
    inclusion = np.empty((gs.shape[0], p))
    for j in range(p):
        # compress keeps each row contiguous, so it sums as it would alone.
        inclusion[:, j] = np.compress((gammas >> j) & 1 == 1, posterior, axis=1).sum(axis=1)
    # A sum of masses can round past 1 (to 1 + 2^-52).
    np.clip(inclusion, 0.0, 1.0, out=inclusion)
    if g.ndim == 2:
        return ModelPosterior(log_marg[0], posterior[0], inclusion[0], beta[0], shrinkage[0],
                              prior_kind, p, n, int(clamps[0]))
    return ModelPosterior(log_marg, posterior, inclusion, beta, shrinkage, prior_kind, p, n,
                          clamps)


def model_averaged_beta(
    posterior: ModelPosterior,
    g_reg: np.ndarray,
    stat: GPriorSpec | InfoCriterionSpec,
) -> np.ndarray:
    """Posterior-weighted coefficient estimate across all models.

    Per model, the coefficient block solves the submodel normal equations
    from the released Gram matrix; g-priors shrink it by g/(1+g) (its
    posterior mean for Zellner-Siow), information criteria use the
    unshrunk least-squares solution.  Off-support coordinates are zero.
    :func:`enumerate_posterior` computes the same estimate in its own pass.
    """
    beta = np.zeros((1, posterior.p))
    gs = np.asarray(g_reg, dtype=float)[None]
    for idx, coef, _, shrink, _ in _submodels(gs, posterior.n, stat):
        weights = posterior.posterior[_gammas(idx)] * shrink
        _add_to_columns(beta, idx, weights[..., None] * coef)
    return beta[0]
