"""Noisy-Gram-matrix pipeline for model averaging and selection.

The Gram matrix of the centered design-and-response stack is a sufficient
summary for every submodel's R^2, so privatizing it once (Laplace entries
or a centered Wishart draw) privatizes the whole model space.  Hard
thresholding of small off-diagonal entries and a ridge-style diagonal
shift repair the damage the noise does to sparsity and positive
definiteness; full enumeration over the 2^p models then yields posterior
probabilities, inclusion probabilities, and model-averaged coefficients.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import (
    ConfigError,
    DegenerateResponseError,
    NumericError,
    RepairFailureError,
)
from .linmodel import (
    CenteredData,
    GPriorSpec,
    InfoCriterionSpec,
    log_bayes_factor,
    log_info_criterion,
    zs_shrinkage,
)
from .mechanisms import (
    LaplaceGramLaw,
    PrivacyBudget,
    Sensitivity,
    WishartGramLaw,
    ZeroGramLaw,
    gram_law,
)
# Bound here because perfbench/tracing.py wraps them under dpms.gram.
from .mechanisms import laplace_gram_error, wishart_gram_error  # noqa: F401

__all__ = [
    "GramMatrix",
    "GramChain",
    "ModelPosterior",
    "build_gram",
    "oracle_chain",
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

ENUMERATION_GUARD = 25


@dataclass(frozen=True)
class GramMatrix:
    """Exact Gram matrix G = D'D for the stack D = [V; Z]."""

    g: np.ndarray
    n: int
    p: int


def build_gram(c: CenteredData) -> GramMatrix:
    """Assemble the (p+1) x (p+1) Gram matrix from centered data."""
    zz = float(c.z @ c.z)
    if zz <= 0.0:
        raise DegenerateResponseError("centered response has zero sum of squares")
    d = np.column_stack([c.v, c.z])
    g = d.T @ d
    g = 0.5 * (g + g.T)
    return GramMatrix(g=g, n=c.n, p=c.p)


@dataclass(frozen=True)
class GramChain:
    """The released-Gram processing chain G* -> G** -> G**_r.

    Stages are filled progressively by :func:`privatize_gram`,
    :func:`threshold_offdiagonal`, and :func:`pd_repair`; the error law
    stays attached so downstream steps (thresholds, repair draws,
    confidence regions) can sample and invert it.
    """

    g_star: np.ndarray
    n: int
    p: int
    law: LaplaceGramLaw | WishartGramLaw | ZeroGramLaw
    g_thresh: np.ndarray | None = None
    g_reg: np.ndarray | None = None
    e_lambda: float = 0.0
    lambda_pct: float | None = None
    r: float | None = None

    @property
    def released(self) -> np.ndarray:
        """The most processed matrix available (G**_r once repaired)."""
        if self.g_reg is not None:
            return self.g_reg
        if self.g_thresh is not None:
            return self.g_thresh
        return self.g_star

    def _pre_repair(self) -> np.ndarray:
        return self.g_star if self.g_thresh is None else self.g_thresh


def oracle_chain(gram: GramMatrix) -> GramChain:
    """Zero-noise chain: G* = G exactly (the epsilon -> infinity hook)."""
    return GramChain(g_star=gram.g.copy(), n=gram.n, p=gram.p, law=ZeroGramLaw(gram.p))


def privatize_gram(
    gram: GramMatrix,
    budget: PrivacyBudget,
    sens: Sensitivity,
    rng: np.random.Generator,
) -> GramChain:
    """Release G* = G + E under the error law the budget selects
    (:func:`dpms.mechanisms.gram_law`)."""
    law = gram_law(gram.p, budget, sens)
    return GramChain(g_star=gram.g + law.sample(rng), n=gram.n, p=gram.p, law=law)


def threshold_offdiagonal(
    chain: GramChain, lambda_pct: float, rng: np.random.Generator
) -> GramChain:
    """Zero out off-diagonal entries of G* smaller than the noise quantile.

    The threshold e_lambda is the lambda-th percentile of |E_ij| (closed
    form for Laplace; a seeded Monte-Carlo percentile for Wishart).  An
    off-diagonal entry below it is more plausibly pure noise than signal.
    """
    if not 0.0 < lambda_pct < 100.0:
        raise ConfigError(f"lambda percentile must lie in (0, 100), got {lambda_pct}")
    e_lambda = chain.law.offdiag_abs_quantile(lambda_pct / 100.0, rng)
    g = chain.g_star.copy()
    off = ~np.eye(g.shape[0], dtype=bool)
    g[off & (np.abs(g) < e_lambda)] = 0.0
    return replace(chain, g_thresh=g, e_lambda=float(e_lambda), lambda_pct=float(lambda_pct))


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def _draw_error(chain: GramChain, rng: np.random.Generator) -> np.ndarray:
    # A function of its own because perfbench/tracing.py wraps it.
    return chain.law.sample(rng)


def pd_repair(
    chain: GramChain,
    rng: np.random.Generator,
    *,
    r: float | None = None,
    n_draws: int = 1000,
) -> GramChain:
    """Add r I to restore positive definiteness after noise/thresholding.

    With ``r=None`` (auto policy), r is the 99th percentile of
    -lambda_min(E) over ``n_draws`` seeded mechanism draws; if the result
    is still not positive definite, r escalates to 3 |lambda_min| of the
    thresholded matrix.  A fixed r skips the simulation.
    """
    base = chain._pre_repair()
    if r is None:
        mins = np.array([_min_eig(_draw_error(chain, rng)) for _ in range(n_draws)])
        r = float(np.quantile(np.maximum(-mins, 0.0), 0.99))
        candidate = base + r * np.eye(base.shape[0])
        if _min_eig(candidate) <= 0.0:
            r = 3.0 * abs(_min_eig(base))
            candidate = base + r * np.eye(base.shape[0])
    else:
        r = float(r)
        candidate = base + r * np.eye(base.shape[0])
    w_min = _min_eig(candidate)
    if w_min <= 0.0:
        raise RepairFailureError(
            "matrix is not positive definite after repair",
            {"r": r, "min_eigenvalue": w_min},
        )
    return replace(chain, g_reg=candidate, r=r)


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
        return uc @ solve_triangular(chol_w, chol_g, lower=False)
    raise NumericError("unreachable")  # pragma: no cover


class _ClampCounter:
    """Counts how often a noisy R^2 had to be clamped into [0, 1)."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


r2_clamp_counter = _ClampCounter()


def _gamma_indices(gamma: int, p: int) -> np.ndarray:
    return np.flatnonzero([(gamma >> j) & 1 for j in range(p)])


def r2_gamma(g_reg: np.ndarray, gamma: int) -> float:
    """R^2 of submodel gamma, computed from the released Gram matrix only.

    gamma is a bitmask over the p predictors (bit j set = predictor j in
    the model); the empty model returns 0.  Values outside [0, 1) from a
    noisy matrix are clamped, counted in ``r2_clamp_counter``.
    """
    p = g_reg.shape[0] - 1
    if gamma == 0:
        return 0.0
    idx = _gamma_indices(gamma, p)
    s = g_reg[np.ix_(idx, idx)]
    w = g_reg[idx, p]
    zz = g_reg[p, p]
    try:
        sol = cho_solve(cho_factor(s, lower=True), w)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - impossible for PD input
        raise NumericError(f"singular submodel block for gamma={gamma:b}") from exc
    r2 = float(w @ sol) / zz
    if not 0.0 <= r2 < 1.0:
        r2_clamp_counter.count += 1
        log.debug("clamped out-of-range noisy R^2 (%.6g) for gamma=%s", r2, bin(gamma))
        r2 = min(max(r2, 0.0), 1.0 - 1e-12)
    return r2


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


def _log_bf_gamma(r2: float, n: int, size: int, p0: int,
                  stat: GPriorSpec | InfoCriterionSpec) -> float:
    if size == 0:
        return 0.0
    if isinstance(stat, GPriorSpec):
        return log_bayes_factor(r2, n, size, p0, stat)
    # rho resolves at the submodel size, increasing in |gamma|.
    return log_info_criterion(r2, n, size, stat)


@dataclass(frozen=True)
class ModelPosterior:
    """Posterior over the 2^p models plus derived summaries.

    Model index gamma is the integer bitmask; arrays are ordered by
    gamma = 0 .. 2^p - 1.
    """

    log_marginals: np.ndarray
    posterior: np.ndarray
    inclusion: np.ndarray
    beta_avg: np.ndarray
    prior_kind: str
    p: int
    n: int

    def top_model(self) -> int:
        return int(np.argmax(self.posterior))


def enumerate_posterior(
    source: GramChain | np.ndarray,
    stat: GPriorSpec | InfoCriterionSpec,
    prior_kind: str = "hierarchical",
    n: int | None = None,
    p0: int = 1,
) -> ModelPosterior:
    """Posterior over all 2^p models from a released Gram matrix.

    ``source`` is a repaired GramChain (preferred: the chain carries n)
    or a bare positive-definite matrix plus explicit n.  Log marginals
    are prior + log Bayes factor (or log information criterion) and are
    normalized by log-sum-exp.
    """
    if isinstance(source, GramChain):
        g = source.released
        n = source.n if n is None else n
    else:
        g = np.asarray(source, dtype=float)
        if n is None:
            raise ConfigError("enumerate_posterior needs n when given a bare matrix")
    p = g.shape[0] - 1
    if p > ENUMERATION_GUARD:
        raise ConfigError(
            f"model space enumeration is capped at p = {ENUMERATION_GUARD} "
            f"(2^{p} models requested); reduce the predictor count"
        )
    n_models = 1 << p
    log_marg = np.empty(n_models)
    for gamma in range(n_models):
        size = bin(gamma).count("1")
        r2 = r2_gamma(g, gamma)
        log_marg[gamma] = (model_prior_log(gamma, p, prior_kind)
                           + _log_bf_gamma(r2, n, size, p0, stat))
    shift = log_marg.max()
    w = np.exp(log_marg - shift)
    posterior = w / w.sum()
    inclusion = np.zeros(p)
    for j in range(p):
        mask = np.array([(gamma >> j) & 1 for gamma in range(n_models)], dtype=bool)
        inclusion[j] = posterior[mask].sum()
    # A sum of masses can round past 1 (to 1 + 2^-52).
    np.clip(inclusion, 0.0, 1.0, out=inclusion)
    mp = ModelPosterior(
        log_marginals=log_marg,
        posterior=posterior,
        inclusion=inclusion,
        beta_avg=np.zeros(p),
        prior_kind=prior_kind,
        p=p,
        n=n,
    )
    beta = model_averaged_beta(mp, g, stat)
    return replace(mp, beta_avg=beta)


def _shrinkage(stat, r2: float, n: int, size: int, p0: int) -> float:
    if isinstance(stat, InfoCriterionSpec):
        return 1.0
    if stat.kind == "fixed-g":
        return stat.g / (1.0 + stat.g)
    if stat.kind == "sample-size":
        return n / (1.0 + n)
    return zs_shrinkage(r2, n, size, p0)


def model_averaged_beta(
    posterior: ModelPosterior,
    g_reg: np.ndarray,
    stat: GPriorSpec | InfoCriterionSpec,
    p0: int = 1,
) -> np.ndarray:
    """Posterior-weighted coefficient estimate across all models.

    Per model, the coefficient block solves the submodel normal equations
    from the released Gram matrix; g-priors shrink it by g/(1+g) (its
    posterior mean for Zellner-Siow), information criteria use the
    unshrunk least-squares solution.  Off-support coordinates are zero.
    """
    p = posterior.p
    beta = np.zeros(p)
    for gamma in range(1 << p):
        weight = posterior.posterior[gamma]
        if weight == 0.0 or gamma == 0:
            continue
        idx = _gamma_indices(gamma, p)
        s = g_reg[np.ix_(idx, idx)]
        w = g_reg[idx, p]
        coef = cho_solve(cho_factor(s, lower=True), w)
        size = idx.size
        r2 = r2_gamma(g_reg, gamma)
        beta[idx] += weight * _shrinkage(stat, r2, posterior.n, size, p0) * coef
    return beta
