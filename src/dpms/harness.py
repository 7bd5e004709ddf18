"""Replication studies: consistency checks and the MSE simulation grid.

These functions drive the library end to end under seeded child streams,
returning plain records that the CLI writes out and the acceptance suite
asserts on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import SimStudyConfig, generate_sim_dataset
from .gram import (
    GramChain,
    ModelPosterior,
    _fit,
    build_gram,
    enumerate_posterior,
    pd_repair,
    privatize_gram,
    threshold_offdiagonal,
)
from .linmodel import (
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    reparametrize,
)
# Bound here because perfbench/tracing.py wraps it under dpms.harness.
from .linmodel import zs_shrinkage  # noqa: F401
from .mechanisms import PrivacyBudget, Sensitivity, child_rng, gram_law
from .split_aggregate import (
    CensorBounds,
    aggregate_private,
    make_split,
    per_subset_log_stats,
)

__all__ = [
    "prop1_rejection_fractions",
    "prop2_median_posteriors",
    "mse_study_cell",
    "DP_METHODS",
]

DP_METHODS = ("LM", "LMT", "WM", "WMT")


def prop1_rejection_fractions(
    n: int,
    stat: GPriorSpec | InfoCriterionSpec,
    under_alternative: bool,
    n_runs: int,
    seed: int,
    *,
    effect: float = 0.5,
    epsilon: float = 1.0,
) -> float:
    """Fraction of runs whose censored private statistic picks the truth.

    Schedule: M = ceil(n^0.4) subsets, censoring at U = -L = log n, so
    both the subset sizes and the censor window grow while the noise
    scale (U - L)/(M epsilon) shrinks.  Under the null the success event
    is B*c < 1; under the alternative (a single predictor with
    standardized effect ``effect``) it is B*c > 1.
    """
    M = math.ceil(n**0.4)
    bounds = CensorBounds(-math.log(n), math.log(n))
    budget = PrivacyBudget(epsilon)
    hits = 0
    for run in range(n_runs):
        rng = child_rng(seed, run)
        x = rng.standard_normal(n)
        y = (effect * x if under_alternative else 0.0) + rng.standard_normal(n)
        data = RegressionData(y=y, x0=np.ones((n, 1)), x=x)
        plan = make_split(n, M, min_subset=3, seed=int(rng.integers(2**31)))
        logs = per_subset_log_stats(data, plan, stat)
        result = aggregate_private(logs, bounds, budget, rng)
        if under_alternative:
            hits += result.log_bstar_censored > 0.0
        else:
            hits += result.log_bstar_censored < 0.0
    return hits / n_runs


def _bounded_dataset_fixed_beta(
    p: int, n: int, snr: float, support_size: int, magnitude: float,
    rng: np.random.Generator,
) -> tuple[RegressionData, np.ndarray]:
    """Bounded-design dataset whose active coefficients have a fixed
    magnitude (random signs), with sigma solved from the target SNR."""
    raw = rng.standard_normal((n, p))
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    x = ((raw - lo) / (hi - lo) - 0.5) * (1.0 - 1e-9)
    beta = np.zeros(p)
    support = rng.choice(p, size=support_size, replace=False)
    beta[support] = magnitude * rng.choice([-1.0, 1.0], size=support_size)
    v = x - x.mean(axis=0)
    sigma = float(np.sqrt(np.var(v @ beta) / snr))
    y = x @ beta + sigma * rng.standard_normal(n)
    return RegressionData(y=y, x0=np.ones((n, 1)), x=x), beta


def _dataset_posteriors(
    oracle: GramChain,
    stat: GPriorSpec | InfoCriterionSpec,
    laws: dict,
    lambda_pct: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ModelPosterior]:
    """The released matrices of one dataset, stacked, and their posteriors
    under the hierarchical model prior.

    The zero-noise chain of :func:`build_gram` comes first, then the chain
    of each method of ``laws`` (method name to error law), in that order,
    each release drawn from ``rng``: the law's noise, a hard threshold for
    the T variants, and the auto repair, both calibrated by the law.  One
    enumeration scores the whole stack.
    """
    chains = [pd_repair(oracle, r=0.0)]
    for method, law in laws.items():
        chain = privatize_gram(oracle, law, rng)
        if method.endswith("T"):
            chain = threshold_offdiagonal(chain, lambda_pct)
        chains.append(pd_repair(chain))
    gs = np.stack([chain.g for chain in chains])
    return gs, enumerate_posterior(gs, stat, n=oracle.n)


def prop2_median_posteriors(
    n: int, n_seeds: int, seed: int, *, beta_magnitude: float
) -> tuple[float, float]:
    """Median posterior mass of the true model: (private, oracle).

    Per seed, one bounded dataset with p = 5 predictors, two of them
    active with the fixed absolute value ``beta_magnitude`` (random
    signs), and SNR 1 is generated, then scored under BIC by the
    zero-noise chain and by the Laplace chain at epsilon = 1 thresholded
    at the 99th percentile (one law for every seed); the medians over
    seeds are returned.
    """
    p, n_active, snr, epsilon, lambda_pct = 5, 2, 1.0, 1.0, 99.0
    stat = InfoCriterionSpec.bic()
    laws = {"LMT": gram_law(p, PrivacyBudget(epsilon), Sensitivity(l1=0.5), seed)}
    post_dp = np.empty(n_seeds)
    post_oracle = np.empty(n_seeds)
    for s in range(n_seeds):
        rng = child_rng(seed, s)
        data, beta = _bounded_dataset_fixed_beta(p, n, snr, n_active, beta_magnitude, rng)
        gamma_true = sum(1 << j for j in range(p) if beta[j] != 0.0)
        _, post = _dataset_posteriors(build_gram(reparametrize(data)), stat, laws,
                                      lambda_pct, rng)
        post_oracle[s], post_dp[s] = post.posterior[:, gamma_true]
    return float(np.median(post_dp)), float(np.median(post_oracle))


@dataclass(frozen=True)
class SimRecord:
    """One replication x method row of the simulation study."""

    snr: float
    epsilon: float
    replication: int
    method: str
    mse: float
    mse_full: float
    relative_mse: float
    inclusion_l2: float


def mse_study_cell(
    cfg: SimStudyConfig,
    epsilon: float,
    *,
    delta_wishart: float = math.exp(-10.0),
    stat: GPriorSpec | InfoCriterionSpec | None = None,
    lambda_pct: float = 99.0,
) -> tuple[list[SimRecord], dict]:
    """All replications of one (snr, epsilon) cell of the study, and the
    cell's two error laws by name (``laplace``, ``wishart``).

    Every replication scores the oracle plus each mechanism variant of
    ``DP_METHODS``, under the hierarchical model prior, on: prediction
    MSE of the model-averaged fit, MSE of the full-model fit, their
    relative improvement, and the normalized L2 distance of inclusion
    probabilities from the oracle's.  LM and LMT share the Laplace law,
    WM and WMT the Wishart law, and so their calibrations.
    """
    stat = GPriorSpec.zellner_siow() if stat is None else stat
    sens = Sensitivity(l1=0.5, l2=0.5 * math.sqrt(cfg.p + 1))
    laws = {name: gram_law(cfg.p, PrivacyBudget(epsilon, delta), sens, cfg.seed)
            for name, delta in (("laplace", 0.0), ("wishart", delta_wishart))}
    by_method = {m: laws["laplace" if m.startswith("L") else "wishart"] for m in DP_METHODS}
    records: list[SimRecord] = []
    for rep in range(cfg.n_datasets):
        rng = child_rng(cfg.seed, rep)
        data, beta, _ = generate_sim_dataset(
            SimStudyConfig(cfg.p, cfg.n, cfg.snr, cfg.n_active,
                           beta_sd=cfg.beta_sd, seed=int(rng.integers(2**31))),
            rng,
        )
        centered = reparametrize(data)
        v, v_beta = centered.v, centered.v @ beta
        gs, post = _dataset_posteriors(build_gram(centered), stat, by_method, lambda_pct, rng)
        # The all-predictors model of every released matrix, with its shrinkage.
        coef = _fit(gs, np.arange(cfg.p)[None])[0]
        beta_full = post.shrinkage[:, -1, None] * coef[:, 0]
        for i, method in enumerate(("O", *DP_METHODS)):
            mse = float(np.mean((v_beta - v @ post.beta_avg[i]) ** 2))
            mse_full = float(np.mean((v_beta - v @ beta_full[i]) ** 2))
            rel = (mse_full - mse) / mse_full if mse_full > 0 else 0.0
            dist = float(np.linalg.norm(post.inclusion[i] - post.inclusion[0])) / math.sqrt(cfg.p)
            records.append(SimRecord(cfg.snr, epsilon, rep, method, mse, mse_full, rel, dist))
    return records, laws
