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
    build_gram,
    enumerate_posterior,
    oracle_chain,
    pd_repair,
    privatize_gram,
    threshold_offdiagonal,
)
from .linmodel import (
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    log_stat,
    reparametrize,
)
# Bound here because perfbench/tracing.py wraps it under dpms.harness.
from .linmodel import zs_shrinkage  # noqa: F401
from .mechanisms import PrivacyBudget, Sensitivity, child_rng
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


def prop2_median_posteriors(
    n: int,
    n_seeds: int,
    seed: int,
    *,
    p: int = 5,
    n_active: int = 2,
    snr: float = 1.0,
    epsilon: float = 1.0,
    lambda_pct: float = 99.0,
    stat: GPriorSpec | InfoCriterionSpec | None = None,
    beta_magnitude: float | None = None,
) -> tuple[float, float]:
    """Median posterior mass of the true model: (private, oracle).

    Per seed, one bounded dataset is generated, scored by the zero-noise
    oracle chain and by the thresholded Laplace chain at the given
    epsilon; the medians over seeds are returned.  ``beta_magnitude``
    pins the active coefficients to a fixed absolute value (random
    signs); otherwise they follow the simulation generator's normal
    draws.
    """
    stat = InfoCriterionSpec.bic() if stat is None else stat
    sens = Sensitivity(l1=0.5, l2=0.5 * math.sqrt(p + 1))
    post_dp = np.empty(n_seeds)
    post_oracle = np.empty(n_seeds)
    for s in range(n_seeds):
        rng = child_rng(seed, s)
        if beta_magnitude is None:
            cfg = SimStudyConfig(p=p, n=n, snr=snr, n_active=n_active,
                                 seed=int(rng.integers(2**31)))
            data, beta, _ = generate_sim_dataset(cfg, rng)
        else:
            data, beta = _bounded_dataset_fixed_beta(p, n, snr, n_active,
                                                     beta_magnitude, rng)
        gamma_true = sum(1 << j for j in range(p) if beta[j] != 0.0)
        gram = build_gram(reparametrize(data))

        oracle = pd_repair(oracle_chain(gram), rng, r=0.0)
        post_oracle[s] = enumerate_posterior(oracle, stat).posterior[gamma_true]

        chain = privatize_gram(gram, PrivacyBudget(epsilon), sens, rng)
        chain = threshold_offdiagonal(chain, lambda_pct, rng)
        chain = pd_repair(chain, rng)
        post_dp[s] = enumerate_posterior(chain, stat).posterior[gamma_true]
    return float(np.median(post_dp)), float(np.median(post_oracle))


def _full_model_beta(g: np.ndarray, n: int, stat, p0: int = 1) -> np.ndarray:
    """Coefficients of the all-predictors model from a released Gram."""
    p = g.shape[0] - 1
    coef = np.linalg.solve(g[:p, :p], g[:p, p])
    r2 = min(max(float(g[:p, p] @ coef) / g[p, p], 0.0), 1.0 - 1e-12)
    return float(log_stat(r2, n, p, p0, stat)[1]) * coef


def _method_chain(
    method: str,
    gram,
    epsilon: float,
    delta_wishart: float,
    sens: Sensitivity,
    lambda_pct: float,
    rng: np.random.Generator,
) -> GramChain:
    if method in ("LM", "LMT"):
        chain = privatize_gram(gram, PrivacyBudget(epsilon), sens, rng)
    else:
        chain = privatize_gram(gram, PrivacyBudget(epsilon, delta_wishart), sens, rng)
    if method.endswith("T"):
        chain = threshold_offdiagonal(chain, lambda_pct, rng)
    return pd_repair(chain, rng)


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
    prior_kind: str = "hierarchical",
    lambda_pct: float = 99.0,
    methods: tuple[str, ...] = DP_METHODS,
) -> list[SimRecord]:
    """All replications of one (snr, epsilon) cell of the study.

    Every replication scores the oracle plus each requested mechanism
    variant on: prediction MSE of the model-averaged fit, MSE of the
    full-model fit, their relative improvement, and the normalized L2
    distance of inclusion probabilities from the oracle's.
    """
    stat = GPriorSpec.zellner_siow() if stat is None else stat
    sens = Sensitivity(l1=0.5, l2=0.5 * math.sqrt(cfg.p + 1))
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
        gram = build_gram(centered)

        def score(chain: GramChain, post, method: str, incl_oracle) -> SimRecord:
            mse = float(np.mean((v_beta - v @ post.beta_avg) ** 2))
            beta_full = _full_model_beta(chain.released, cfg.n, stat)
            mse_full = float(np.mean((v_beta - v @ beta_full) ** 2))
            rel = (mse_full - mse) / mse_full if mse_full > 0 else 0.0
            dist = (float(np.linalg.norm(post.inclusion - incl_oracle)) / math.sqrt(cfg.p)
                    if incl_oracle is not None else 0.0)
            return SimRecord(cfg.snr, epsilon, rep, method, mse, mse_full, rel, dist)

        oracle = pd_repair(oracle_chain(gram), rng, r=0.0)
        oracle_post = enumerate_posterior(oracle, stat, prior_kind)
        records.append(score(oracle, oracle_post, "O", None))
        for method in methods:
            chain = _method_chain(method, gram, epsilon, delta_wishart, sens,
                                  lambda_pct, rng)
            post = enumerate_posterior(chain, stat, prior_kind)
            records.append(score(chain, post, method, oracle_post.inclusion))
    return records
