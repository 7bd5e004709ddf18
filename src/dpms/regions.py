"""Monte-Carlo confidence regions for the Gram matrix and its summaries.

A :class:`dpms.gram.GramChain` keeps the release G* = G + E with its
fully known error law, so a (1-alpha) region for G is obtained by
sampling the law restricted to its central (1-alpha) set of errors
(``law.central_draws``; see :mod:`dpms.mechanisms`, whose laws
calibrate the set once, from their own streams), subtracting the draws
from G* and intersecting with the positive-definite cone.  The chain's
post-processed matrix (thresholded, repaired) plays no part.  Pushing
every surviving candidate through the model-enumeration map yields a
histogram over any scalar summary (inclusion probability, posterior
mean coefficient); its exact mean is the histogram-mean estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyRegionError
from .gram import STACK_FLOATS, GramChain, enumerate_posterior
from .linmodel import GPriorSpec, InfoCriterionSpec

__all__ = [
    "RegionConfig",
    "Functional",
    "RegionSamples",
    "FunctionalHistogram",
    "sample_region",
    "region_contains",
    "map_functional",
]

HIST_BINS = 50


@dataclass(frozen=True)
class Functional:
    """Scalar summary extracted from a model posterior."""

    kind: str  # "inclusion" | "beta"
    index: int

    @classmethod
    def inclusion(cls, j: int) -> "Functional":
        return cls("inclusion", j)

    @classmethod
    def beta(cls, j: int) -> "Functional":
        return cls("beta", j)

    def extract(self, posterior):
        """The summary of a posterior, or one per matrix of a stacked one."""
        values = posterior.inclusion if self.kind == "inclusion" else posterior.beta_avg
        return values[..., self.index]


@dataclass(frozen=True)
class RegionConfig:
    alpha: float
    nsamples: int = 1000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.nsamples < 100:
            raise ConfigError(f"nsamples must be >= 100, got {self.nsamples}")


@dataclass
class RegionSamples:
    """Positive-definite candidate matrices (a stack, or a list of
    matrices) plus rejection diagnostics."""

    candidates: np.ndarray | list
    rejected_non_pd: int
    n: int


def sample_region(
    chain: GramChain, cfg: RegionConfig, rng: np.random.Generator
) -> RegionSamples:
    """Draw candidate Gram matrices from the confidence region.

    Error draws E_s restricted to the law's central (1-alpha) set give
    candidates G_s = G* - E_s; candidates outside the positive-definite
    cone are dropped and counted.  Without noise the set is one point, so
    the release itself is the only candidate.
    """
    g = chain.g_star - chain.law.central_draws(cfg.alpha, cfg.nsamples, rng)
    pd = np.linalg.eigvalsh(g)[:, 0] > 0.0
    if not pd.any():
        raise EmptyRegionError(
            "every confidence-region candidate was rejected as non-positive-definite",
            {"alpha": cfg.alpha, "nsamples": cfg.nsamples, "mechanism": chain.law.name},
        )
    return RegionSamples(g[pd], int(pd.size - pd.sum()), chain.n)


def region_contains(chain: GramChain, g_true: np.ndarray, cfg: RegionConfig) -> bool:
    """Whether a matrix lies in the (1-alpha) region of the release.

    G is in the region iff the implied error G* - G falls in the law's
    central set (and G is positive definite, which holds for any true
    Gram matrix of a full-rank design).  A matrix that is not positive
    definite is refused before the law runs any calibration the set
    needs.
    """
    if np.linalg.eigvalsh(np.asarray(g_true))[0] <= 0.0:
        return False
    return chain.law.in_central_set(cfg.alpha, chain.g_star - g_true)


@dataclass(frozen=True)
class FunctionalHistogram:
    """Histogram summary of a functional over the sampled region."""

    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    accepted: int
    rejected_non_pd: int
    samples: np.ndarray


def map_functional(
    samples: RegionSamples,
    functional: Functional,
    stat: GPriorSpec | InfoCriterionSpec,
    prior_kind: str = "hierarchical",
) -> FunctionalHistogram:
    """Push the candidates through model enumeration, a stack at a time,
    and bin the summary.

    The summary falls into HIST_BINS bins: on the fixed [0, 1] range for
    inclusion probabilities, on the observed range for other functionals.
    The reported mean is the exact mean of the samples, not a binned
    approximation.
    """
    stack = np.asarray(samples.candidates, dtype=float)
    if stack.shape[0] == 0:
        raise EmptyRegionError("cannot histogram an empty candidate list")
    # Candidates go through enumeration in stacks whose log marginals,
    # one row of 2^p per candidate, stay within STACK_FLOATS.
    step = max(1, STACK_FLOATS >> (stack.shape[-1] - 1))
    values = np.concatenate([
        functional.extract(enumerate_posterior(stack[lo:lo + step], stat, prior_kind,
                                               n=samples.n))
        for lo in range(0, stack.shape[0], step)
    ])
    if functional.kind == "inclusion":
        edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
    else:
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, HIST_BINS + 1)
    counts, _ = np.histogram(values, bins=edges)
    return FunctionalHistogram(
        bin_edges=edges,
        counts=counts,
        mean=float(values.mean()),
        accepted=values.size,
        rejected_non_pd=samples.rejected_non_pd,
        samples=values,
    )
