"""Seeded data generators for simulation studies and consistency checks."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .linmodel import RegressionData

__all__ = [
    "SimStudyConfig",
    "RescaleTransform",
    "rescale_to_unit_box",
    "generate_sim_dataset",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimStudyConfig:
    """One cell of the simulation study design.

    ``snr`` is the variance of the regression function divided by the
    error variance; ``n_active`` is the number of truly nonzero
    coefficients; active coefficients are drawn from N(0, beta_sd^2).
    """

    p: int
    n: int
    snr: float
    n_active: int
    n_datasets: int = 1
    beta_sd: float = 0.13
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_active <= self.p:
            raise ConfigError(f"n_active must lie in [0, p], got {self.n_active}")
        if self.n_datasets < 1:
            raise ConfigError("n_datasets must be >= 1")
        if not self.snr > 0:
            raise ConfigError("snr must be positive")
        if not self.beta_sd > 0:
            raise ConfigError("beta_sd must be positive")


@dataclass(frozen=True)
class RescaleTransform:
    """Per-column affine maps onto [-0.5, 0.5], invertible."""

    lo: np.ndarray
    hi: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo) - 0.5

    def invert(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) + 0.5) * (self.hi - self.lo) + self.lo


def rescale_to_unit_box(data: np.ndarray, bounds) -> tuple[np.ndarray, RescaleTransform]:
    """Affinely map each column onto [-0.5, 0.5] using declared bounds.

    ``bounds`` is a sequence of (lo, hi) per column.  The bounds must be
    declared (from expert knowledge), not estimated from the data: in a
    private pipeline, data-derived bounds would leak.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if not np.all(np.isfinite(data)):
        raise DataError("cannot rescale non-finite values")
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if lo.shape[0] != data.shape[1]:
        raise ConfigError(f"need one (lo, hi) pair per column, got {lo.shape[0]} "
                          f"for {data.shape[1]} columns")
    if np.any(hi <= lo):
        raise ConfigError("rescale bounds must have positive width")
    t = RescaleTransform(lo=lo, hi=hi)
    return t.apply(data), t


def bounded_design(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """n x p iid standard normal predictors, rescaled per column to lie
    strictly inside (-0.5, 0.5)."""
    raw = rng.standard_normal((n, p))
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    return ((raw - lo) / (hi - lo) - 0.5) * (1.0 - 1e-9)


def snr_response(x: np.ndarray, beta: np.ndarray, snr: float,
                 rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """y = x beta + sigma e with e iid standard normal, and sigma.

    sigma solves var(V beta) / sigma^2 = snr exactly for the realized
    design, V the centered x (population-variance convention); it is 1
    when beta is zero.
    """
    signal = (x - x.mean(axis=0)) @ beta
    sigma = float(np.sqrt(np.var(signal) / snr)) if beta.any() else 1.0
    return x @ beta + sigma * rng.standard_normal(x.shape[0]), sigma


def generate_sim_dataset(
    cfg: SimStudyConfig, rng: np.random.Generator
) -> tuple[RegressionData, np.ndarray, float]:
    """Simulate one dataset with bounded predictors (:func:`bounded_design`)
    and controlled SNR (:func:`snr_response`).

    The intercept is 0; the active support is a seeded random subset of
    size ``n_active`` with N(0, beta_sd^2) coefficients; the null model
    (n_active = 0) has sigma = 1.

    Returns (data with intercept-only common block, true beta, sigma).
    """
    x = bounded_design(cfg.n, cfg.p, rng)
    beta = np.zeros(cfg.p)
    if cfg.n_active > 0:
        support = rng.choice(cfg.p, size=cfg.n_active, replace=False)
        beta[support] = rng.normal(0.0, cfg.beta_sd, size=cfg.n_active)
    y, sigma = snr_response(x, beta, cfg.snr, rng)
    outside = int(np.count_nonzero((y <= -0.5) | (y >= 0.5)))
    if outside:
        log.warning(
            "generated response leaves (-0.5, 0.5) in %d of %d rows "
            "(fraction %.2e); Gram-release sensitivity bounds may be violated",
            outside, cfg.n, outside / cfg.n,
        )
    data = RegressionData(y=y, x0=np.ones((cfg.n, 1)), x=x)
    return data, beta, sigma
