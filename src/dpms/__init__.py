"""Differentially private hypothesis testing, model selection, and model
averaging for normal linear regression.

Two routes to privacy are provided.  The subsample-and-aggregate route
(:mod:`dpms.split_aggregate`) censors and averages per-subset log Bayes
factors or information criteria and adds one calibrated noise draw; the
simulated-null route (:mod:`dpms.calibration`) makes those tests valid at
a fixed level.  The Gram-release route (:mod:`dpms.gram`) perturbs the
sufficient cross-product matrix once and enumerates the full model space
from it, with confidence regions over the injected noise
(:mod:`dpms.regions`).
"""

# numpy loads these lazily: numpy.random on first use, numpy.ma on the first
# np.quantile.  Every command needs both, so load them with the package and
# keep their cost out of a process's first command.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .calibration import (
    EmpiricalNull,
    NullSimConfig,
    beta_tail_bound,
    critical_value,
    p_value,
    simulate_null_bf,
    simulate_null_lrt,
    simulate_null_pvalue,
)
from .datagen import SimStudyConfig, generate_sim_dataset, rescale_to_unit_box
from .errors import ConfigError, DataError, DpmsError, NumericError
from .gram import (
    GramChain,
    ModelPosterior,
    build_gram,
    enumerate_posterior,
    model_averaged_beta,
    model_prior_log,
    pd_repair,
    privatize_gram,
    r2_gamma,
    synthetic_dataset,
    threshold_offdiagonal,
)
from .io import hsb2_path, ingest_csv
from .linmodel import (
    CenteredData,
    GPriorSpec,
    InfoCriterionSpec,
    RegressionData,
    log_bayes_factor,
    log_info_criterion,
    log_stat,
    r_squared,
    reparametrize,
    zs_shrinkage,
)
from .mechanisms import (
    LaplaceGramLaw,
    NoiseScale,
    PrivacyBudget,
    Sensitivity,
    WishartGramLaw,
    ZeroGramLaw,
    analytic_gaussian_sigma,
    child_rng,
    gram_law,
    laplace_gram_error,
    subsample_noise_scale,
    wishart_dof,
    wishart_gram_error,
)
from .regions import (
    Functional,
    FunctionalHistogram,
    RegionConfig,
    map_functional,
    region_contains,
    sample_region,
)
from .split_aggregate import (
    CensorBounds,
    DPTestResult,
    SplitPlan,
    aggregate_private,
    censor,
    default_bounds,
    make_split,
    per_subset_log_stats,
    posterior_probability,
)

__version__ = "0.1.0"
