"""Subspace identification of linear state-space systems with
singular-value shrinkage and Bayesian chain averaging.

The pipeline: assemble block-Hankel data, least-squares estimate of the
past-to-future map, noise-level calibration, then one of several
estimators (rank truncation by order heuristics, hard/soft/optimal/SURE
singular-value shrinkage, or Gibbs-sampled Bayesian averaging), evaluated
by a weighted-risk Monte Carlo benchmark.
"""
from ._version import __version__
from .bayes import GibbsConfig, GibbsEstimate, GibbsState, init_gibbs, run_gibbs
from .bench import (
    METHOD_NAMES,
    BenchConfig,
    Identification,
    Realization,
    RiskReport,
    RunRecord,
    aggregate_risk,
    draw_realization,
    identify,
    realization_risk,
    run_benchmark,
    single_run,
)
from .errors import ConfigError, DataError, NumericalError, SidShrinkError
from .estimation import (
    SCHEMES,
    HankelData,
    LsEstimate,
    NoiseEstimate,
    RankStar,
    WeightedSvd,
    WeightPair,
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    noise_level,
    order_heuristic_neff,
    order_midpoint,
    rank_star,
    truncate_estimate,
    weighted_svd,
)
from .linalg import build_hankel, build_selectors, psd_sqrt, pseudo_det, toeplitz_project, vec
from .shrinkage import (
    METHODS,
    ShrinkageContext,
    make_context,
    shrink_estimate,
    shrink_values,
    soft_threshold_level,
    sure_risk,
    sure_select,
    threshold_values,
)
from .systems import (
    StateSpaceModel,
    SystemSpec,
    TrueDecomposition,
    default_burn_in,
    kalman_gain,
    sample_system,
    simulate,
    true_decomposition,
)

__all__ = [
    "__version__",
    "SidShrinkError", "ConfigError", "DataError", "NumericalError",
    "vec", "build_hankel", "build_selectors", "psd_sqrt", "pseudo_det",
    "toeplitz_project",
    "StateSpaceModel", "SystemSpec", "TrueDecomposition", "kalman_gain",
    "sample_system", "simulate", "default_burn_in", "true_decomposition",
    "HankelData", "LsEstimate", "NoiseEstimate", "WeightPair", "RankStar",
    "WeightedSvd", "SCHEMES", "assemble", "ls_estimate", "estimate_noise",
    "build_weights", "noise_level", "weighted_svd", "truncate_estimate", "rank_star",
    "order_heuristic_neff", "order_midpoint",
    "METHODS", "ShrinkageContext", "make_context", "threshold_values",
    "soft_threshold_level", "shrink_values", "sure_risk", "sure_select",
    "shrink_estimate",
    "GibbsConfig", "GibbsState", "GibbsEstimate", "init_gibbs", "run_gibbs",
    "METHOD_NAMES", "BenchConfig", "Identification", "Realization", "RunRecord",
    "RiskReport", "draw_realization", "identify", "realization_risk", "aggregate_risk",
    "run_benchmark", "single_run",
]
