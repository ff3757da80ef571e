"""Design-based estimation and cluster-robust inference for paired and
small-strata randomized experiments.

The library covers the full audit pipeline: validating experiment data,
drawing paired/stratified assignments, the difference-in-means and
fixed-effects estimators, pair- and unit-clustered variance estimators
with their exact relationships, normal-reference t-tests, and a
reproducible Monte Carlo engine for test-size experiments.
"""

from . import errors
from .data import (
    Assignment,
    ExperimentData,
    PotentialData,
    subset_pairs,
    validate_dataset,
)
from .dataio import read_csv, write_csv
from .dgp import (
    ConstantEffect,
    DGPConfig,
    HeterogeneousEffect,
    null_resample,
    simulate_strata,
)
from .estimators import FitResult, PairEffects, diff_in_means, fe_estimate, pair_effects
from .inference import (
    NORMAL_VARIANCE_TWO,
    STANDARD_NORMAL,
    NormalReference,
    TestResult,
    standard_normal_cdf,
    t_test,
)
from .montecarlo import (
    SizeCell,
    SizeExperimentSpec,
    SizeTable,
    resampling_size_experiment,
    run_size_experiment,
)
from .randomize import Seed, draw_paired_assignment, draw_stratified_assignment
from .report import AnalysisReport, analyze
from .variance import (
    RatioDecomposition,
    VarianceSet,
    cluster_robust_covariance,
    dof_adjust,
    fe_variance_ratio,
    pair_clustered_variance,
    pair_sample_variance,
    unit_clustered_variance,
    variance_set,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Assignment",
    "ExperimentData",
    "PotentialData",
    "subset_pairs",
    "validate_dataset",
    "read_csv",
    "write_csv",
    "ConstantEffect",
    "DGPConfig",
    "HeterogeneousEffect",
    "null_resample",
    "simulate_strata",
    "FitResult",
    "PairEffects",
    "diff_in_means",
    "fe_estimate",
    "pair_effects",
    "NORMAL_VARIANCE_TWO",
    "STANDARD_NORMAL",
    "NormalReference",
    "TestResult",
    "standard_normal_cdf",
    "t_test",
    "SizeCell",
    "SizeExperimentSpec",
    "SizeTable",
    "resampling_size_experiment",
    "run_size_experiment",
    "Seed",
    "draw_paired_assignment",
    "draw_stratified_assignment",
    "AnalysisReport",
    "analyze",
    "RatioDecomposition",
    "VarianceSet",
    "cluster_robust_covariance",
    "dof_adjust",
    "fe_variance_ratio",
    "pair_clustered_variance",
    "pair_sample_variance",
    "unit_clustered_variance",
    "variance_set",
    "__version__",
]
