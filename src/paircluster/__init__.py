"""Design-based estimation and cluster-robust inference for paired and
small-strata randomized experiments.

The library audits a paired or stratified experiment and measures test
size by simulation, both through one statistics kernel
(``variance.unit_sum_stats``): validating experiment data, drawing
paired/stratified assignments, the difference-in-means and fixed-effects
estimates with all four pair- and unit-clustered variances (``analyze``,
``variance_set``, in ``report``), and a reproducible Monte Carlo engine for
test-size experiments (``run_size_experiment``, ``resampling_size_experiment``).
"""

from . import errors
from .data import Assignment, ExperimentData
from .dataio import read_csv, validate_dataset, write_csv
from .dgp import DGPConfig
from .montecarlo import (
    SizeCell,
    SizeExperimentSpec,
    SizeTable,
    resampling_size_experiment,
    run_size_experiment,
)
from .randomize import Seed, draw_stratified_assignment
from .report import AnalysisReport, analyze, variance_set

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Assignment",
    "ExperimentData",
    "validate_dataset",
    "read_csv",
    "write_csv",
    "DGPConfig",
    "SizeCell",
    "SizeExperimentSpec",
    "SizeTable",
    "resampling_size_experiment",
    "run_size_experiment",
    "Seed",
    "draw_stratified_assignment",
    "AnalysisReport",
    "analyze",
    "variance_set",
    "__version__",
]
