"""Overlapping variable clustering through sparse latent factor models.

The estimator assumes n samples of X = A Z + E with an l1-row-bounded,
row-sparse loading matrix A anchored by pure variables (rows loading on a
single factor with unit weight).  From the sample covariance it recovers the
number of factors, the pure variables and their partition, the full loading
matrix, and the overlapping clusters given by the supports of the loading
columns.
"""

from .evaluation import evaluate_estimate, lq_loss
from .exceptions import EstimationError
from .model import (
    FactorModel,
    benchmark_model,
    population_covariance,
    sample_dataset,
    truth_diagnostics,
    validate_model,
)
from .pipeline import RunConfig, estimate_k, fit_from_covariance, fit_pipeline, run_simulation
from .tuning import cv_delta

__all__ = [
    "EstimationError",
    "FactorModel",
    "RunConfig",
    "benchmark_model",
    "cv_delta",
    "estimate_k",
    "evaluate_estimate",
    "fit_from_covariance",
    "fit_pipeline",
    "lq_loss",
    "population_covariance",
    "run_simulation",
    "sample_dataset",
    "truth_diagnostics",
    "validate_model",
]

__version__ = "0.1.0"
