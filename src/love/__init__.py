"""Overlapping variable clustering through sparse latent factor models.

The estimator assumes n samples of X = A Z + E with an l1-row-bounded,
row-sparse loading matrix A anchored by pure variables (rows loading on a
single factor with unit weight).  From the sample covariance it recovers the
number of factors, the pure variables and their partition, the full loading
matrix, and the overlapping clusters given by the supports of the loading
columns.
"""

from .clusters import ClusterSet, clusters_from_loadings
from .covariance import CovMatrix, sample_covariance
from .evaluation import (
    EvalReport,
    SignedPermutation,
    align_signed_permutation,
    cluster_metrics,
    direction_metrics,
    error_aggregates,
    evaluate_estimate,
    lq_loss,
    pairwise_sn_sp,
    support_sign_check,
    theoretical_rate_ratio,
)
from .exceptions import EstimationError
from .lp import LPResult, LPSolveError, lp_solve
from .model import (
    Dataset,
    FactorModel,
    PurePartition,
    TruthDiagnostics,
    benchmark_covariance,
    benchmark_model,
    counterexample_model,
    population_covariance,
    pure_set_of,
    rotation_counterexample,
    sample_dataset,
    separation,
    truth_diagnostics,
    validate_model,
)
from .moments import (
    estimate_cross_covariance,
    estimate_cross_covariance_matrix,
    estimate_factor_covariance,
)
from .pipeline import (
    FitResult,
    RunConfig,
    SimulationReport,
    estimate_k,
    fit_from_covariance,
    fit_pipeline,
    run_simulation,
)
from .precision import PrecisionEstimate, estimate_precision, precision_program
from .pure import (
    PureScan,
    candidate_set,
    estimate_pure_rows,
    find_pure_variables,
    pure_loading_matrix,
)
from .rows import (
    HARD_THRESHOLD,
    SOFT_PROJECT,
    LoadingEstimate,
    RowEstimate,
    assemble_loading,
    hard_threshold,
    pre_estimate_rows,
    sparse_project,
)
from .tuning import (
    TuningParams,
    choose_mu,
    cv_criterion,
    cv_delta,
    cv_lambda,
    default_delta_grid,
    delta_rate,
    likelihood_loss,
)

__version__ = "0.1.0"
