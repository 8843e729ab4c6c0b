"""End-to-end fitting driver and the replication harness.

``fit_pipeline`` runs the full procedure on a dataset: sample covariance,
delta selection by cross-validation (unless overridden), pure-variable
detection and signing, factor-covariance and precision estimation, row-wise
sparse estimation, assembly, and cluster extraction.  ``fit_from_covariance``
checks a caller's covariance, for instance a population covariance, and runs
the same stages; ``fit_pipeline`` hands them the covariance it built itself.
``run_simulation`` repeats generate/sample/fit/score cycles and aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clusters import ClusterSet, clusters_from_loadings
from .covariance import sample_covariance
from .evaluation import EvalReport, evaluate_estimate
from .exceptions import EstimationError
from .model import (
    Dataset,
    benchmark_model,
    sample_dataset,
    separation,
    truth_diagnostics,
)
from .moments import estimate_cross_covariance_matrix, estimate_factor_covariance
from .precision import PrecisionEstimate, estimate_precision
from .pure import estimate_pure_rows, find_pure_variables
from .rows import (
    HARD_THRESHOLD,
    SOFT_PROJECT,
    LoadingEstimate,
    assemble_loading,
    hard_threshold,
    sparse_project,
)
from .tuning import TuningParams, cv_delta, cv_lambda

__all__ = [
    "RunConfig",
    "FitResult",
    "SimulationReport",
    "fit_from_covariance",
    "fit_pipeline",
    "estimate_k",
    "run_simulation",
]

_MAX_P = 20_000


@dataclass
class RunConfig:
    """Settings for fitting and simulation runs."""

    n: int = 300
    p: int = 200
    replications: int = 10
    seed: int = 0
    delta: Optional[float] = None
    lam: Optional[float] = None
    mu: Optional[float] = None
    delta_grid: Optional[np.ndarray] = None
    lambda_mode: str = "recommended"  # "recommended" or "cv"
    row_method: str = SOFT_PROJECT
    center: bool = True
    allow_large_p: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1 or self.replications < 1:
            raise ValueError("sizes must be positive")
        if self.row_method not in (SOFT_PROJECT, HARD_THRESHOLD):
            raise ValueError(f"unknown row method {self.row_method!r}")
        if self.lambda_mode not in ("recommended", "cv"):
            raise ValueError(f"unknown lambda mode {self.lambda_mode!r}")
        if self.delta_grid is not None:
            self.delta_grid = np.asarray(self.delta_grid, dtype=float)
            if self.delta_grid.size == 0:
                raise ValueError("delta grid must be nonempty")


@dataclass
class FitResult:
    """Everything a fit produces."""

    loading: LoadingEstimate
    clusters: ClusterSet
    precision: Optional[PrecisionEstimate]
    tuning: TuningParams
    diagnostics: dict = field(default_factory=dict)

    @property
    def k_hat(self) -> int:
        return self.loading.k_hat


def fit_from_covariance(
    cov: np.ndarray,
    delta: float,
    lam: float,
    mu: Optional[float] = None,
    row_method: str = SOFT_PROJECT,
) -> FitResult:
    """Run the estimation stages from a caller's (p, p) covariance matrix.

    ``mu=None`` applies the plug-in rule: the precision row-sum norm times
    ``delta``.  Raises ``ValueError`` unless ``cov`` is square, symmetric in
    the sense of ``np.allclose(cov, cov.T, atol=1e-12)`` and has no diagonal
    entry below -1e-12, and on an unknown ``row_method``; raises
    ``EstimationError`` when no pure variables are found.
    """
    return _fit_stages(_check_covariance(cov), delta, lam, mu, row_method)


def _check_covariance(cov: np.ndarray) -> np.ndarray:
    """The caller's covariance as a float array, or ``ValueError``."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be a square matrix, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError(
            "covariance must be symmetric: |cov - cov^T| <= 1e-12 + 1e-5 |cov^T| entrywise"
        )
    if (np.diag(cov) < -1e-12).any():
        raise ValueError("covariance diagonal must be nonnegative")
    return cov


def _fit_stages(
    cov: np.ndarray, delta: float, lam: float, mu: Optional[float], row_method: str
) -> FitResult:
    """The estimation stages on a covariance that is already known to be valid."""
    if row_method not in (SOFT_PROJECT, HARD_THRESHOLD):
        raise ValueError(f"unknown row method {row_method!r}")
    partition, scan = find_pure_variables(cov, delta)
    if partition.k == 0:
        raise EstimationError(
            "no pure variables found; the detection scan rejected every variable",
            diagnostics={"pure_scan": scan.record()},
        )
    signed, sign_warnings = estimate_pure_rows(cov, partition)
    p = cov.shape[0]

    diagnostics: dict = {
        "pure_scan": scan.record(),
        "sign_warnings": [(int(i) + 1, int(j) + 1) for i, j in sign_warnings],
        "k_hat": signed.k,
        "pure_count": int(signed.pure_set.size),
    }

    c_hat = estimate_factor_covariance(cov, signed)
    precision = None
    beta_hat = np.zeros((signed.k, 0))
    if signed.pure_set.size < p:
        precision = estimate_precision(c_hat, lam)
        if mu is None:
            mu = precision.inf1_norm * delta
        theta = estimate_cross_covariance_matrix(cov, signed)
        project = sparse_project if row_method == SOFT_PROJECT else hard_threshold
        beta_hat = project(precision.omega @ theta, mu)
        diagnostics["precision_residual"] = precision.residual
        diagnostics["precision_t_hat"] = precision.t_hat
        diagnostics["precision_inf1"] = precision.inf1_norm
    elif mu is None:
        mu = 0.0

    loading = assemble_loading(signed, beta_hat, p, row_method)
    clusters = clusters_from_loadings(loading)
    sep_hat = separation(c_hat)
    diagnostics["factor_separation_hat"] = sep_hat
    # plug-in check of the row-estimation validity condition 2*mu + 4*delta/nu < 1
    if sep_hat > 0:
        margin = 2.0 * mu + (0.0 if math.isinf(sep_hat) else 4.0 * delta / sep_hat)
        diagnostics["row_validity_margin"] = margin
    tuning = TuningParams(delta=delta, lam=lam, mu=mu)
    return FitResult(
        loading=loading,
        clusters=clusters,
        precision=precision,
        tuning=tuning,
        diagnostics=diagnostics,
    )


def fit_pipeline(data: Dataset, config: RunConfig) -> FitResult:
    """Fit the full pipeline on a dataset under the given configuration."""
    if data.p > _MAX_P and not config.allow_large_p:
        raise ValueError(
            f"p = {data.p} exceeds the {_MAX_P} guardrail; set allow_large_p to override"
        )
    cov_full = sample_covariance(data, center=config.center)

    cv_result = None
    if config.delta is not None:
        delta = config.delta
        delta_source = "override"
    else:
        cv_result = cv_delta(
            data, grid_constants=config.delta_grid, seed=config.seed, center=config.center
        )
        delta = cv_result.delta
        delta_source = "cv"

    if config.lam is not None:
        lam = config.lam
        lambda_source = "override"
    elif config.lambda_mode == "recommended":
        lam = delta
        lambda_source = "recommended"
    else:
        lam, lam_trace = _lambda_by_cv(data, config, delta)
        lambda_source = "cv"

    result = _fit_stages(cov_full, delta, lam, config.mu, config.row_method)
    tuning = result.tuning
    tuning.delta_source = delta_source
    tuning.lambda_source = lambda_source
    tuning.mu_source = "override" if config.mu is not None else "plugin"
    tuning.split_seed = config.seed if cv_result is not None else None
    if cv_result is not None:
        tuning.delta_grid = np.array([row["c"] for row in cv_result.table])
        tuning.cv_curve = cv_result.curve
        result.diagnostics["cv_trace"] = cv_result.table
        # the final fit reran the whole pipeline on the full-sample covariance
        result.diagnostics["refit_on_full_sample"] = True
    if lambda_source == "cv":
        result.diagnostics["lambda_trace"] = lam_trace
    return result


def _lambda_by_cv(data: Dataset, config: RunConfig, delta: float) -> tuple[float, list]:
    """Held-out likelihood selection of lambda on the cross-validation split."""
    from .tuning import split_halves

    half1, half2 = split_halves(data, config.seed)
    cov1 = sample_covariance(half1, center=config.center)
    cov2 = sample_covariance(half2, center=config.center)
    partition, _ = find_pure_variables(cov1, delta)
    if partition.k == 0:
        return delta, [{"skipped": "no pure variables on the fitting half"}]
    signed, _ = estimate_pure_rows(cov1, partition)
    try:
        c_fit = estimate_factor_covariance(cov1, signed)
        c_score = estimate_factor_covariance(cov2, signed)
    except ValueError:
        return delta, [{"skipped": "factor covariance not estimable on a half"}]
    return cv_lambda(c_fit, c_score, delta)


def estimate_k(
    data: Dataset,
    grid_constants: Optional[np.ndarray] = None,
    seed: Optional[int] = None,
    center: bool = False,
) -> int:
    """Number of clusters from cross-validated detection alone (no row fit)."""
    cv_result = cv_delta(data, grid_constants=grid_constants, seed=seed, center=center)
    cov_full = sample_covariance(data, center=center)
    partition, _ = find_pure_variables(cov_full, cv_result.delta)
    return partition.k


@dataclass
class SimulationReport:
    """Per-replication evaluations plus their aggregates."""

    rows: list[dict]
    summary: dict
    config: RunConfig


def run_simulation(config: RunConfig) -> SimulationReport:
    """Generate, sample, fit and score ``config.replications`` times.

    Per-replication failures are recorded, not fatal.  The model (including
    its noise variances) is redrawn for every replication.  Deterministic
    given ``config.seed``.
    """
    seed_rng = np.random.default_rng(config.seed)
    rows: list[dict] = []
    for rep in range(config.replications):
        model_seed = int(seed_rng.integers(0, 2**31 - 1))
        data_seed = int(seed_rng.integers(0, 2**31 - 1))
        row: dict = {"replication": rep, "model_seed": model_seed, "data_seed": data_seed}
        model = benchmark_model(config.p, model_seed)
        data = sample_dataset(model, config.n, data_seed)
        try:
            fit = fit_pipeline(data, config)
        except EstimationError as exc:
            row["error"] = str(exc)
            rows.append(row)
            continue
        diag = truth_diagnostics(model, fit.tuning.delta, fit.tuning.mu)
        report = evaluate_estimate(fit.loading.a_hat, fit.clusters, model, diag)
        row.update(_report_row(report, fit))
        rows.append(row)
    return SimulationReport(rows=rows, summary=_summarize(rows, config), config=config)


def _report_row(report: EvalReport, fit: FitResult) -> dict:
    return {
        "k_hat": report.k_hat,
        "k_correct": report.k_correct,
        "sn": report.sn,
        "sp": report.sp,
        "l1_scaled": report.l1_scaled,
        "fro_scaled": report.fro_scaled,
        "tfpp": report.tfpp,
        "tfnp": report.tfnp,
        "dfpp": report.dfpp,
        "dfnp": report.dfnp,
        "linf_loss": report.lq_losses.get(math.inf),
        "delta": fit.tuning.delta,
        "lambda": fit.tuning.lam,
        "mu": fit.tuning.mu,
    }


def _summarize(rows: list[dict], config: RunConfig) -> dict:
    completed = [r for r in rows if "error" not in r]
    correct = [r for r in completed if r.get("k_correct")]
    summary = {
        "p": config.p,
        "n": config.n,
        "replications": config.replications,
        "completed": len(completed),
        "k_correct_fraction": (len(correct) / len(completed)) if completed else 0.0,
    }
    for key in ("l1_scaled", "fro_scaled", "tfpp", "tfnp", "dfpp", "dfnp", "sn", "sp"):
        values = [r[key] for r in correct if r.get(key) is not None]
        if values:
            arr = np.asarray(values, dtype=float)
            summary[f"{key}_mean"] = float(arr.mean())
            summary[f"{key}_std"] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        else:
            summary[f"{key}_mean"] = None
            summary[f"{key}_std"] = None
    return summary
