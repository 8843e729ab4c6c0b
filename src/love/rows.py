"""Estimation of the non-pure loading rows and assembly of the full matrix.

Each non-pure row is pre-estimated as Omega_hat @ theta_hat and then either
projected to the l1-smallest vector within an sup-norm ball of radius mu
(closed-form soft threshold) or hard thresholded at mu.  All non-pure rows
are handled at once as the columns of one K x |J| matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PurePartition
from .pure import pure_loading_matrix

__all__ = [
    "LoadingEstimate",
    "sparse_project",
    "hard_threshold",
    "assemble_loading",
]

SOFT_PROJECT = "soft_project"
HARD_THRESHOLD = "hard_threshold"


@dataclass
class LoadingEstimate:
    """The assembled p x K loading estimate."""

    a_hat: np.ndarray
    k_hat: int
    partition: PurePartition
    row_method: str


def sparse_project(beta_bar: np.ndarray, mu: float) -> np.ndarray:
    """The l1-smallest vector within sup-norm distance mu of ``beta_bar``.

    The minimization separates per coordinate, so the unique optimum is the
    componentwise soft threshold sign(b) * max(|b| - mu, 0).
    """
    if not 0 <= mu < np.inf:
        raise ValueError("mu must be finite and nonnegative")
    beta_bar = np.asarray(beta_bar, dtype=float)
    return np.sign(beta_bar) * np.maximum(np.abs(beta_bar) - mu, 0.0)


def hard_threshold(beta_bar: np.ndarray, mu: float) -> np.ndarray:
    """Zero out entries with |value| <= mu, keep the others verbatim.

    Unlike :func:`sparse_project`, the surviving entries are not shrunk, so
    the row l1 norm may exceed 1.
    """
    if not 0 <= mu < np.inf:
        raise ValueError("mu must be finite and nonnegative")
    beta_bar = np.asarray(beta_bar, dtype=float)
    return np.where(np.abs(beta_bar) > mu, beta_bar, 0.0)


def assemble_loading(
    partition: PurePartition,
    beta_hat: np.ndarray,
    p: int,
    row_method: str = SOFT_PROJECT,
) -> LoadingEstimate:
    """Stack the signed pure rows with the estimated non-pure rows.

    ``beta_hat`` is K x |J|: its columns are the non-pure variables in
    ascending order, so every variable in 0..p-1 is covered exactly once.
    """
    k = partition.k
    pure_idx, pure_rows = pure_loading_matrix(partition)
    beta_hat = np.asarray(beta_hat, dtype=float)
    expected = (k, p - pure_idx.size)
    if beta_hat.shape != expected:
        raise ValueError(f"beta_hat has shape {beta_hat.shape}, expected {expected}")
    a_hat = np.zeros((p, k))
    a_hat[pure_idx] = pure_rows
    a_hat[np.setdiff1d(np.arange(p), pure_idx)] = beta_hat.T
    return LoadingEstimate(
        a_hat=a_hat, k_hat=k, partition=partition, row_method=row_method
    )
