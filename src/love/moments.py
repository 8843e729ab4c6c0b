"""Moment estimators built on the signed pure partition.

Given the covariance and the signed partition, the factor covariance is
recovered by averaging sign-corrected covariance entries across pure groups,
and for every non-pure variable j the vector of sign-corrected averages
against each group estimates C A_j, the cross-covariance between the factors
and X_j.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import PurePartition
from .pure import pure_loading_matrix

__all__ = [
    "estimate_factor_covariance",
    "estimate_cross_covariance_matrix",
]


def estimate_factor_covariance(sigma: np.ndarray, partition: PurePartition) -> np.ndarray:
    """Estimate Cov(Z) from the pure blocks of the covariance.

    Diagonal entries average |Sigma_ij| over ordered pairs i != j inside a
    group (denominator m (m - 1)); off-diagonal entries average the
    sign-corrected cross-group entries.  Both come from products with the
    signed pure rows R: R^T Sigma_II R off the diagonal, and |R|^T |Sigma_II|
    |R| less the group's own |Sigma_ii| on it.  The upper triangle is
    mirrored, so the result is exactly symmetric.  On a population covariance
    with the exact partition this recovers C up to the group sign alignment.
    """
    if partition.signs is None:
        raise ValueError("partition carries no signs; run estimate_pure_rows first")
    sizes = np.array([g.size for g in partition.groups], dtype=float)
    if (sizes < 2).any():
        a = int(np.argmax(sizes < 2))
        raise ValueError(f"group {a} has fewer than two members")
    pure_idx, rows = pure_loading_matrix(partition)
    block = sigma[np.ix_(pure_idx, pure_idx)]
    upper = np.triu(rows.T @ block @ rows, 1) / np.outer(sizes, sizes)
    members = np.abs(rows)
    within = (members * (np.abs(block) @ members)).sum(axis=0)
    within -= np.abs(np.diag(block)) @ members
    return upper + upper.T + np.diag(within / (sizes * (sizes - 1)))


def estimate_cross_covariance_matrix(
    sigma: np.ndarray,
    partition: PurePartition,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cross moments for many variables at once, one column per variable.

    ``cols`` defaults to every non-pure index, ascending.  Shape (k, len(cols)).
    """
    if partition.signs is None:
        raise ValueError("partition carries no signs; run estimate_pure_rows first")
    if cols is None:
        cols = np.setdiff1d(np.arange(sigma.shape[0]), partition.pure_set)
    cols = np.asarray(cols, dtype=int)
    pure_idx, rows = pure_loading_matrix(partition)
    sizes = np.array([g.size for g in partition.groups], dtype=float)
    # theta_a = (1/m_a) sum_{i in group a} sign_i Sigma_ij
    return (rows.T @ sigma[np.ix_(pure_idx, cols)]) / sizes[:, None]
