"""Precision-matrix estimation through a max-row-sum-constrained LP.

Given an estimated factor covariance M, the estimator solves

    minimize t   over symmetric Omega, t >= 0
    subject to   max |(Omega M - I)_ab|      <= lam * t
                 max_a sum_b |Omega_ab|      <= t

The program is assembled over the K (K + 1) / 2 free entries of Omega, each
split into a nonnegative positive and negative part; the row-sum constraint
bounds the sum of both parts, which has the same projection onto (Omega, t)
as bounding the true absolute row sums, so optima coincide.

HiGHS solves the program (see ``love.lp``).  The optimal value t_hat is
unique; the returned Omega is one optimal vertex, and the optimal set can
hold more than one, so Omega is not unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LPSolveError, lp_solve

__all__ = ["PrecisionEstimate", "estimate_precision", "precision_program"]


@dataclass
class PrecisionEstimate:
    """Solution of the precision LP."""

    omega: np.ndarray
    t_hat: float
    lam: float
    residual: float
    iterations: int = 0

    @property
    def inf1_norm(self) -> float:
        """Largest absolute row sum of the estimate."""
        return float(np.abs(self.omega).sum(axis=1).max())


def _pair_index(k: int) -> np.ndarray:
    """Map (a, b) to the flat index of the unordered pair {a, b}."""
    pair = np.zeros((k, k), dtype=int)
    idx = 0
    for a in range(k):
        for b in range(a, k):
            pair[a, b] = pair[b, a] = idx
            idx += 1
    return pair


def precision_program(c_hat: np.ndarray, lam: float) -> tuple[np.ndarray, ...]:
    """Build the LP for a given factor covariance and constraint scale.

    The last variable is u = lam * t, so the residual constraints read
    |(Omega M - I)_ab| <= u with O(1) coefficients and only the K row-sum
    rows carry the lam scale; minimizing u minimizes t.  Every variable is
    nonnegative.  Returns the objective ``c``, the inequality system
    ``a_ub @ x <= b_ub``, and the pair-index map used to fold the solution
    back into a symmetric matrix.
    """
    c_hat = np.atleast_2d(np.asarray(c_hat, dtype=float))
    k = c_hat.shape[0]
    if c_hat.shape != (k, k):
        raise ValueError("factor covariance must be square")
    if not np.isfinite(c_hat).all():
        raise ValueError("factor covariance must be finite")
    if lam <= 0:
        raise ValueError("lam must be positive")
    pair = _pair_index(k)
    n_pairs = k * (k + 1) // 2
    n = 2 * n_pairs + 1  # positive parts, negative parts, u

    blocks = []
    rhs = []
    eye = np.eye(k)
    for a in range(k):
        block = np.zeros((k, n))
        block[:, pair[a]] = c_hat.T
        block[:, n_pairs + pair[a]] = -c_hat.T
        block[:, -1] = -1.0
        blocks.append(block)
        rhs.append(eye[a])
        minus = -block
        minus[:, -1] = -1.0
        blocks.append(minus)
        rhs.append(-eye[a])
    row_sum = np.zeros((k, n))
    for a in range(k):
        row_sum[a, pair[a]] = lam
        row_sum[a, n_pairs + pair[a]] += lam
        row_sum[a, -1] = -1.0
    blocks.append(row_sum)
    rhs.append(np.zeros(k))

    objective = np.zeros(n)
    objective[-1] = 1.0
    return objective, np.vstack(blocks), np.concatenate(rhs), pair


def estimate_precision(c_hat: np.ndarray, lam: float) -> PrecisionEstimate:
    """Solve the precision LP at constraint scale ``lam``.

    The program is always feasible (Omega = 0, t = 1/lam), so a non-optimal
    status indicates a numerical failure and raises ``LPSolveError``, an
    ``EstimationError``.
    """
    c_hat = np.atleast_2d(np.asarray(c_hat, dtype=float))
    c, a_ub, b_ub, pair = precision_program(c_hat, lam)
    result = lp_solve(c, a_ub, b_ub)
    if result.status != "optimal":
        raise LPSolveError(
            f"precision LP ended with status {result.status}", result.status
        )
    k = c_hat.shape[0]
    n_pairs = k * (k + 1) // 2
    w = result.x[:n_pairs] - result.x[n_pairs : 2 * n_pairs]
    omega = w[pair]
    residual = float(np.abs(omega @ c_hat - np.eye(k)).max())
    return PrecisionEstimate(
        omega=omega,
        t_hat=float(result.x[-1]) / lam,
        lam=float(lam),
        residual=residual,
        iterations=result.iterations,
    )
