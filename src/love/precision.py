"""Precision-matrix estimation through row-wise max-row-sum-constrained LPs.

Given an estimated factor covariance M, the estimator is

    minimize t   over Omega (not constrained to be symmetric), t >= 0
    subject to   max |(Omega M - I)_ab|      <= lam * t
                 max_a sum_b |Omega_ab|      <= t

Both constraints act on one row of Omega at a time, so the program splits
into K row programs: for row a, minimize t_a subject to
|M^T w - e_a|_inf <= lam * t_a and |w|_1 <= t_a.  The feasible set of each
row program grows with t, so the joint optimum is t_hat = max_a t_a, and the
stacked row minimizers are the joint optimum at which every row also attains
its own smallest t_a.  Each row program is a small LP over w's positive and
negative parts and u = lam * t_a (2K + 1 variables); for data in general
position its minimizer is unique, so Omega_hat does not depend on which
solver or pivot order finds it, and permuting or sign-flipping M permutes
and sign-flips Omega_hat alike.

Bounding the sum of both parts of w has the same projection onto (w, t_a)
as bounding |w|_1, so optima coincide.  HiGHS solves each program (see
``love.lp``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LPSolveError, lp_solve

__all__ = ["PrecisionEstimate", "estimate_precision"]


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


def _row_program(c_hat: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Objective and constraint matrix shared by the K row programs.

    Variables are (w+, w-, u) with u = lam * t_a, all nonnegative; the rows
    are M^T w - u <= e_a, -M^T w - u <= -e_a and lam * sum(w+ + w-) - u <= 0,
    so only the right-hand side (e_a, -e_a, 0) depends on the row a.
    """
    k = c_hat.shape[0]
    ct = c_hat.T
    minus_u = -np.ones((k, 1))
    a_ub = np.block([
        [ct, -ct, minus_u],
        [-ct, ct, minus_u],
        [np.full((1, 2 * k), lam), -np.ones((1, 1))],
    ])
    objective = np.zeros(2 * k + 1)
    objective[-1] = 1.0
    return objective, a_ub


def estimate_precision(c_hat: np.ndarray, lam: float) -> PrecisionEstimate:
    """Solve the precision LP at constraint scale ``lam``, one row at a time.

    Every row program is feasible (w = 0, t_a = 1/lam), so a non-optimal
    status indicates a numerical failure and raises ``LPSolveError``, an
    ``EstimationError``.  ``iterations`` sums the solver's iterations over
    the K row programs.
    """
    c_hat = np.atleast_2d(np.asarray(c_hat, dtype=float))
    k = c_hat.shape[0]
    if c_hat.shape != (k, k):
        raise ValueError("factor covariance must be square")
    if not np.isfinite(c_hat).all():
        raise ValueError("factor covariance must be finite")
    if not 0 < lam < np.inf:
        raise ValueError("lam must be finite and positive")
    c, a_ub = _row_program(c_hat, lam)
    eye = np.eye(k)
    omega = np.empty((k, k))
    t_hat = 0.0
    iterations = 0
    for a in range(k):
        result = lp_solve(c, a_ub, np.concatenate([eye[a], -eye[a], [0.0]]))
        if result.status != "optimal":
            raise LPSolveError(
                f"precision LP for row {a} ended with status {result.status}",
                result.status,
            )
        omega[a] = result.x[:k] - result.x[k : 2 * k]
        t_hat = max(t_hat, float(result.x[-1]) / lam)
        iterations += result.iterations
    residual = float(np.abs(omega @ c_hat - eye).max())
    return PrecisionEstimate(
        omega=omega,
        t_hat=t_hat,
        lam=float(lam),
        residual=residual,
        iterations=iterations,
    )
