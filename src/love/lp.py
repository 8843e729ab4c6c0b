"""Linear programs through scipy's HiGHS: minimize c @ x subject to
a_ub @ x <= b_ub and per-variable bounds lb <= x <= ub, default (0, None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .exceptions import EstimationError

__all__ = ["LPResult", "LPSolveError", "lp_solve"]

# Dual simplex without presolve.  The precision estimator solves K row
# programs of 2K + 1 variables each (see ``love.precision``), small and dense,
# where presolve removes nothing.  For all 40 rows of three K = 40 estimates
# from the benchmark design (2-vCPU Xeon VM): 0.14-0.20 s as set here,
# 0.28-0.31 s with presolve, 0.30-0.59 s by interior point with crossover
# ("highs-ipm"); the row optima agreed to 1e-15.
_METHOD = "highs-ds"
_OPTIONS = {"presolve": False}
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


class LPSolveError(EstimationError):
    """The solver failed, or a program that must have an optimum had none.

    Carries the status that ended the solve.
    """

    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


@dataclass
class LPResult:
    status: str
    value: float | None
    x: np.ndarray | None
    iterations: int


def lp_solve(c, a_ub=None, b_ub=None, bounds=(0.0, None)) -> LPResult:
    """Solve the program; status is ``optimal``, ``infeasible`` or ``unbounded``.

    Any other solver outcome (iteration limit, numerical trouble) raises
    ``LPSolveError``.  Malformed shapes raise scipy's ``ValueError``.
    """
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method=_METHOD,
                  options=_OPTIONS)
    status = _STATUS.get(res.status)
    if status is None:
        raise LPSolveError(f"LP solver failed: {res.message}", f"scipy-{res.status}")
    if status != "optimal":
        return LPResult(status, None, None, int(res.nit))
    return LPResult(status, float(res.fun), res.x, int(res.nit))
