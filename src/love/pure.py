"""Pure-variable detection and the signed pure-row estimator.

The detector scans the variables in ascending index order.  For each i it
collects the candidate set of near-argmax partners within a 2*delta band,
accepts i as pure when every candidate's own row maximum matches the shared
covariance level to within 2*delta, and folds accepted candidate sets into a
running partition: a new set is intersected into the first group it overlaps,
otherwise appended as a new group.  Groups left with fewer than two members
are dissolved, since the factor-covariance estimator averages over ordered
pairs inside each group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .covariance import CovMatrix, cov_values
from .model import PurePartition

__all__ = [
    "PureScan",
    "find_pure_variables",
    "estimate_pure_rows",
    "pure_loading_matrix",
]


@dataclass
class PureScan:
    """Per-variable record of the detection scan.

    ``row_max[i]`` is the largest absolute off-diagonal entry of row i,
    ``candidates[i]`` the 2*delta candidate band, ``pure_flags[i]`` the
    verdict and, for rejected variables, ``witness[i]`` the first candidate
    that failed the purity check (-1 otherwise).  ``dissolved`` lists groups
    dropped for having a single member after the merge phase.
    """

    delta: float
    row_max: np.ndarray
    candidates: list[np.ndarray]
    pure_flags: np.ndarray
    witness: np.ndarray
    dissolved: list[np.ndarray] = field(default_factory=list)

    def record(self) -> dict:
        """JSON-ready per-variable verdicts, with 1-based indices."""
        entries = []
        for i in range(len(self.pure_flags)):
            entry: dict = {"variable": i + 1, "pure": bool(self.pure_flags[i])}
            if not self.pure_flags[i] and self.witness[i] >= 0:
                entry["witness"] = int(self.witness[i]) + 1
            entries.append(entry)
        return {
            "delta": float(self.delta),
            "verdicts": entries,
            "dissolved_groups": [[int(i) + 1 for i in g] for g in self.dissolved],
        }


def find_pure_variables(
    sigma: Union[CovMatrix, np.ndarray], delta: float
) -> tuple[PurePartition, PureScan]:
    """Detect the pure variables and their partition from a covariance.

    Returns the unsigned partition (one group per recovered factor, each of
    size at least two) together with the per-variable scan record.  An empty
    partition is a flagged condition, not an exception; callers abort with a
    diagnostic.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    s = np.abs(cov_values(sigma))
    np.fill_diagonal(s, -np.inf)
    p = s.shape[0]
    if p < 2:
        raise ValueError("need at least two variables")
    two_delta = 2.0 * delta
    row_max = s.max(axis=1)

    groups: list[np.ndarray] = []
    pure_flags = np.zeros(p, dtype=bool)
    witness = np.full(p, -1, dtype=int)
    candidates: list[np.ndarray] = []

    for i in range(p):
        row = s[i]
        cand = np.nonzero(row_max[i] <= row + two_delta)[0]
        candidates.append(cand)
        gaps = np.abs(row[cand] - row_max[cand])
        bad = np.nonzero(gaps > two_delta)[0]
        if bad.size:
            witness[i] = int(cand[bad[0]])
            continue
        pure_flags[i] = True
        new_set = np.unique(np.append(cand, i))
        for g_idx, g in enumerate(groups):
            shared = np.intersect1d(g, new_set, assume_unique=True)
            if shared.size:
                groups[g_idx] = shared
                break
        else:
            groups.append(new_set)

    kept: list[np.ndarray] = []
    dissolved: list[np.ndarray] = []
    for g in groups:
        (kept if g.size >= 2 else dissolved).append(g)

    scan = PureScan(
        delta=delta,
        row_max=row_max,
        candidates=candidates,
        pure_flags=pure_flags,
        witness=witness,
        dissolved=dissolved,
    )
    return PurePartition(groups=kept, signs=None), scan


def estimate_pure_rows(
    sigma: Union[CovMatrix, np.ndarray], partition: PurePartition
) -> tuple[PurePartition, list[tuple[int, int]]]:
    """Assign a sign to every pure variable, anchored per group.

    The smallest index of each group gets +1; every other member j takes the
    sign of its covariance with the anchor.  A covariance of exactly zero
    defaults to +1 and the pair is reported in the warning list.
    """
    s = cov_values(sigma)
    signs: dict[int, int] = {}
    warnings: list[tuple[int, int]] = []
    for g in partition.groups:
        if g.size < 2:
            raise ValueError("every pure group needs at least two members")
        anchor = int(g.min())
        signs[anchor] = 1
        for j in g:
            j = int(j)
            if j == anchor:
                continue
            value = s[anchor, j]
            if value == 0.0:
                signs[j] = 1
                warnings.append((anchor, j))
            else:
                signs[j] = int(np.sign(value))
    return PurePartition(groups=list(partition.groups), signs=signs), warnings


def pure_loading_matrix(partition: PurePartition) -> tuple[np.ndarray, np.ndarray]:
    """Signed canonical rows for the pure variables.

    Returns ``(pure_idx, rows)`` where ``pure_idx`` lists the pure variables
    in ascending order and ``rows[r, a]`` is the sign of variable
    ``pure_idx[r]`` if it sits in group ``a``, else 0.
    """
    if partition.signs is None:
        raise ValueError("partition carries no signs; run estimate_pure_rows first")
    pure_idx = partition.pure_set
    pos = {int(i): r for r, i in enumerate(pure_idx)}
    rows = np.zeros((pure_idx.size, partition.k))
    for a, g in enumerate(partition.groups):
        for i in g:
            rows[pos[int(i)], a] = partition.signs[int(i)]
    return pure_idx, rows
