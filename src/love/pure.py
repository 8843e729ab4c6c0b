"""Pure-variable detection and the signed pure-row estimator.

Write s = |Sigma| with the diagonal masked and m_i for the largest entry of
row i.  At a threshold delta, variable l is a candidate of i when
m_i <= s_il + 2 delta, and i is pure when every candidate l reaches its own
row maximum to within 2 delta: |s_il - m_l| <= 2 delta.  Pair (i, l)
therefore disqualifies i exactly on the interval of thresholds
m_i - s_il <= 2 delta < |s_il - m_l|.

``scan_delta_grid`` uses the interval rule to scan a whole grid of deltas in
one pass over s.  Two ``searchsorted`` calls against the sorted 2 delta grid
turn every pair into a half-open range of grid indices, and a difference
array (``bincount`` then ``cumsum``) counts the disqualifying pairs at every
grid point; a variable is pure where its count is zero.  Rows go through in
blocks, so no p x p index array is ever held.  The partition at each grid
point then comes from a sequential merge over the pure variables in
ascending order: the new set, i with its candidates, is intersected into
the first group it overlaps, otherwise appended as a new group.  Groups left
with fewer than two members are dissolved, since the factor-covariance
estimator averages over ordered pairs inside each group.
``find_pure_variables`` is the one-point call of the same pass and also
records each rejected variable's witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PurePartition

__all__ = [
    "PureScan",
    "find_pure_variables",
    "scan_delta_grid",
    "estimate_pure_rows",
    "pure_loading_matrix",
]

#: Entries of s (plus grid cells) per row block of the grid pass: 2 MB per
#: float64 temporary.
_BLOCK_CELLS = 1 << 18


@dataclass
class PureScan:
    """Per-variable record of the detection scan.

    ``row_max[i]`` is the largest absolute off-diagonal entry of row i,
    ``pure_flags[i]`` the verdict and, for rejected variables, ``witness[i]``
    the first candidate that failed the purity check (-1 otherwise).
    ``dissolved`` lists groups dropped for having a single member after the
    merge phase.
    """

    delta: float
    row_max: np.ndarray
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


def _merge(pure: np.ndarray, joins: dict[int, np.ndarray], j: int) -> tuple[list, list]:
    """Kept and dissolved groups at grid index ``j`` from the flags ``pure``.

    ``joins[i][l]`` is the first grid index at which l belongs to the new
    set of variable i (see ``_scan``).
    """
    owner = np.full(pure.size, -1)
    groups: list[np.ndarray] = []
    for i in np.flatnonzero(pure):
        new_set = np.flatnonzero(joins[int(i)] <= j)
        owners = owner[new_set]
        hits = owners[owners >= 0]
        if hits.size:
            # groups stay disjoint, so the first overlapping group is the
            # smallest owner among the new set's members
            a = hits.min()
            shared = new_set[owners == a]
            owner[groups[a]] = -1
            owner[shared] = a
            groups[a] = shared
        else:
            owner[new_set] = len(groups)
            groups.append(new_set)
    kept = [g for g in groups if g.size >= 2]
    dissolved = [g for g in groups if g.size < 2]
    return kept, dissolved


def _first_candidate_index(block: np.ndarray, row_max: np.ndarray, t: np.ndarray) -> np.ndarray:
    """First index j of the sorted grid t with row_max <= block + t[j], per entry."""
    first = np.searchsorted(t, row_max - block)
    # m - s <= t and m <= s + t can round apart in the last bit; settle each
    # entry on the scan's own test, which is monotone in t
    top = t.size - 1
    while True:
        down = (first > 0) & (row_max <= block + t[first - 1])
        if not down.any():
            break
        first -= down
    while True:
        up = (first <= top) & ~(row_max <= block + t[np.minimum(first, top)])
        if not up.any():
            break
        first += up
    return first


def _scan(sigma: np.ndarray, two_deltas: np.ndarray):
    """One blocked pass over |Sigma| at the sorted, distinct ``two_deltas``.

    Returns ``(row_max, pure, joins, witness)``: ``pure[j]`` holds the flags
    at ``two_deltas[j]``; for every variable i that is pure somewhere,
    ``joins[i][l]`` is the first grid index at which l belongs to i's new
    set (i itself joins at 0, ``two_deltas.size`` means never); ``witness``
    is kept for one-point scans only, and is None otherwise.
    """
    s = np.abs(sigma)
    p = s.shape[0]
    if p < 2:
        raise ValueError("need at least two variables")
    if not np.isfinite(s).all():
        raise ValueError("covariance entries must be finite")
    np.fill_diagonal(s, -np.inf)
    row_max = s.max(axis=1)
    g = two_deltas.size
    pure = np.empty((g, p), dtype=bool)
    joins: dict[int, np.ndarray] = {}
    witness = np.full(p, -1, dtype=int) if g == 1 else None
    index_type = np.min_scalar_type(g)
    step = max(1, _BLOCK_CELLS // (p + g))
    for r0 in range(0, p, step):
        block = s[r0 : r0 + step]
        rows = block.shape[0]
        # pair (i, l) disqualifies i at grid indices first <= j < last
        first = _first_candidate_index(block, row_max[r0 : r0 + step, None], two_deltas)
        last = np.searchsorted(two_deltas, np.abs(block - row_max))
        hit = first < last
        offset = np.arange(0, rows * (g + 1), g + 1)[:, None]
        edges = np.bincount((first + offset)[hit], minlength=rows * (g + 1))
        edges -= np.bincount((last + offset)[hit], minlength=rows * (g + 1))
        flags = edges.reshape(rows, g + 1).cumsum(axis=1)[:, :g] == 0
        pure[:, r0 : r0 + rows] = flags.T
        for r in np.flatnonzero(flags.any(axis=1)):
            band = first[r].astype(index_type)
            band[r0 + r] = 0
            joins[r0 + int(r)] = band
        if witness is not None:
            rejected = np.flatnonzero(~flags[:, 0])
            witness[r0 + rejected] = hit[rejected].argmax(axis=1)
    return row_max, pure, joins, witness


def scan_delta_grid(sigma: np.ndarray, deltas: np.ndarray) -> list[PurePartition]:
    """The unsigned partition at every delta of ``deltas``, in the given order.

    One pass over the covariance serves the whole grid; each partition
    equals ``find_pure_variables(sigma, delta)[0]``.  The grid may be
    unsorted and may repeat values.
    """
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if deltas.size == 0:
        raise ValueError("the delta grid must be nonempty")
    if not ((deltas >= 0) & (deltas < np.inf)).all():
        raise ValueError("delta must be finite and nonnegative")
    two_deltas, position = np.unique(2.0 * deltas, return_inverse=True)
    _, pure, joins, _ = _scan(sigma, two_deltas)
    partitions = [PurePartition(groups=_merge(flags, joins, j)[0]) for j, flags in enumerate(pure)]
    return [partitions[j] for j in position]


def find_pure_variables(
    sigma: np.ndarray, delta: float
) -> tuple[PurePartition, PureScan]:
    """Detect the pure variables and their partition from a covariance.

    Returns the unsigned partition (one group per recovered factor, each of
    size at least two) together with the per-variable scan record.  An empty
    partition is a flagged condition, not an exception; callers abort with a
    diagnostic.
    """
    if not 0 <= delta < np.inf:
        raise ValueError("delta must be finite and nonnegative")
    row_max, pure, joins, witness = _scan(sigma, np.array([2.0 * delta]))
    kept, dissolved = _merge(pure[0], joins, 0)
    scan = PureScan(
        delta=delta, row_max=row_max, pure_flags=pure[0], witness=witness, dissolved=dissolved
    )
    return PurePartition(groups=kept, signs=None), scan


def estimate_pure_rows(
    sigma: np.ndarray, partition: PurePartition
) -> tuple[PurePartition, list[tuple[int, int]]]:
    """Assign a sign to every pure variable, anchored per group.

    The smallest index of each group gets +1; every other member j takes the
    sign of its covariance with the anchor.  A covariance of exactly zero
    defaults to +1 and the pair is reported in the warning list.
    """
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
            value = sigma[anchor, j]
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
