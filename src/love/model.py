"""Domain types and generators for the sparse latent factor model X = A Z + E.

The model is parametrized by a p x K loading matrix A, the factor covariance
C = Cov(Z) and a diagonal noise covariance with entries Gamma.  A is assumed
to have l1-bounded rows and, for every factor, at least two "pure" rows that
are signed canonical vectors.  This module hosts:

- the ``FactorModel`` container and its validation,
- the exact population covariance A C A^T + diag(Gamma),
- extraction of the ground-truth pure-variable partition,
- truth-side diagnostics (quasi-pure and strong-signal index sets),
- the synthetic benchmark design used throughout the test-bench,
- Gaussian sampling from a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "FactorModel",
    "PurePartition",
    "Dataset",
    "TruthDiagnostics",
    "ValidationReport",
    "validate_model",
    "population_covariance",
    "pure_set_of",
    "truth_diagnostics",
    "separation",
    "benchmark_covariance",
    "benchmark_model",
    "sample_dataset",
    "rotation_counterexample",
]

#: tolerance used when validating the row scaling condition on general input
_ROW_SUM_TOL = 1e-12


@dataclass
class FactorModel:
    """A ground-truth factor model instance.

    Parameters
    ----------
    A : (p, K) ndarray
        Loading matrix.  Every row has l1 norm at most 1; every factor has
        at least two rows equal to a signed canonical vector.
    C : (K, K) ndarray
        Factor covariance, symmetric positive definite.
    Gamma : (p,) ndarray
        Diagonal noise variances.  Zeros are permitted (structural zeros).
    """

    A: np.ndarray
    C: np.ndarray
    Gamma: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.Gamma = np.asarray(self.Gamma, dtype=float).reshape(-1)
        p, k = self.A.shape
        if self.C.shape != (k, k):
            raise ValueError(
                f"C must be ({k}, {k}) to match A with {k} columns, got {self.C.shape}."
            )
        if self.Gamma.shape != (p,):
            raise ValueError(
                f"Gamma must have length {p} to match A with {p} rows, got {self.Gamma.shape[0]}."
            )

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[1]


@dataclass
class PurePartition:
    """Pure-variable index set with its per-factor partition.

    ``groups[a]`` holds the (0-based, sorted) indices of the variables that
    load only on factor ``a``; ``signs`` maps each pure index to the sign of
    its single nonzero loading.  ``signs`` is ``None`` for partitions produced
    by the detection algorithm before the sign-estimation step.
    """

    groups: list[np.ndarray]
    signs: Optional[dict[int, int]] = None

    def __post_init__(self) -> None:
        self.groups = [np.asarray(g, dtype=int) for g in self.groups]
        seen: set[int] = set()
        for g in self.groups:
            members = set(int(i) for i in g)
            if seen & members:
                raise ValueError("pure groups must be disjoint")
            seen |= members

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def pure_set(self) -> np.ndarray:
        """All pure indices, sorted ascending."""
        if not self.groups:
            return np.array([], dtype=int)
        return np.sort(np.concatenate(self.groups))

    def group_signs(self, a: int) -> np.ndarray:
        if self.signs is None:
            raise ValueError("partition carries no signs")
        return np.array([self.signs[int(i)] for i in self.groups[a]], dtype=int)


@dataclass
class Dataset:
    """An n x p sample matrix, one observation per row."""

    samples: np.ndarray
    generator_seed: Optional[int] = None
    truth: Optional[FactorModel] = None
    column_names: Optional[list[str]] = None

    def __post_init__(self) -> None:
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        if not np.isfinite(self.samples).all():
            raise ValueError("dataset contains missing or non-finite values")
        if self.column_names is not None and len(self.column_names) != self.samples.shape[1]:
            raise ValueError("column_names length does not match the number of variables")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]


@dataclass
class TruthDiagnostics:
    """Truth-side classification of the non-pure indices.

    ``j1`` holds the quasi-pure variables (one loading within ``4*delta/nu``
    of full strength), ``j2`` the rows whose every nonzero loading clears
    ``max(2*mu, 4*delta/nu)``, and ``j3`` the remainder, so that
    ``j1 | j2 | j3`` partitions the non-pure set.
    """

    j1: np.ndarray
    j1_by_factor: list[np.ndarray]
    j2: np.ndarray
    j3: np.ndarray
    row_sparsity: int
    sensitivity_norm: float
    nu: float
    delta_prime: float
    delta: float
    mu: float


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_model`."""

    violations: list[str] = field(default_factory=list)
    delta_c: float = math.inf
    pure_counts: Optional[np.ndarray] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def separation(C: np.ndarray) -> float:
    """Factor separation: min over a != b of min(C_aa, C_bb) - |C_ab|.

    Returns ``inf`` for a single factor, where the condition is vacuous.
    """
    C = np.asarray(C, dtype=float)
    k = C.shape[0]
    if k == 1:
        return math.inf
    d = np.diag(C)
    pairwise_min = np.minimum.outer(d, d)
    gap = pairwise_min - np.abs(C)
    np.fill_diagonal(gap, math.inf)
    return float(gap.min())


def validate_model(model: FactorModel) -> ValidationReport:
    """Check the identifiability conditions on a model instance.

    The report lists every violated condition and always carries the factor
    separation value and the number of pure rows found per factor.
    Dimension mismatches raise at ``FactorModel`` construction instead.
    """
    report = ValidationReport()
    A, C, Gamma = model.A, model.C, model.Gamma

    row_sums = np.abs(A).sum(axis=1)
    if (row_sums > 1.0 + _ROW_SUM_TOL).any():
        worst = int(np.argmax(row_sums))
        report.violations.append(
            f"row scaling: row {worst} has l1 norm {row_sums[worst]:.6g} > 1"
        )

    partition = pure_set_of(A)
    counts = np.array([len(g) for g in partition.groups], dtype=int)
    report.pure_counts = counts
    if (counts < 2).any():
        short = np.nonzero(counts < 2)[0]
        report.violations.append(
            "pure variables: factors "
            + ", ".join(str(int(a)) for a in short)
            + " have fewer than two pure rows"
        )

    if not np.allclose(C, C.T, atol=1e-10):
        report.violations.append("factor covariance is not symmetric")
    else:
        eigmin = float(np.linalg.eigvalsh(C).min())
        if eigmin <= 0:
            report.violations.append(
                f"factor covariance is not positive definite (min eigenvalue {eigmin:.3g})"
            )

    report.delta_c = separation(C)
    if report.delta_c <= 0:
        report.violations.append(
            f"factor separation is not positive (value {report.delta_c:.6g})"
        )

    if (Gamma < 0).any():
        report.violations.append("noise variances must be nonnegative")

    return report


def population_covariance(model: FactorModel) -> np.ndarray:
    """Exact covariance of X under the model: A C A^T + diag(Gamma)."""
    values = model.A @ model.C @ model.A.T + np.diag(model.Gamma)
    return 0.5 * (values + values.T)


def pure_set_of(A: np.ndarray) -> PurePartition:
    """Read the pure-variable partition off a ground-truth loading matrix.

    A row is pure when it equals a signed canonical vector exactly; the test
    uses exact equality, which is the right notion on constructed matrices.
    Factors without pure rows contribute empty groups so that the group index
    always agrees with the column index.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    p, k = A.shape
    abs_a = np.abs(A)
    support_size = (abs_a > 0).sum(axis=1)
    groups: list[list[int]] = [[] for _ in range(k)]
    signs: dict[int, int] = {}
    for i in range(p):
        if support_size[i] != 1:
            continue
        a = int(np.argmax(abs_a[i]))
        if abs_a[i, a] == 1.0:
            groups[a].append(i)
            signs[i] = int(np.sign(A[i, a]))
    return PurePartition(groups=[np.array(g, dtype=int) for g in groups], signs=signs)


def truth_diagnostics(model: FactorModel, delta: float, mu: float) -> TruthDiagnostics:
    """Classify non-pure rows by loading strength, given tuning values.

    Quasi-pure rows (``j1``) have a loading within ``4*delta/nu`` of 1.
    Strong-signal rows (``j2``) have every nonzero loading above
    ``max(2*mu, 4*delta/nu)``; they are taken within the complement of
    ``j1`` so that ``j1``, ``j2``, ``j3`` partition the non-pure set.
    """
    nu = separation(model.C)
    if nu <= 0:
        raise ValueError("factor separation must be positive")
    eps = 0.0 if math.isinf(nu) else 4.0 * delta / nu
    abs_a = np.abs(model.A)
    pure = set(int(i) for i in pure_set_of(model.A).pure_set)
    non_pure = np.array([j for j in range(model.p) if j not in pure], dtype=int)

    in_j1 = (abs_a[non_pure] >= 1.0 - eps).any(axis=1) if eps > 0 else np.zeros(
        len(non_pure), dtype=bool
    )
    j1 = non_pure[in_j1]
    j1_by_factor = [
        j1[abs_a[j1, a] >= 1.0 - eps] if len(j1) else np.array([], dtype=int)
        for a in range(model.k)
    ]

    cut = max(2.0 * mu, eps)
    rest = non_pure[~in_j1]
    strong = []
    for j in rest:
        nz = abs_a[j][abs_a[j] > 0]
        if nz.size and (nz > cut).all():
            strong.append(int(j))
    j2 = np.array(strong, dtype=int)
    j3 = np.setdiff1d(rest, j2)

    omega = np.linalg.inv(model.C)
    sensitivity = float(np.abs(omega).sum(axis=1).max())
    c_max = float(np.abs(model.C).max())
    delta_prime = 0.0 if math.isinf(nu) else (8.0 * c_max / nu - 3.0) * delta

    return TruthDiagnostics(
        j1=j1,
        j1_by_factor=j1_by_factor,
        j2=j2,
        j3=j3,
        row_sparsity=int((abs_a > 0).sum(axis=1).max()) if model.p else 0,
        sensitivity_norm=sensitivity,
        nu=nu,
        delta_prime=delta_prime,
        delta=delta,
        mu=mu,
    )


# ---------------------------------------------------------------------------
# Synthetic benchmark design
# ---------------------------------------------------------------------------

#: (positive, negative) pure-row sign counts; the cycle repeats 4 times over
#: the 20 factors, 5 pure rows each.
_SIGN_PATTERNS = [(3, 2), (4, 1), (2, 3), (1, 4), (5, 0)]

_BENCHMARK_K = 20
_BENCHMARK_PURE = 100


def benchmark_covariance() -> np.ndarray:
    """The 20 x 20 factor covariance of the benchmark design.

    Diagonal 2 + (i - 1)/19; off-diagonal (-1)^(i+j) 0.3^|i-j| min(C_ii, C_jj).
    """
    k = _BENCHMARK_K
    idx = np.arange(k)
    d = 2.0 + idx / 19.0
    signs = (-1.0) ** (idx[:, None] + idx[None, :])
    decay = 0.3 ** np.abs(idx[:, None] - idx[None, :])
    C = signs * decay * np.minimum.outer(d, d)
    np.fill_diagonal(C, d)
    return C


def benchmark_model(p: int, seed: int) -> FactorModel:
    """Generate the synthetic benchmark model at dimension ``p``.

    The first 100 rows are pure (5 per factor, sign patterns cycling through
    ``(3,2), (4,1), (2,3), (1,4), (5,0)``); the remaining rows draw a support
    of size uniform on {2,...,5} and entries +-1/size with random signs, so
    their l1 norm is exactly 1.  Noise variances are uniform on [1, 3].
    Deterministic given ``seed``.
    """
    if p < _BENCHMARK_PURE:
        raise ValueError(f"p must be at least {_BENCHMARK_PURE}, got {p}")
    rng = np.random.default_rng(seed)
    k = _BENCHMARK_K
    A = np.zeros((p, k))
    patterns = [_SIGN_PATTERNS[a % len(_SIGN_PATTERNS)] for a in range(k)]
    row = 0
    for a, (n_pos, _) in enumerate(patterns):
        for r in range(5):
            A[row, a] = 1.0 if r < n_pos else -1.0
            row += 1
    for j in range(_BENCHMARK_PURE, p):
        size = int(rng.integers(2, 6))
        support = rng.choice(k, size=size, replace=False)
        signs = rng.choice([-1.0, 1.0], size=size)
        A[j, support] = signs / size
    gamma = rng.uniform(1.0, 3.0, size=p)
    return FactorModel(A=A, C=benchmark_covariance(), Gamma=gamma)


def sample_dataset(model: FactorModel, n: int, seed: Optional[int] = None) -> Dataset:
    """Draw n i.i.d. Gaussian samples X = A Z + E from the model.

    Z ~ N(0, C) and E ~ N(0, diag(Gamma)) are independent across samples and
    of each other.  Deterministic given ``seed``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    try:
        chol = np.linalg.cholesky(model.C)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "factor covariance C is not positive definite, cannot sample"
        ) from exc
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, model.k)) @ chol.T
    e = rng.standard_normal((n, model.p)) * np.sqrt(model.Gamma)
    return Dataset(samples=z @ model.A.T + e, generator_seed=seed, truth=model)


# ---------------------------------------------------------------------------
# Identifiability counterexample (no pure rows)
# ---------------------------------------------------------------------------


def rotation_counterexample() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A rotation that preserves the factor covariance but changes sparsity.

    Returns ``(C, Q, row, row_rotated)`` with ``Q C Q^T = C`` and
    ``row @ Q = row_rotated``, where ``row`` and ``row_rotated`` are valid
    loading rows with different sparsity patterns.  Without pure rows the
    loading matrix is therefore not identifiable.
    """
    C = np.diag([1.0, 2.0, 3.0])
    r = math.sqrt(3.0 / 8.0)
    Q = np.array(
        [
            [0.5, r, 0.0],
            [-2.0 * r, 0.5, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    row = np.array(
        [0.25, 0.125 * math.sqrt(2.0 / 3.0), 0.75 - 0.125 * math.sqrt(2.0 / 3.0)]
    )
    row_rotated = np.array(
        [
            0.0,
            0.125 * math.sqrt(3.0 / 2.0) + math.sqrt(2.0 / 3.0) / 16.0,
            0.75 - 0.125 * math.sqrt(2.0 / 3.0),
        ]
    )
    return C, Q, row, row_rotated
