"""The synthetic benchmark design with the number of factors as a parameter.

``love.model.benchmark_model`` fixes K = 20.  This copy takes K as an
argument and keeps everything else: diagonal 2 + i/19, off-diagonal
(-1)^(i+j) 0.3^|i-j| min(C_ii, C_jj), five pure rows per factor with the
sign patterns (3,2), (4,1), (2,3), (1,4), (5,0) cycling over the factors,
mixed rows with a support of 2..5 factors and entries +-1/size, and noise
variances uniform on [1, 3].  The random draws come in the same order as in
the library, so K = 20 reproduces ``benchmark_model(p, seed)`` bit for bit
(``check_matches_library`` asserts it).
"""

from __future__ import annotations

import numpy as np

_SIGN_PATTERNS = [(3, 2), (4, 1), (2, 3), (1, 4), (5, 0)]
_PURE_PER_FACTOR = 5


def factor_covariance(k: int) -> np.ndarray:
    """The k x k factor covariance of the benchmark design."""
    idx = np.arange(k)
    d = 2.0 + idx / 19.0
    signs = (-1.0) ** (idx[:, None] + idx[None, :])
    decay = 0.3 ** np.abs(idx[:, None] - idx[None, :])
    C = signs * decay * np.minimum.outer(d, d)
    np.fill_diagonal(C, d)
    return C


def design_model(p: int, seed: int, k: int = 20):
    """The benchmark model at dimension ``p`` with ``k`` factors."""
    from love.model import FactorModel

    n_pure = _PURE_PER_FACTOR * k
    if p < n_pure:
        raise ValueError(f"p must be at least {n_pure} for {k} factors, got {p}")
    rng = np.random.default_rng(seed)
    A = np.zeros((p, k))
    row = 0
    for a in range(k):
        n_pos = _SIGN_PATTERNS[a % len(_SIGN_PATTERNS)][0]
        for r in range(_PURE_PER_FACTOR):
            A[row, a] = 1.0 if r < n_pos else -1.0
            row += 1
    for j in range(n_pure, p):
        size = int(rng.integers(2, 6))
        support = rng.choice(k, size=size, replace=False)
        signs = rng.choice([-1.0, 1.0], size=size)
        A[j, support] = signs / size
    gamma = rng.uniform(1.0, 3.0, size=p)
    return FactorModel(A=A, C=factor_covariance(k), Gamma=gamma)


def check_matches_library(p: int, seed: int) -> None:
    """Raise unless K = 20 gives the library's model bit for bit."""
    from love.model import benchmark_model

    ours, theirs = design_model(p, seed, k=20), benchmark_model(p, seed)
    for name in ("A", "C", "Gamma"):
        a, b = getattr(ours, name), getattr(theirs, name)
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            raise AssertionError(f"design_model(k=20) differs from benchmark_model in {name}")
