"""Sample covariance, the single data-to-moments interface of the pipeline."""

from __future__ import annotations

from typing import Union

import numpy as np

from .model import Dataset

__all__ = ["sample_covariance"]


def sample_covariance(data: Union[Dataset, np.ndarray], center: bool = True) -> np.ndarray:
    """Second-moment matrix of the sample, divided by n, as a (p, p) array.

    With ``center=False`` this is the raw second moment (1/n) sum x x^T;
    with ``center=True`` the sample mean is removed first and the divisor
    stays n, not n - 1.  Centering needs at least two samples.  The result
    is exactly symmetric.
    """
    x = data.samples if isinstance(data, Dataset) else np.atleast_2d(np.asarray(data, dtype=float))
    n = x.shape[0]
    if center:
        if n < 2:
            raise ValueError("centering requires at least 2 samples")
        x = x - x.mean(axis=0)
    # on a C-contiguous x numpy evaluates x^T x as a symmetric rank-k update,
    # which fills one triangle and mirrors it; a strided x loses that
    x = np.ascontiguousarray(x)
    return x.T @ x / n
