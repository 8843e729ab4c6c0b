import numpy as np
import pytest

from love.covariance import sample_covariance
from love.model import Dataset


def test_single_sample_uncentered_is_outer_product():
    x = np.array([1.0, -2.0, 0.5])
    cov = sample_covariance(Dataset(samples=x[None, :]), center=False)
    assert np.allclose(cov, np.outer(x, x))


def test_sign_flipped_pair_uncentered():
    x = np.array([0.3, 1.1])
    cov = sample_covariance(np.vstack([x, -x]), center=False)
    assert np.allclose(cov, np.outer(x, x))


def test_centering_requires_two_samples():
    with pytest.raises(ValueError):
        sample_covariance(np.ones((1, 3)), center=True)


def test_centered_divides_by_n():
    x = np.array([[0.0], [2.0]])
    cov = sample_covariance(x, center=True)
    # mean 1, deviations +-1, divided by n = 2 (not n - 1)
    assert cov[0, 0] == pytest.approx(1.0)


def test_invariant_under_row_permutation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 6))
    cov1 = sample_covariance(x, center=False)
    cov2 = sample_covariance(x[rng.permutation(40)], center=False)
    assert np.allclose(cov1, cov2)


def test_centered_invariant_under_constant_shift():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    shift = np.array([5.0, -3.0, 0.7, 100.0])
    cov1 = sample_covariance(x, center=True)
    cov2 = sample_covariance(x + shift, center=True)
    assert np.abs(cov1 - cov2).max() < 1e-10


@pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_output_is_exactly_symmetric(layout, center):
    # at this size x[:, ::2].T @ x[:, ::2] itself is not exactly symmetric
    x = np.random.default_rng(2).standard_normal((300, 200))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        x = x[:, ::2]
    cov = sample_covariance(x, center=center)
    assert cov.shape == (x.shape[1], x.shape[1])
    assert np.array_equal(cov, cov.T)
