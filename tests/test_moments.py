import numpy as np
import pytest

from love.covariance import sample_covariance
from love.model import (
    FactorModel,
    PurePartition,
    population_covariance,
    pure_set_of,
    sample_dataset,
)
from love.moments import estimate_cross_covariance_matrix, estimate_factor_covariance


def cross_covariance_column(sigma, partition, j: int) -> np.ndarray:
    return estimate_cross_covariance_matrix(sigma, partition, np.array([j]))[:, 0]


class TestFactorCovariance:
    def test_toy_population_identity(self, toy_model, toy_sigma):
        c_hat = estimate_factor_covariance(toy_sigma, pure_set_of(toy_model.A))
        assert np.abs(c_hat - np.eye(3)).max() < 1e-12

    def test_design_population_identity(self, design_model, design_sigma):
        c_hat = estimate_factor_covariance(design_sigma, pure_set_of(design_model.A))
        assert np.abs(c_hat - design_model.C).max() < 1e-12

    def test_group_sign_flip_negates_row_and_column(self, design_model, design_sigma):
        truth = pure_set_of(design_model.A)
        flipped_signs = dict(truth.signs)
        for i in truth.groups[3]:
            flipped_signs[int(i)] = -flipped_signs[int(i)]
        flipped = PurePartition(groups=list(truth.groups), signs=flipped_signs)
        base = estimate_factor_covariance(design_sigma, truth)
        alt = estimate_factor_covariance(design_sigma, flipped)
        expect = base.copy()
        expect[3, :] *= -1
        expect[:, 3] *= -1
        expect[3, 3] = base[3, 3]
        assert np.abs(alt - expect).max() < 1e-12

    def test_symmetric_output(self, design_sigma, design_model):
        c_hat = estimate_factor_covariance(design_sigma, pure_set_of(design_model.A))
        assert np.array_equal(c_hat, c_hat.T)

    def test_singleton_group_rejected(self, toy_sigma):
        partition = PurePartition(groups=[np.array([0])], signs={0: 1})
        with pytest.raises(ValueError):
            estimate_factor_covariance(toy_sigma, partition)


class TestCrossCovariance:
    def test_toy_mixed_rows(self, toy_model, toy_sigma):
        truth = pure_set_of(toy_model.A)
        theta7 = cross_covariance_column(toy_sigma, truth, 6)
        theta8 = cross_covariance_column(toy_sigma, truth, 7)
        assert np.allclose(theta7, [0.4, 0.6, 0.0], atol=1e-12)
        assert np.allclose(theta8, [-0.5, 0.0, 0.4], atol=1e-12)

    def test_population_identity_equals_c_times_row(self, design_model, design_sigma):
        truth = pure_set_of(design_model.A)
        theta = estimate_cross_covariance_matrix(design_sigma, truth)
        expected = design_model.C @ design_model.A[100:].T
        assert np.abs(theta - expected).max() < 1e-12

    def test_zero_row_gives_zero_vector(self):
        a = np.vstack([np.repeat(np.eye(2), 2, axis=0), np.zeros(2)])
        model = FactorModel(A=a, C=np.eye(2), Gamma=np.ones(5))
        sigma = population_covariance(model)
        theta = cross_covariance_column(sigma, pure_set_of(a), 4)
        assert np.abs(theta).max() == 0.0

    def test_error_scaling_with_sample_size(self, design_model):
        # moment errors should shrink roughly like 1/sqrt(n); the ratio
        # between n = 300 and n = 1000 stays within a factor 2.5 of
        # sqrt(1000/300)
        truth = pure_set_of(design_model.A)
        sigma = population_covariance(design_model)
        theta_true = design_model.C @ design_model.A[100:].T

        def errors(n, seed):
            cov = sample_covariance(
                sample_dataset(design_model, n, seed=seed), center=False
            )
            c_err = np.abs(
                estimate_factor_covariance(cov, truth) - design_model.C
            ).max()
            t_err = np.abs(
                estimate_cross_covariance_matrix(cov, truth) - theta_true
            ).max()
            return c_err, t_err

        reps = 5
        c300 = np.mean([errors(300, 50 + r)[0] for r in range(reps)])
        c1000 = np.mean([errors(1000, 70 + r)[0] for r in range(reps)])
        t300 = np.mean([errors(300, 50 + r)[1] for r in range(reps)])
        t1000 = np.mean([errors(1000, 70 + r)[1] for r in range(reps)])
        expected = np.sqrt(1000 / 300)
        for ratio in (c300 / c1000, t300 / t1000):
            assert expected / 2.5 < ratio < expected * 2.5
