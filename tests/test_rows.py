import numpy as np
import pytest

from love.lp import lp_solve
from love.model import pure_set_of
from love.moments import estimate_cross_covariance_matrix
from love.precision import estimate_precision
from love.pure import estimate_pure_rows, find_pure_variables
from love.rows import (
    HARD_THRESHOLD,
    assemble_loading,
    hard_threshold,
    sparse_project,
)


def l1_projection_by_lp(beta_bar: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """Solve min ||beta||_1 s.t. ||beta - beta_bar||_inf <= mu as an LP."""
    k = beta_bar.size
    c = np.concatenate([np.zeros(k), np.ones(k)])
    a_ub = np.hstack([np.eye(k), -np.eye(k)])
    a_ub = np.vstack([a_ub, np.hstack([-np.eye(k), -np.eye(k)])])
    b_ub = np.zeros(2 * k)
    bounds = [(b - mu, b + mu) for b in beta_bar] + [(0.0, None)] * k
    result = lp_solve(c, a_ub, b_ub, bounds)
    assert result.status == "optimal"
    return result.value, result.x[:k]


class TestSparseProject:
    def test_zero_input_stays_zero(self):
        assert np.array_equal(sparse_project(np.zeros(4), 0.3), np.zeros(4))

    def test_componentwise_shrinkage(self):
        got = sparse_project(np.array([0.5, -0.3, 0.05]), 0.1)
        assert np.allclose(got, [0.4, -0.2, 0.0])

    def test_zero_radius_is_identity(self):
        beta = np.array([0.2, -0.7, 0.0])
        assert np.array_equal(sparse_project(beta, 0.0), beta)

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            k = int(rng.integers(1, 7))
            beta_bar = rng.uniform(-1, 1, k)
            mu = float(rng.uniform(0, 0.8))
            closed = sparse_project(beta_bar, mu)
            value, point = l1_projection_by_lp(beta_bar, mu)
            assert abs(np.abs(closed).sum() - value) <= 1e-8, trial
            assert np.abs(closed - point).max() <= 1e-8, trial

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            sparse_project(np.ones(2), -0.1)

    def test_sup_norm_contract(self):
        # if the pre-estimate is within mu of the target, the projection is
        # within 2 mu of the target
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = 5
            beta = np.where(rng.random(k) < 0.5, 0.0, rng.uniform(-1, 1, k))
            mu = float(rng.uniform(0.01, 0.3))
            beta_bar = beta + rng.uniform(-mu, mu, k)
            projected = sparse_project(beta_bar, mu)
            assert np.abs(projected - beta).max() <= 2 * mu + 1e-12

    def test_no_false_support(self):
        # zero coordinates of the target stay zero whenever the
        # pre-estimate is within mu of the target
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = 6
            beta = np.where(rng.random(k) < 0.5, 0.0, rng.uniform(-1, 1, k))
            mu = float(rng.uniform(0.01, 0.3))
            beta_bar = beta + rng.uniform(-mu, mu, k)
            projected = sparse_project(beta_bar, mu)
            assert not projected[beta == 0.0].any()


class TestHardThreshold:
    def test_keeps_surviving_entries_verbatim(self):
        got = hard_threshold(np.array([0.5, -0.3, 0.05]), 0.1)
        assert np.array_equal(got, [0.5, -0.3, 0.0])

    def test_zero_radius_preserves_exact_zeros(self):
        beta = np.array([0.2, 0.0, -0.1])
        assert np.array_equal(hard_threshold(beta, 0.0), beta)

    def test_support_agrees_with_soft_projection(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            beta_bar = rng.uniform(-1, 1, 6)
            mu = float(rng.uniform(0, 0.5))
            hard = hard_threshold(beta_bar, mu)
            soft = sparse_project(beta_bar, mu)
            assert np.array_equal(hard != 0, soft != 0)

    def test_l1_norm_can_exceed_one(self):
        got = hard_threshold(np.array([0.7, 0.6]), 0.1)
        assert np.abs(got).sum() > 1.0


def signed_partition(sigma):
    partition, _ = find_pure_variables(sigma, 1e-6)
    signed, _ = estimate_pure_rows(sigma, partition)
    return signed


class TestPreEstimate:
    """The pre-estimate Omega_hat @ theta_hat, one column per non-pure row."""

    def test_identity_precision(self, toy_sigma):
        # with Omega = I and mu = 0 the fitted rows are the cross moments
        signed = signed_partition(toy_sigma)
        theta = estimate_cross_covariance_matrix(toy_sigma, signed)
        loading = assemble_loading(signed, sparse_project(np.eye(3) @ theta, 0.0), 8)
        assert np.array_equal(loading.a_hat[6:], theta.T)

    def test_exact_inverse_recovers_row(self, design_model, design_sigma):
        truth = pure_set_of(design_model.A)
        theta = estimate_cross_covariance_matrix(design_sigma, truth)
        beta_bar = np.linalg.inv(design_model.C) @ theta
        assert np.abs(beta_bar - design_model.A[100:].T).max() < 1e-10

    def test_toy_population_pre_estimate(self, toy_model, toy_sigma):
        truth = pure_set_of(toy_model.A)
        omega = estimate_precision(np.eye(3), 1e-8)
        theta = estimate_cross_covariance_matrix(toy_sigma, truth)
        beta_bar = omega.omega @ theta
        assert np.abs(beta_bar[:, 0] - [0.4, 0.6, 0.0]).max() < 1e-4
        assert np.abs(beta_bar[:, 1] - [-0.5, 0.0, 0.4]).max() < 1e-4


class TestAssembleLoading:
    def test_all_pure_rows(self, design_sigma):
        signed = signed_partition(design_sigma)
        loading = assemble_loading(signed, np.zeros((20, 100)), 200)
        pure_rows = loading.a_hat[:100]
        assert (np.abs(pure_rows).sum(axis=1) == 1.0).all()

    def test_columns_fill_non_pure_rows_ascending(self, toy_sigma):
        signed = signed_partition(toy_sigma)
        beta_hat = np.array([[0.1, 0.4], [0.2, 0.5], [0.3, 0.6]])
        loading = assemble_loading(signed, beta_hat, 8)
        assert np.array_equal(loading.a_hat[6:], beta_hat.T)

    def test_missing_row_rejected(self, toy_sigma):
        signed = signed_partition(toy_sigma)
        with pytest.raises(ValueError, match="shape"):
            assemble_loading(signed, np.zeros((3, 1)), 8)

    def test_duplicate_row_rejected(self, toy_sigma):
        # one column more than there are non-pure rows
        signed = signed_partition(toy_sigma)
        with pytest.raises(ValueError, match="shape"):
            assemble_loading(signed, np.zeros((3, 3)), 8)

    def test_wrong_factor_count_rejected(self, toy_sigma):
        signed = signed_partition(toy_sigma)
        with pytest.raises(ValueError, match="shape"):
            assemble_loading(signed, np.zeros((2, 2)), 8)

    def test_toy_population_end_to_end(self, toy_model, toy_sigma):
        signed = signed_partition(toy_sigma)
        from love.moments import estimate_factor_covariance
        from love.evaluation import lq_loss

        c_hat = estimate_factor_covariance(toy_sigma, signed)
        omega = estimate_precision(c_hat, 1e-8)
        theta = estimate_cross_covariance_matrix(toy_sigma, signed)
        mu = 1e-3
        loading = assemble_loading(signed, sparse_project(omega.omega @ theta, mu), 8)
        loss = lq_loss(loading.a_hat, toy_model.A, np.inf)
        assert loss <= mu + 1e-4

    def test_zero_theta_row_lands_in_noise_cluster(self, toy_sigma):
        from love.clusters import clusters_from_loadings

        signed = signed_partition(toy_sigma)
        loading = assemble_loading(signed, np.zeros((3, 2)), 8)
        clusters = clusters_from_loadings(loading)
        assert set(clusters.noise.tolist()) == {6, 7}

    def test_hard_threshold_method_recorded(self, toy_sigma):
        signed = signed_partition(toy_sigma)
        loading = assemble_loading(signed, np.zeros((3, 2)), 8, row_method=HARD_THRESHOLD)
        assert loading.row_method == HARD_THRESHOLD
