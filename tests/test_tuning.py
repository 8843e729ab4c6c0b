import math

import numpy as np
import pytest

import love.tuning
from love.exceptions import EstimationError
from love.model import Dataset, PurePartition, pure_set_of, sample_dataset, benchmark_model
from love.moments import estimate_factor_covariance
from love.precision import PrecisionEstimate
from love.pure import estimate_pure_rows, find_pure_variables, pure_loading_matrix
from love.tuning import (
    cv_criterion,
    cv_delta,
    cv_lambda,
    default_delta_grid,
    delta_rate,
    likelihood_loss,
    split_halves,
)


#: cv_delta curve on benchmark_model(200, 31), n = 300 (data seed 32), split
#: seed 33, centered, default grid; selected constant 1.952805471695823.
RECORDED_CV_CURVE = [
    0.4504643676981534, 0.4479369042232522, 0.44632951472022925, 0.4392776760062907,
    0.43716648121285456, 0.43264797398678234, 0.432199932036059, 0.4320767941308945,
    0.4341224947955831, 0.4330930963532954, 0.43106116171472164, 0.43348148059715774,
    0.4329149393224744, 0.43138539586707114, 0.4312099444749176, 0.4377463716547475,
    0.4365852874577833, 0.43557744565117107, 0.43557744565117107, 0.4354622205802893,
    0.43721341996876334, 0.4379951909639738, 0.4379951909639738, 0.43537550405255143,
    0.43711307346816913, 0.4362181268732564, 0.438490409505468, 0.4385165129450479,
    0.43450392418491524, 0.43200145939310053, 0.43200145939310053, 0.43170281746275074,
    0.43150814687558753, 0.43150814687558753, 0.428342869120648, 0.428342869120648,
    0.428342869120648, 0.428712873651784, 0.42850378071424733, 0.43303920928560724,
    0.43176258047753846, 0.43228833127607047, 0.43228833127607047, 0.43228833127607047,
    0.4319355863770399, 0.4319355863770399, 0.4324078590739621, 0.43325664017208165,
    0.43325664017208165, 0.43325664017208165,
]


def contaminated_partition(sigma) -> PurePartition:
    """The true toy partition with the first mixed variable glued onto group 3."""
    base = PurePartition(
        groups=[np.array([0, 1]), np.array([2, 3]), np.array([4, 5, 6])]
    )
    signed, _ = estimate_pure_rows(sigma, base)
    return signed


class TestCvCriterion:
    def test_exact_fit_scores_zero(self, toy_model, toy_sigma):
        truth = pure_set_of(toy_model.A)
        c_hat = estimate_factor_covariance(toy_sigma, truth)
        assert cv_criterion(toy_sigma, truth, c_hat) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_scaling_cancels(self):
        eps = 0.07
        holdout = np.array([[1.0, 0.5 + eps], [0.5 + eps, 1.0]])
        partition = PurePartition(groups=[np.array([0, 1])], signs={0: 1, 1: 1})
        value = cv_criterion(holdout, partition, np.array([[0.5]]))
        assert value == pytest.approx(eps)

    def test_matches_direct_entry_loop(self, toy_sigma):
        # independent recomputation of the criterion by explicit loops
        partition = contaminated_partition(toy_sigma)
        c_hat = estimate_factor_covariance(toy_sigma, partition)
        value = cv_criterion(toy_sigma, partition, c_hat)
        idx, rows = pure_loading_matrix(partition)
        total = 0.0
        for r, i in enumerate(idx):
            for s, j in enumerate(idx):
                if i == j:
                    continue
                fitted = rows[r] @ c_hat @ rows[s]
                total += (toy_sigma[i, j] - fitted) ** 2
        expected = math.sqrt(total) / math.sqrt(idx.size * (idx.size - 1))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_contaminated_partition_exceeds_threshold(self, toy_sigma):
        # the population surrogate with epsilon = 0.05: gluing a mixed
        # variable onto a pure group must push the criterion past 2 epsilon
        partition = contaminated_partition(toy_sigma)
        c_hat = estimate_factor_covariance(toy_sigma, partition)
        assert cv_criterion(toy_sigma, partition, c_hat) > 0.1

    def test_singleton_group_scores_infinite(self, toy_sigma):
        partition = PurePartition(
            groups=[np.array([0, 1]), np.array([2, 3]), np.array([4]), np.array([5])],
            signs={0: 1, 1: -1, 2: 1, 3: 1, 4: 1, 5: 1},
        )
        assert cv_criterion(toy_sigma, partition, np.eye(4)) == math.inf

    def test_invariant_under_relabeling_and_group_sign_flips(self, toy_sigma):
        partition = contaminated_partition(toy_sigma)
        c_hat = estimate_factor_covariance(toy_sigma, partition)
        base = cv_criterion(toy_sigma, partition, c_hat)
        # relabel the groups and flip the sign of one group globally; the
        # fitted block is invariant when the factor covariance is rebuilt
        order = [2, 0, 1]
        signs = dict(partition.signs)
        for i in partition.groups[1]:
            signs[int(i)] = -signs[int(i)]
        relabeled = PurePartition(
            groups=[partition.groups[a] for a in order], signs=signs
        )
        c_re = estimate_factor_covariance(toy_sigma, relabeled)
        assert cv_criterion(toy_sigma, relabeled, c_re) == pytest.approx(base, abs=1e-12)


class TestCvDelta:
    def test_single_constant_grid_returns_it(self, design_model):
        data = sample_dataset(design_model, 400, seed=1)
        result = cv_delta(data, grid_constants=np.array([2.0]), seed=0)
        assert result.constant == pytest.approx(2.0)
        assert result.delta == pytest.approx(2.0 * delta_rate(400, 200))
        assert len(result.table) == 1

    def test_deterministic(self, design_model):
        data = sample_dataset(design_model, 400, seed=2)
        r1 = cv_delta(data, seed=3)
        r2 = cv_delta(data, seed=3)
        assert r1.delta == r2.delta
        assert np.array_equal(r1.curve, r2.curve)

    def test_selected_delta_recovers_k_on_benchmark(self):
        from love.covariance import sample_covariance

        for s in range(2):
            model = benchmark_model(200, 500 + s)
            data = sample_dataset(model, 500, 600 + s)
            result = cv_delta(data, seed=s)
            cov = sample_covariance(data, center=False)
            partition, _ = find_pure_variables(cov, result.delta)
            assert partition.k == 20, s

    def test_all_grid_points_invalid_raises(self, design_model, monkeypatch):
        data = sample_dataset(design_model, 100, seed=4)

        def no_pure(cov, deltas):
            return [PurePartition(groups=[]) for _ in deltas]

        monkeypatch.setattr(love.tuning, "scan_delta_grid", no_pure)
        with pytest.raises(EstimationError, match="widen"):
            cv_delta(data, seed=0)

    def test_curve_and_selection_unchanged(self):
        # recorded from the per-delta scan that the one-pass grid scan replaced
        data = sample_dataset(benchmark_model(200, 31), 300, seed=32)
        result = cv_delta(data, seed=33, center=True)
        assert result.delta == 0.26926495485312074
        assert result.constant == 1.952805471695823
        np.testing.assert_allclose(result.curve, RECORDED_CV_CURVE, rtol=1e-12, atol=0)

    def test_trace_table_columns(self, design_model):
        data = sample_dataset(design_model, 300, seed=5)
        result = cv_delta(data, grid_constants=np.array([1.8, 2.5]), seed=1)
        assert set(result.table[0]) == {"c", "delta", "k_hat", "i_size", "cv_value"}

    def test_strict_minimizer_mode(self, design_model):
        data = sample_dataset(design_model, 400, seed=6)
        result = cv_delta(data, seed=2, symmetric=False, tie_tolerance=0.0)
        curve = result.curve
        chosen = np.nonzero(
            np.array([row["delta"] for row in result.table]) == result.delta
        )[0][0]
        assert curve[chosen] == curve.min()


class TestSplitHalves:
    def test_sizes_and_determinism(self):
        data = Dataset(samples=np.arange(30, dtype=float).reshape(10, 3))
        h1a, h2a = split_halves(data, seed=7)
        h1b, h2b = split_halves(data, seed=7)
        assert h1a.shape == (5, 3) and h2a.shape == (5, 3)
        assert np.array_equal(h1a, h1b) and np.array_equal(h2a, h2b)
        # together the halves hold exactly the original rows
        merged = np.vstack([h1a, h2a])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, data.samples))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            split_halves(Dataset(samples=np.ones((3, 2))), seed=0)


class TestCvLambda:
    def test_identity_halves_select_smallest(self):
        delta_cv = 0.2
        lam, trace = cv_lambda(np.eye(4), np.eye(4), delta_cv)
        assert lam == pytest.approx(delta_cv)
        losses = [t["loss"] for t in trace]
        assert losses == sorted(losses)

    def test_all_non_pd_falls_back_to_delta(self):
        c = np.diag([1.0, -1.0])
        lam, trace = cv_lambda(c, c, 0.01)
        assert lam == pytest.approx(0.01)
        assert all("skipped" in t for t in trace)

    def test_non_symmetric_indefinite_candidate_is_skipped(self, monkeypatch):
        # positive determinant, but the symmetric part has eigenvalues -4 and 6
        omega = np.array([[1.0, 10.0], [0.0, 1.0]])
        monkeypatch.setattr(
            love.tuning,
            "estimate_precision",
            lambda c, lam: PrecisionEstimate(omega=omega, t_hat=1.0, lam=lam, residual=0.0),
        )
        lam, trace = cv_lambda(np.eye(2), np.eye(2), 0.1, grid=np.array([0.1, 0.2]))
        assert lam == pytest.approx(0.1)
        assert [t["skipped"] for t in trace] == ["not positive definite"] * 2

    def test_grid_must_stay_in_range(self):
        with pytest.raises(ValueError):
            cv_lambda(np.eye(2), np.eye(2), 0.1, grid=np.array([0.01]))


class TestLikelihoodLoss:
    def test_inverse_minimizes_the_loss(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((4, 4))
        c = m @ m.T / 4 + np.eye(4)
        base = likelihood_loss(np.linalg.inv(c), c)
        for _ in range(20):
            e = rng.standard_normal((4, 4)) * 0.05
            candidate = np.linalg.inv(c) + 0.5 * (e + e.T)
            if np.linalg.eigvalsh(candidate).min() <= 0:
                continue
            assert likelihood_loss(candidate, c) >= base - 1e-12

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            likelihood_loss(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_non_symmetric_with_indefinite_symmetric_part(self):
        # det = 1 and the lower triangle alone is the identity, but
        # (Omega + Omega^T) / 2 has eigenvalues -4 and 6
        with pytest.raises(ValueError):
            likelihood_loss(np.array([[1.0, 10.0], [0.0, 1.0]]), np.eye(2))


def test_default_grid_and_rate():
    grid = default_delta_grid()
    assert grid.size == 50
    assert grid[0] == pytest.approx(1.8) and grid[-1] == pytest.approx(4.0)
    assert delta_rate(1000, 200) == pytest.approx(math.sqrt(math.log(1000) / 1000))
    assert delta_rate(100, 500) == pytest.approx(math.sqrt(math.log(500) / 100))
