import itertools
import math

import numpy as np
import pytest

from love.covariance import sample_covariance
from love.model import (
    FactorModel,
    benchmark_covariance,
    benchmark_model,
    population_covariance,
    pure_set_of,
    rotation_counterexample,
    sample_dataset,
    separation,
    truth_diagnostics,
    validate_model,
)


class TestValidateModel:
    def test_single_factor_two_pure_rows_is_valid(self):
        model = FactorModel(A=[[1.0], [1.0]], C=[[1.0]], Gamma=[1.0, 1.0])
        report = validate_model(model)
        assert report.ok
        assert math.isinf(report.delta_c)
        assert report.pure_counts.tolist() == [2]

    def test_model_without_pure_rows_violates_pure_condition(self):
        # every row is the counterexample row, which loads on all three factors
        c, _, row, _ = rotation_counterexample()
        report = validate_model(FactorModel(A=np.tile(row, (6, 1)), C=c, Gamma=np.ones(6)))
        assert not report.ok
        assert any("pure" in v for v in report.violations)

    def test_zero_separation_violates_condition(self):
        c = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        a = np.zeros((6, 3))
        for f in range(3):
            a[2 * f, f] = 1.0
            a[2 * f + 1, f] = 1.0
        report = validate_model(FactorModel(A=a, C=c, Gamma=np.ones(6)))
        assert report.delta_c == 0.0
        assert any("separation" in v for v in report.violations)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            FactorModel(A=np.eye(3), C=np.eye(2), Gamma=np.ones(3))
        with pytest.raises(ValueError):
            FactorModel(A=np.eye(3), C=np.eye(3), Gamma=np.ones(2))

    def test_row_scaling_violation_detected(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.8, 0.4]])
        report = validate_model(FactorModel(A=a, C=np.eye(2), Gamma=np.ones(5)))
        assert any("scaling" in v for v in report.violations)


class TestPopulationCovariance:
    def test_rank_one_case(self):
        c, g = 1.7, 0.3
        model = FactorModel(A=[[1.0], [1.0]], C=[[c]], Gamma=[g, g])
        sigma = population_covariance(model)
        assert sigma[0, 1] == pytest.approx(c)
        assert sigma[0, 0] == pytest.approx(c + g)

    def test_mixed_row_entries(self, toy_sigma):
        sigma = toy_sigma
        assert sigma[0, 6] == pytest.approx(0.4, abs=1e-15)
        assert sigma[2, 6] == pytest.approx(0.6, abs=1e-15)
        assert sigma[6, 7] == pytest.approx(-0.2, abs=1e-15)

    @pytest.mark.parametrize("fixture", ["toy", "design"])
    def test_pure_blocks_attain_factor_variance(self, fixture, toy_model, design_model):
        # within a pure group every |Sigma_ij| equals C_aa exactly; outside
        # the group the entries stay strictly below
        model = toy_model if fixture == "toy" else design_model
        sigma = population_covariance(model)
        partition = pure_set_of(model.A)
        for a, group in enumerate(partition.groups):
            caa = model.C[a, a]
            others = np.setdiff1d(np.arange(model.p), group)
            for i in group:
                inside = np.abs(sigma[i, np.setdiff1d(group, [i])])
                assert np.abs(inside - caa).max() < 1e-12
                assert np.abs(sigma[i, others]).max() < caa - 1e-12


class TestPureSetOf:
    def test_design_has_100_pure_in_20_groups(self, design_model):
        partition = pure_set_of(design_model.A)
        assert partition.k == 20
        assert partition.pure_set.size == 100
        assert all(g.size == 5 for g in partition.groups)

    def test_all_pure_identity(self):
        partition = pure_set_of(np.diag([1.0, -1.0, 1.0]))
        assert partition.pure_set.tolist() == [0, 1, 2]
        assert partition.signs == {0: 1, 1: -1, 2: 1}

    def test_toy_partition(self, toy_model):
        partition = pure_set_of(toy_model.A)
        assert [g.tolist() for g in partition.groups] == [[0, 1], [2, 3], [4, 5]]
        assert partition.signs[1] == -1

    def test_near_unit_rows_are_not_pure(self):
        partition = pure_set_of(np.array([[0.9999, 0.0], [1.0, 1e-300]]))
        assert partition.pure_set.size == 0


class TestRotationCounterexample:
    def test_covariance_is_preserved(self):
        c, q, _, _ = rotation_counterexample()
        assert np.abs(q @ c @ q.T - c).max() < 1e-12

    def test_rotated_row_matches_closed_form(self):
        _, q, row, row_rotated = rotation_counterexample()
        assert np.abs(row @ q - row_rotated).max() < 1e-12
        # both rows satisfy the scaling condition yet differ in sparsity
        assert np.abs(row).sum() <= 1.0 + 1e-12
        assert np.abs(row_rotated).sum() <= 1.0 + 1e-12
        assert (row != 0).sum() != (row_rotated != 0).sum()


class TestTruthDiagnostics:
    def test_zero_delta_gives_no_quasi_pure(self, toy_model):
        diag = truth_diagnostics(toy_model, delta=0.0, mu=0.01)
        assert diag.j1.size == 0

    def test_toy_mixed_rows_are_strong_signal(self, toy_model):
        diag = truth_diagnostics(toy_model, delta=1e-4, mu=0.05)
        assert set(diag.j2.tolist()) == {6, 7}
        assert diag.j3.size == 0
        assert diag.row_sparsity == 2
        assert diag.sensitivity_norm == pytest.approx(1.0)

    def test_near_unit_row_is_quasi_pure(self):
        a = np.array(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.99, 0.01]]
        )
        model = FactorModel(A=a, C=np.eye(2), Gamma=np.ones(5))
        # delta/nu = 0.01 puts the quasi-pure boundary at 1 - 0.04 = 0.96
        diag = truth_diagnostics(model, delta=0.01, mu=0.001)
        assert diag.j1.tolist() == [4]
        assert diag.j1_by_factor[0].tolist() == [4]
        assert diag.j1_by_factor[1].size == 0

    def test_sets_partition_the_non_pure_indices(self, design_model):
        diag = truth_diagnostics(design_model, delta=0.01, mu=0.05)
        merged = np.concatenate([diag.j1, diag.j2, diag.j3])
        assert np.array_equal(np.sort(merged), np.arange(100, 200))


class TestBenchmarkModel:
    def test_separation_matches_pairwise_enumeration(self):
        c = benchmark_covariance()
        best = min(
            min(c[a, a], c[b, b]) - abs(c[a, b])
            for a, b in itertools.combinations(range(20), 2)
        )
        assert separation(c) == pytest.approx(best)
        assert separation(c) == pytest.approx(1.4)

    def test_model_is_valid_and_structured(self):
        model = benchmark_model(200, seed=7)
        assert validate_model(model).ok
        partition = pure_set_of(model.A)
        assert partition.k == 20
        assert partition.pure_set.tolist() == list(range(100))
        # sign patterns cycle (3,2), (4,1), (2,3), (1,4), (5,0)
        positives = [sum(1 for i in g if model.A[i].sum() > 0) for g in partition.groups]
        assert positives == [3, 4, 2, 1, 5] * 4
        # every non-pure row has l1 norm exactly 1
        tail = np.abs(model.A[100:]).sum(axis=1)
        assert (tail == 1.0).all()
        sizes = (model.A[100:] != 0).sum(axis=1)
        assert set(sizes.tolist()) <= {2, 3, 4, 5}
        assert ((model.Gamma >= 1.0) & (model.Gamma <= 3.0)).all()

    def test_deterministic_given_seed(self):
        m1 = benchmark_model(150, seed=3)
        m2 = benchmark_model(150, seed=3)
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.Gamma, m2.Gamma)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            benchmark_model(99, seed=0)


class TestSampleDataset:
    def test_identity_model_gives_standard_normals(self):
        p = 5
        model = FactorModel(A=np.eye(p), C=np.eye(p), Gamma=np.zeros(p))
        data = sample_dataset(model, 20000, seed=0)
        assert abs(data.samples.mean()) < 0.02
        assert abs(data.samples.var() - 1.0) < 0.03

    def test_deterministic_given_seed(self, toy_model):
        d1 = sample_dataset(toy_model, 50, seed=9)
        d2 = sample_dataset(toy_model, 50, seed=9)
        assert np.array_equal(d1.samples, d2.samples)

    def test_large_sample_covariance_matches_population(self, design_model):
        data = sample_dataset(design_model, 100_000, seed=21)
        sigma_hat = sample_covariance(data, center=False)
        sigma = population_covariance(design_model)
        assert np.abs(sigma_hat - sigma).max() < 0.1

    def test_non_positive_definite_c_raises(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        model = FactorModel(A=a, C=c, Gamma=np.ones(4))
        with pytest.raises(np.linalg.LinAlgError, match="factor covariance"):
            sample_dataset(model, 10, seed=0)
