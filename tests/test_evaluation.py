import itertools
import math

import numpy as np
import pytest

from love.clusters import ClusterSet, clusters_from_loadings
from love.evaluation import (
    SignedPermutation,
    align_signed_permutation,
    cluster_metrics,
    direction_metrics,
    error_aggregates,
    evaluate_estimate,
    lq_loss,
    pairwise_sn_sp,
    support_sign_check,
    theoretical_rate_ratio,
)
from love.model import truth_diagnostics


def brute_force_alignment(a_hat: np.ndarray, a: np.ndarray) -> float:
    """Exhaustive minimum of ||A_hat P - A||_F over signed permutations."""
    k = a.shape[1]
    best = math.inf
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1, -1), repeat=k):
            aligned = a_hat[:, perm] * np.array(signs)
            best = min(best, float(np.linalg.norm(aligned - a)))
    return best


class TestAlignment:
    def test_identity_when_equal(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 3))
        alignment = align_signed_permutation(a, a)
        assert alignment.perm.tolist() == [0, 1, 2]
        assert alignment.signs.tolist() == [1, 1, 1]
        assert np.abs(alignment.apply(a) - a).max() == 0.0

    def test_recovers_constructed_transform(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((10, 3))
        a_hat = a[:, [1, 0, 2]].copy()
        a_hat[:, 2] *= -1
        alignment = align_signed_permutation(a_hat, a)
        assert np.abs(alignment.apply(a_hat) - a).max() < 1e-12
        assert alignment.perm.tolist() == [1, 0, 2]
        assert alignment.signs.tolist() == [1, 1, -1]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_exhaustive_search(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            a = rng.standard_normal((8, k))
            a_hat = rng.standard_normal((8, k))
            alignment = align_signed_permutation(a_hat, a)
            got = float(np.linalg.norm(alignment.apply(a_hat) - a))
            assert got == pytest.approx(brute_force_alignment(a_hat, a), abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            align_signed_permutation(np.ones((3, 2)), np.ones((3, 3)))

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            SignedPermutation(perm=[0, 0], signs=[1, 1])
        with pytest.raises(ValueError):
            SignedPermutation(perm=[0, 1], signs=[1, 2])


class TestLqLoss:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 3))
        for q in (1, 2, math.inf):
            assert lq_loss(a, a, q) == pytest.approx(0.0, abs=1e-12)

    def test_single_row_difference(self):
        a = np.zeros((4, 3))
        a[:, 0] = 1.0
        a_hat = a.copy()
        a_hat[2] += np.array([0.1, -0.1, 0.0])
        alignment = SignedPermutation(perm=[0, 1, 2], signs=[1, 1, 1])
        assert lq_loss(a_hat, a, 1, alignment) == pytest.approx(0.2)
        assert lq_loss(a_hat, a, 2, alignment) == pytest.approx(math.sqrt(0.02))
        assert lq_loss(a_hat, a, math.inf, alignment) == pytest.approx(0.1)

    def test_aggregates(self):
        a = np.zeros((5, 2))
        a_hat = a.copy()
        a_hat[0, 0] = 0.3
        out = error_aggregates(a_hat, a, SignedPermutation(perm=[0, 1], signs=[1, 1]))
        assert out["l1_scaled"] == pytest.approx(0.3 / 10)
        assert out["fro_scaled"] == pytest.approx(0.3 / math.sqrt(10))

    def test_rate_ratio_diagnostic(self, toy_model):
        diag = truth_diagnostics(toy_model, delta=0.01, mu=0.05)
        # bound = 10 * s^(1/q) * sensitivity * delta'; s = 2, sensitivity = 1
        expected = 0.02 / (10.0 * 2.0 * diag.delta_prime)
        assert theoretical_rate_ratio(0.02, 1, diag) == pytest.approx(expected)
        assert theoretical_rate_ratio(0.02, math.inf, diag) == pytest.approx(
            0.02 / (10.0 * diag.delta_prime)
        )


def make_clusters(groups: list[list[int]], p: int) -> ClusterSet:
    a = np.zeros((p, len(groups)))
    for col, members in enumerate(groups):
        a[members, col] = 1.0
    return clusters_from_loadings(a)


class TestClusterMetrics:
    def test_perfect_recovery(self):
        truth = make_clusters([[0, 1, 2], [2, 3]], p=6)
        out = cluster_metrics(truth, truth)
        assert out["tfpp"] == 0.0 and out["tfnp"] == 0.0
        assert not out["gfpp"].any() and not out["gfnp"].any()

    def test_single_extra_member_counts(self):
        p = 200
        truth = make_clusters([list(range(20)), list(range(20, 40))], p=p)
        est = make_clusters([list(range(20)) + [50], list(range(20, 40))], p=p)
        out = cluster_metrics(est, truth, p=p)
        assert out["gfpp"][0] == pytest.approx(1.0 / 180.0)
        # the denominator sums both group complements: 180 + 180
        assert out["tfpp"] == pytest.approx(1.0 / 360.0)

    def test_matches_naive_counting(self):
        rng = np.random.default_rng(5)
        p, k = 12, 3
        for _ in range(10):
            truth_a = (rng.random((p, k)) < 0.4).astype(float)
            est_a = (rng.random((p, k)) < 0.4).astype(float)
            truth = clusters_from_loadings(truth_a)
            est = clusters_from_loadings(est_a)
            out = cluster_metrics(est, truth, p=p)
            fp = fn = fpd = fnd = 0
            for a in range(k):
                for i in range(p):
                    in_t = truth_a[i, a] != 0
                    in_e = est_a[i, a] != 0
                    fp += (not in_t) and in_e
                    fn += in_t and (not in_e)
                    fpd += not in_t
                    fnd += in_t
            assert out["tfpp"] == pytest.approx(fp / fpd)
            assert out["tfnp"] == pytest.approx(fn / fnd if fnd else 0.0)

    def test_totals_are_weighted_group_means(self):
        rng = np.random.default_rng(6)
        p, k = 15, 4
        truth = clusters_from_loadings((rng.random((p, k)) < 0.5).astype(float))
        est = clusters_from_loadings((rng.random((p, k)) < 0.5).astype(float))
        out = cluster_metrics(est, truth, p=p)
        comp = np.array([p - g.size for g in truth.groups], dtype=float)
        size = np.array([g.size for g in truth.groups], dtype=float)
        assert out["tfpp"] == pytest.approx((out["gfpp"] * comp).sum() / comp.sum())
        assert out["tfnp"] == pytest.approx((out["gfnp"] * size).sum() / size.sum())

    def test_mismatched_counts_rejected(self):
        truth = make_clusters([[0, 1]], p=4)
        est = make_clusters([[0, 1], [2, 3]], p=4)
        with pytest.raises(ValueError):
            cluster_metrics(est, truth)

    def test_invariant_under_simultaneous_relabeling(self):
        rng = np.random.default_rng(7)
        a_true = (rng.random((10, 3)) < 0.5).astype(float)
        a_est = (rng.random((10, 3)) < 0.5).astype(float)
        base = cluster_metrics(
            clusters_from_loadings(a_est), clusters_from_loadings(a_true), p=10
        )
        perm = [2, 0, 1]
        moved = cluster_metrics(
            clusters_from_loadings(a_est[:, perm]),
            clusters_from_loadings(a_true[:, perm]),
            p=10,
        )
        assert base["tfpp"] == moved["tfpp"] and base["tfnp"] == moved["tfnp"]


class TestDirectionMetrics:
    def test_perfect_signed_recovery(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, -0.5], [0.0, 1.0]])
        clusters = clusters_from_loadings(a)
        out = direction_metrics(clusters, clusters)
        assert out["dfpp"] == 0.0 and out["dfnp"] == 0.0

    def test_alignment_sign_flip_swaps_subgroups(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        truth = clusters_from_loadings(a)
        flipped = clusters_from_loadings(a * np.array([-1.0, 1.0]))
        # without the alignment the flipped column maximally corrupts
        raw = direction_metrics(flipped, truth)
        assert raw["dfpp"] > 0
        alignment = align_signed_permutation(a * np.array([-1.0, 1.0]), a)
        fixed = direction_metrics(flipped, truth, alignment)
        assert fixed["dfpp"] == 0.0 and fixed["dfnp"] == 0.0

    def test_single_wrong_sign_counts(self):
        a = np.array([[1.0], [1.0], [1.0], [-1.0]])
        a_hat = a.copy()
        a_hat[2, 0] = -1.0
        out = direction_metrics(clusters_from_loadings(a_hat), clusters_from_loadings(a))
        assert out["dfpp"] == pytest.approx(1.0 / 3.0)
        assert out["dfnp"] == 0.0

    def test_zero_denominator_flagged(self):
        a = np.array([[1.0], [1.0]])
        out = direction_metrics(clusters_from_loadings(a), clusters_from_loadings(a))
        assert out["dfnp"] == 0.0 and out["degenerate"]


class TestPairwiseSnSp:
    def test_identical_sets(self):
        clusters = make_clusters([[0, 1, 2], [3, 4]], p=6)
        counts = pairwise_sn_sp(clusters, clusters)
        assert counts.sn == 1.0 and counts.sp == 1.0

    def test_three_variable_example(self):
        truth = make_clusters([[0, 1]], p=3)
        est = ClusterSet(groups=[], noise=np.arange(3), direction=[])
        counts = pairwise_sn_sp(est, truth, p=3)
        assert (counts.tp, counts.fn, counts.tn, counts.fp) == (0, 1, 2, 0)
        assert counts.sn == 0.0 and counts.sp == 1.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(9)
        p = 12
        for _ in range(5):
            truth_a = (rng.random((p, 3)) < 0.35).astype(float)
            est_a = (rng.random((p, 4)) < 0.35).astype(float)
            truth = clusters_from_loadings(truth_a)
            est = clusters_from_loadings(est_a)
            counts = pairwise_sn_sp(est, truth, p=p)
            tp = tn = fp = fn = 0
            for j in range(p):
                for k in range(j + 1, p):
                    in_t = any(truth_a[j, a] and truth_a[k, a] for a in range(3))
                    in_e = any(est_a[j, b] and est_a[k, b] for b in range(4))
                    tp += in_t and in_e
                    tn += (not in_t) and (not in_e)
                    fp += (not in_t) and in_e
                    fn += in_t and (not in_e)
            assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)

    def test_invariant_under_independent_relabeling(self):
        rng = np.random.default_rng(10)
        truth_a = (rng.random((10, 3)) < 0.4).astype(float)
        est_a = (rng.random((10, 3)) < 0.4).astype(float)
        base = pairwise_sn_sp(
            clusters_from_loadings(est_a), clusters_from_loadings(truth_a), p=10
        )
        moved = pairwise_sn_sp(
            clusters_from_loadings(est_a[:, [1, 2, 0]]),
            clusters_from_loadings(truth_a[:, [2, 0, 1]]),
            p=10,
        )
        assert (base.sn, base.sp) == (moved.sn, moved.sp)


class TestSupportSignCheck:
    def test_population_fixture_recovers_everything(self, toy_model):
        diag = truth_diagnostics(toy_model, delta=1e-6, mu=1e-6)
        check = support_sign_check(toy_model.A, toy_model, diag)
        assert check.support_recovered and check.sign_consistent
        assert check.strong_support_contained

    def test_zeroed_rows_fail_strong_containment_only(self, toy_model):
        diag = truth_diagnostics(toy_model, delta=1e-6, mu=1e-6)
        a_hat = toy_model.A.copy()
        a_hat[6:] = 0.0
        check = support_sign_check(a_hat, toy_model, diag)
        assert check.support_recovered
        assert not check.strong_support_contained
        assert check.missed_strong == 4

    def test_sign_violation_detected(self, toy_model):
        diag = truth_diagnostics(toy_model, delta=1e-6, mu=1e-6)
        a_hat = toy_model.A.copy()
        a_hat[6, 0] *= -1
        check = support_sign_check(a_hat, toy_model, diag)
        assert not check.sign_consistent
        assert check.sign_violations == 1


class TestEvaluateEstimate:
    def test_wrong_k_reports_pairwise_only(self, toy_model):
        a_hat = toy_model.A[:, :2]
        report = evaluate_estimate(a_hat, clusters_from_loadings(a_hat), toy_model)
        assert not report.k_correct
        assert report.tfpp is None and report.lq_losses == {}
        assert 0.0 <= report.sn <= 1.0

    def test_perfect_estimate(self, toy_model):
        diag = truth_diagnostics(toy_model, delta=1e-6, mu=1e-6)
        report = evaluate_estimate(
            toy_model.A, clusters_from_loadings(toy_model.A), toy_model, diag
        )
        assert report.k_correct
        assert report.lq_losses[math.inf] == pytest.approx(0.0, abs=1e-12)
        assert report.tfpp == 0.0 and report.dfnp == 0.0
        assert report.support_recovered and report.sign_consistent
        payload = report.to_json()
        assert payload["k_correct"] is True
