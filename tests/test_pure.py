import numpy as np
import pytest

from love.covariance import sample_covariance
from love.model import FactorModel, population_covariance, pure_set_of, sample_dataset, truth_diagnostics
from love.pure import estimate_pure_rows, find_pure_variables, pure_loading_matrix, scan_delta_grid


def naive_candidates(sigma: np.ndarray, i: int, delta: float) -> list[int]:
    """Literal double-loop transcription of the candidate definition."""
    p = sigma.shape[0]
    row_max = max(abs(sigma[i, j]) for j in range(p) if j != i)
    return [
        l for l in range(p) if l != i and row_max <= abs(sigma[i, l]) + 2 * delta
    ]


def naive_scan(sigma, delta: float):
    """Literal transcription of the single-delta scan: verdict, witness, merge.

    Returns ``(kept, dissolved, pure_flags, witness)`` with groups as sorted
    lists, scanning the variables in ascending order and intersecting each
    accepted set into the first group it overlaps.
    """
    s = np.asarray(getattr(sigma, "values", sigma), dtype=float)
    p = s.shape[0]
    row_max = [max(abs(s[i, j]) for j in range(p) if j != i) for i in range(p)]
    groups: list[set] = []
    flags, witness = [], []
    for i in range(p):
        cand = naive_candidates(s, i, delta)
        bad = [l for l in cand if abs(abs(s[i, l]) - row_max[l]) > 2 * delta]
        flags.append(not bad)
        witness.append(bad[0] if bad else -1)
        if bad:
            continue
        new_set = set(cand) | {i}
        for a, g in enumerate(groups):
            if g & new_set:
                groups[a] = g & new_set
                break
        else:
            groups.append(new_set)
    kept = [sorted(g) for g in groups if len(g) >= 2]
    dissolved = [sorted(g) for g in groups if len(g) < 2]
    return kept, dissolved, flags, witness


def assert_scan_matches_oracle(sigma, delta: float) -> None:
    partition, scan = find_pure_variables(sigma, delta)
    kept, dissolved, flags, witness = naive_scan(sigma, delta)
    assert [g.tolist() for g in partition.groups] == kept
    assert [g.tolist() for g in scan.dissolved] == dissolved
    assert scan.pure_flags.tolist() == flags
    assert scan.witness.tolist() == witness


def random_symmetric(p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((p, p))
    return 0.5 * (m + m.T)


def group_of(partition, i: int) -> list[int]:
    return next(g.tolist() for g in partition.groups if i in g)


class TestCandidateSet:
    """The candidate band, seen through the scan's verdicts and witnesses."""

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.3])
    def test_matches_naive_enumeration(self, delta):
        for seed in range(5):
            assert_scan_matches_oracle(random_symmetric(12, seed), delta)

    def test_two_variable_case(self):
        model = FactorModel(A=[[1.0], [1.0]], C=[[2.0]], Gamma=[1.0, 1.0])
        sigma = population_covariance(model)
        assert naive_candidates(sigma, 0, 0.5) == [1]
        partition, scan = find_pure_variables(sigma, 0.5)
        assert scan.pure_flags.tolist() == [True, True]
        assert [g.tolist() for g in partition.groups] == [[0, 1]]

    def test_toy_pure_row(self, toy_sigma):
        assert naive_candidates(toy_sigma, 0, 0.01) == [1]
        partition, scan = find_pure_variables(toy_sigma, 0.01)
        assert scan.pure_flags[0]
        assert group_of(partition, 0) == [0, 1]

    def test_toy_mixed_row_has_two_argmaxes(self, toy_sigma):
        assert naive_candidates(toy_sigma, 6, 0.01) == [2, 3]
        _, scan = find_pure_variables(toy_sigma, 0.01)
        assert not scan.pure_flags[6]
        assert scan.witness[6] == naive_scan(toy_sigma, 0.01)[3][6]

    def test_never_empty(self):
        sigma = random_symmetric(8, 99)
        for i in range(8):
            assert len(naive_candidates(sigma, i, 0.0)) >= 1
        assert_scan_matches_oracle(sigma, 0.0)
        # every rejection names a candidate
        _, scan = find_pure_variables(sigma, 0.0)
        assert (scan.witness[~scan.pure_flags] >= 0).all()


class TestScanDeltaGrid:
    """The whole-grid pass against the naive single-delta oracle."""

    @staticmethod
    def assert_grid_matches_oracle(sigma, deltas) -> None:
        partitions = scan_delta_grid(sigma, np.asarray(deltas))
        assert len(partitions) == len(deltas)
        for delta, partition in zip(deltas, partitions):
            assert partition.signs is None
            got = [g.tolist() for g in partition.groups]
            assert got == naive_scan(sigma, float(delta))[0], delta

    def test_random_matrices_unsorted_grid(self):
        rng = np.random.default_rng(3)
        grid = rng.permutation([0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.5])
        for seed in range(6):
            for p in (12, 25):
                self.assert_grid_matches_oracle(random_symmetric(p, seed), grid)

    def test_coarse_valued_matrices_with_ties(self):
        # entries on a 1/4 lattice, so many pairs sit exactly on a 2*delta edge
        rng = np.random.default_rng(8)
        for _ in range(6):
            m = rng.integers(-4, 5, size=(15, 15)) / 4.0
            self.assert_grid_matches_oracle(0.5 * (m + m.T), [0.0, 0.125, 0.25, 0.375, 0.5])

    def test_design_covariance(self, design_model, design_sigma):
        grid = [0.3, 0.01, 0.1, 0.05, 0.2]
        self.assert_grid_matches_oracle(design_sigma, grid)
        sample = sample_covariance(sample_dataset(design_model, 300, seed=12), center=True)
        self.assert_grid_matches_oracle(sample, grid)

    def test_duplicated_grid_values(self):
        sigma = random_symmetric(20, 4)
        grid = [0.3, 0.05, 0.3, 0.05, 0.1]
        self.assert_grid_matches_oracle(sigma, grid)
        partitions = scan_delta_grid(sigma, np.array(grid))
        assert [g.tolist() for g in partitions[0].groups] == [
            g.tolist() for g in partitions[2].groups
        ]

    def test_one_point_grid(self, toy_sigma):
        self.assert_grid_matches_oracle(toy_sigma, [0.01])
        (partition,) = scan_delta_grid(toy_sigma, np.array([0.01]))
        assert [g.tolist() for g in partition.groups] == [[0, 1], [2, 3], [4, 5]]

    def test_tie_at_exactly_two_delta(self):
        # the matrix of test_tie_at_exactly_two_delta_counts_as_pure: at
        # delta = 0.125 row 0 is pure and the merge dissolves everything; at
        # 0.12 row 0 is rejected and {1, 2} survives
        sigma = np.array(
            [
                [1.0, 0.5, 0.0],
                [0.5, 1.0, 0.75],
                [0.0, 0.75, 1.0],
            ]
        )
        self.assert_grid_matches_oracle(sigma, [0.125, 0.12])
        tie, tight = scan_delta_grid(sigma, np.array([0.125, 0.12]))
        assert tie.groups == []
        assert [g.tolist() for g in tight.groups] == [[1, 2]]

    @pytest.mark.parametrize(
        "s01, m, delta, candidates",
        [
            # 0.1 + 0.2 rounds up to m while m - 0.1 rounds above 0.2
            (0.1, 0.1 + 0.2, 0.1, [1, 2]),
            # 0.18 + 0.5 rounds below m = 0.68 while m - 0.18 rounds to 0.5
            (0.18, 0.68, 0.25, [2]),
        ],
    )
    def test_candidate_test_is_the_scans_own_sum(self, s01, m, delta, candidates):
        # m <= s + 2*delta and m - s <= 2*delta disagree in floating point
        # here; the scan follows the first, as the definition reads.  Row 1
        # peaks at 0.9, far from s01, so variable 0 is rejected exactly when
        # 1 is its candidate.
        assert (m <= s01 + 2 * delta) != (m - s01 <= 2 * delta)
        sigma = np.array(
            [
                [1.0, s01, m, 0.0],
                [s01, 1.0, 0.05, 0.9],
                [m, 0.05, 1.0, 0.05],
                [0.0, 0.9, 0.05, 1.0],
            ]
        )
        assert naive_candidates(sigma, 0, delta) == candidates
        _, scan = find_pure_variables(sigma, delta)
        assert scan.pure_flags[0] == (1 not in candidates)
        assert_scan_matches_oracle(sigma, delta)
        self.assert_grid_matches_oracle(sigma, [delta, 0.9 * delta, 1.1 * delta])

    def test_rejects_bad_grids(self, toy_sigma):
        with pytest.raises(ValueError):
            scan_delta_grid(toy_sigma, np.array([]))
        with pytest.raises(ValueError):
            scan_delta_grid(toy_sigma, np.array([0.1, -0.1]))

    def test_rejects_non_finite_entries(self):
        sigma = random_symmetric(6, 1)
        sigma[2, 4] = sigma[4, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            scan_delta_grid(sigma, np.array([0.1]))
        with pytest.raises(ValueError, match="finite"):
            find_pure_variables(sigma, 0.1)


class TestFindPureVariables:
    def test_toy_population_recovery(self, toy_sigma):
        partition, scan = find_pure_variables(toy_sigma, 0.01)
        assert partition.k == 3
        assert [g.tolist() for g in partition.groups] == [[0, 1], [2, 3], [4, 5]]
        # the mixed rows are rejected with a recorded witness
        assert not scan.pure_flags[6] and not scan.pure_flags[7]
        assert scan.witness[6] in (2, 3)

    def test_design_population_recovery(self, design_model, design_sigma):
        partition, _ = find_pure_variables(design_sigma, 0.01)
        truth = pure_set_of(design_model.A)
        assert partition.k == 20
        got = sorted(tuple(g.tolist()) for g in partition.groups)
        expected = sorted(tuple(g.tolist()) for g in truth.groups)
        assert got == expected

    def test_single_factor_pair(self):
        model = FactorModel(A=[[1.0], [1.0]], C=[[1.5]], Gamma=[0.5, 0.5])
        partition, _ = find_pure_variables(population_covariance(model), 0.01)
        assert [g.tolist() for g in partition.groups] == [[0, 1]]

    def test_random_valid_models_recovered_exactly(self):
        # population-oracle exactness at small delta for generated models
        rng = np.random.default_rng(5)
        for trial in range(5):
            k = 3
            rows = [np.eye(k)[a] * s for a in range(k) for s in (1, -1)]
            for _ in range(4):
                support = rng.choice(k, size=2, replace=False)
                row = np.zeros(k)
                row[support] = rng.choice([-0.5, 0.5], size=2)
                rows.append(row)
            a = np.vstack(rows)
            c = np.eye(k) + 0.2 * (np.ones((k, k)) - np.eye(k))
            model = FactorModel(A=a, C=c, Gamma=rng.uniform(0.5, 2.0, len(rows)))
            partition, _ = find_pure_variables(population_covariance(model), 1e-6)
            truth = pure_set_of(model.A)
            got = sorted(tuple(g.tolist()) for g in partition.groups)
            assert got == sorted(tuple(g.tolist()) for g in truth.groups), trial

    def test_permutation_equivariance(self, toy_model):
        sigma = population_covariance(toy_model)
        rng = np.random.default_rng(11)
        perm = rng.permutation(toy_model.p)
        permuted = sigma[np.ix_(perm, perm)]
        base, _ = find_pure_variables(sigma, 1e-3)
        moved, _ = find_pure_variables(permuted, 1e-3)
        relabel = {int(orig): new for new, orig in enumerate(perm)}
        expected = sorted(
            tuple(sorted(relabel[int(i)] for i in g)) for g in base.groups
        )
        got = sorted(tuple(sorted(g.tolist())) for g in moved.groups)
        assert got == expected

    def test_singleton_groups_are_dissolved(self):
        # candidate-set intersections shrink the only group to one member
        sigma = np.array(
            [
                [1.5, 0.30, 0.30, 0.85],
                [0.30, 1.5, 0.50, 0.45],
                [0.30, 0.50, 1.5, 1.00],
                [0.85, 0.45, 1.00, 1.5],
            ]
        )
        partition, scan = find_pure_variables(sigma, 0.1)
        assert partition.k == 0
        assert [g.tolist() for g in scan.dissolved] == [[3]]

    def test_rejects_negative_delta(self, toy_sigma):
        with pytest.raises(ValueError):
            find_pure_variables(toy_sigma, -0.1)

    def test_tie_at_exactly_two_delta_counts_as_pure(self):
        # row 0's only candidate is 1, whose own row maximum is 0.75, so the
        # purity gap is 0.25 exactly (all values binary-exact)
        sigma = np.array(
            [
                [1.0, 0.5, 0.0],
                [0.5, 1.0, 0.75],
                [0.0, 0.75, 1.0],
            ]
        )
        _, tie_scan = find_pure_variables(sigma, 0.125)  # gap == 2*delta
        assert tie_scan.pure_flags[0]
        _, tight_scan = find_pure_variables(sigma, 0.12)  # gap > 2*delta
        assert not tight_scan.pure_flags[0]
        assert tight_scan.witness[0] == 1

    def test_scan_record_is_one_based_json(self, toy_sigma):
        _, scan = find_pure_variables(toy_sigma, 0.01)
        record = scan.record()
        assert record["delta"] == 0.01
        verdicts = {entry["variable"]: entry for entry in record["verdicts"]}
        assert verdicts[1]["pure"] is True
        assert verdicts[7]["pure"] is False
        assert verdicts[7]["witness"] in (3, 4)

    def test_scan_candidates_contain_row_argmaxes(self, toy_sigma):
        _, scan = find_pure_variables(toy_sigma, 0.05)
        s = np.abs(toy_sigma).copy()
        np.fill_diagonal(s, -np.inf)
        for i in range(8):
            argmaxes = np.nonzero(s[i] == s[i].max())[0]
            assert set(argmaxes) <= set(naive_candidates(toy_sigma, i, 0.05))
            assert scan.row_max[i] == s[i].max()
        assert_scan_matches_oracle(toy_sigma, 0.05)

    def test_noise_containment_on_sampled_runs(self, design_model):
        # with delta under the separation condition, each recovered group
        # should sit between the true group and its quasi-pure extension
        delta = 0.08
        diag = truth_diagnostics(design_model, delta, mu=0.05)
        truth = pure_set_of(design_model.A)
        hits = 0
        reps = 10
        for rep in range(reps):
            data = sample_dataset(design_model, 20_000, seed=1000 + rep)
            cov = sample_covariance(data, center=False)
            partition, _ = find_pure_variables(cov, delta)
            ok = partition.k == 20
            if ok:
                for g in partition.groups:
                    members = set(g.tolist())
                    matched = False
                    for a, tg in enumerate(truth.groups):
                        allowed = set(tg.tolist()) | set(diag.j1_by_factor[a].tolist())
                        if set(tg.tolist()) <= members <= allowed:
                            matched = True
                            break
                    if not matched:
                        ok = False
                        break
            hits += ok
        assert hits >= 9, f"containment held in only {hits}/{reps} replicates"


class TestEstimatePureRows:
    def test_toy_signs(self, toy_sigma):
        partition, _ = find_pure_variables(toy_sigma, 0.01)
        signed, warnings = estimate_pure_rows(toy_sigma, partition)
        assert warnings == []
        # anchor of {0, 1} gets +1; Sigma_01 = -tau flips the partner
        assert signed.signs[0] == 1 and signed.signs[1] == -1
        assert signed.signs[2] == 1 and signed.signs[3] == 1

    def test_all_positive_group_has_empty_negative_part(self, toy_sigma):
        partition, _ = find_pure_variables(toy_sigma, 0.01)
        signed, _ = estimate_pure_rows(toy_sigma, partition)
        assert signed.groups[1].tolist() == [2, 3]
        assert signed.group_signs(1).tolist() == [1, 1]

    def test_design_sign_split_counts(self, design_sigma):
        partition, _ = find_pure_variables(design_sigma, 0.01)
        signed, _ = estimate_pure_rows(design_sigma, partition)
        counts = [
            (int((s > 0).sum()), int((s < 0).sum()))
            for s in (signed.group_signs(a) for a in range(signed.k))
        ]
        splits = sorted((max(pos, neg), min(pos, neg)) for pos, neg in counts)
        # patterns (3,2), (4,1), (2,3), (1,4), (5,0) four times each, up to
        # the unidentifiable global sign of a group
        assert splits == sorted([(3, 2), (4, 1), (3, 2), (4, 1), (5, 0)] * 4)

    def test_triple_product_sign_consistency(self, design_sigma):
        partition, _ = find_pure_variables(design_sigma, 0.01)
        signed, _ = estimate_pure_rows(design_sigma, partition)
        s = design_sigma
        for a in range(signed.k):
            g = signed.groups[a]
            for i in range(len(g)):
                for j in range(i + 1, len(g)):
                    for k in range(j + 1, len(g)):
                        prod = (
                            np.sign(s[g[i], g[j]])
                            * np.sign(s[g[i], g[k]])
                            * np.sign(s[g[j], g[k]])
                        )
                        assert prod == 1.0

    def test_zero_covariance_defaults_positive_with_warning(self):
        sigma = np.array(
            [
                [1.0, 0.0, 0.9],
                [0.0, 1.0, 0.9],
                [0.9, 0.9, 1.0],
            ]
        )
        from love.model import PurePartition

        partition = PurePartition(groups=[np.array([0, 1])])
        signed, warnings = estimate_pure_rows(sigma, partition)
        assert signed.signs == {0: 1, 1: 1}
        assert warnings == [(0, 1)]

    def test_pure_loading_matrix_rows(self, toy_sigma):
        partition, _ = find_pure_variables(toy_sigma, 0.01)
        signed, _ = estimate_pure_rows(toy_sigma, partition)
        idx, rows = pure_loading_matrix(signed)
        assert idx.tolist() == [0, 1, 2, 3, 4, 5]
        assert np.abs(rows).sum(axis=1).tolist() == [1.0] * 6
        assert rows[1, 0] == -1.0
