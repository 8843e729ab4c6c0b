import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import love.lp
from love.cli import main as cli_main
from love.exceptions import EstimationError
from love.lp import LPSolveError, lp_solve
from love.model import benchmark_covariance, benchmark_model, sample_dataset
from love.precision import estimate_precision

# optimal t of the joint symmetric precision LP, from the two-phase simplex
# that solved it before HiGHS did; the row-wise estimator, which drops the
# symmetry constraint, reaches the same t on these matrices
SIMPLEX_T_HAT_BENCHMARK = {
    0.01: 0.8772567030077116,
    0.1: 0.7305385039901113,
    0.3: 0.532594797511341,
}
SIMPLEX_T_HAT_RANDOM_K30 = 0.9077994318540135


def _failing_linprog(*args, **kwargs):
    return SimpleNamespace(status=4, message="numerical difficulties", nit=0)


def enumerate_vertices(c, a_ub, b_ub, lb, ub):
    """Brute-force optimum over all vertices of {a_ub x <= b_ub, lb <= x <= ub}."""
    n = c.size
    g = np.vstack([a_ub, np.eye(n), -np.eye(n)])
    h = np.concatenate([b_ub, np.full(n, ub), np.full(n, -lb)])
    best = np.inf
    combos = np.array(list(itertools.combinations(range(g.shape[0]), n)))
    mats = g[combos]
    dets = np.linalg.det(mats)
    usable = np.abs(dets) > 1e-10
    for idx in combos[usable]:
        x = np.linalg.solve(g[idx], h[idx])
        if (g @ x <= h + 1e-9).all():
            best = min(best, float(c @ x))
    return best


class TestLPSolve:
    def test_lower_bound_only(self):
        result = lp_solve([1.0], bounds=[(3.0, None)])
        assert result.status == "optimal"
        assert result.value == pytest.approx(3.0)

    def test_conflicting_constraints_infeasible(self):
        result = lp_solve([0.0], [[1.0], [-1.0]], [-1.0, -1.0], bounds=[(None, None)])
        assert result.status == "infeasible"

    def test_unbounded_direction(self):
        result = lp_solve([-1.0], bounds=[(0.0, None)])
        assert result.status == "unbounded"

    def test_empty_bounds_infeasible(self):
        result = lp_solve([1.0], bounds=[(2.0, 1.0)])
        assert result.status == "infeasible"

    def test_degenerate_problem_terminates(self):
        # classic cycling-prone instance; the optimum is -1/20
        result = lp_solve(
            [-0.75, 150.0, -0.02, 6.0],
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            [0.0, 0.0, 1.0],
        )
        assert result.status == "optimal"
        assert result.value == pytest.approx(-0.05, abs=1e-9)

    def test_random_programs_match_vertex_enumeration(self):
        rng = np.random.default_rng(8)
        lb, ub = -2.0, 3.0
        for trial in range(40):
            n = 6
            c = rng.standard_normal(n)
            a_ub = rng.standard_normal((5, n))
            x0 = rng.uniform(lb + 0.5, ub - 0.5, n)
            b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, 5)
            result = lp_solve(c, a_ub, b_ub, bounds=[(lb, ub)] * n)
            assert result.status == "optimal", trial
            oracle = enumerate_vertices(c, a_ub, b_ub, lb, ub)
            assert result.value == pytest.approx(oracle, abs=1e-9), trial

    def test_deterministic(self):
        args = ([1.0, -2.0, 0.5], [[1.0, 1.0, 1.0], [-1.0, 2.0, 0.0]], [4.0, 1.0])
        r1 = lp_solve(*args, bounds=[(0.0, 3.0)] * 3)
        r2 = lp_solve(*args, bounds=[(0.0, 3.0)] * 3)
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            lp_solve([1.0, 2.0], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            lp_solve([1.0], [[1.0]], None)


class TestEstimatePrecision:
    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_identity_closed_form(self, lam):
        est = estimate_precision(np.eye(6), lam)
        assert est.t_hat == pytest.approx(1.0 / (1.0 + lam), abs=1e-9)
        assert np.abs(est.omega - np.eye(6) / (1.0 + lam)).max() < 1e-9

    def test_small_lambda_recovers_inverse(self):
        c = benchmark_covariance()
        est = estimate_precision(c, 1e-8)
        assert np.abs(est.omega - np.linalg.inv(c)).max() < 1e-4

    def test_huge_lambda_returns_near_zero(self):
        est = estimate_precision(benchmark_covariance(), 1e6)
        assert est.t_hat <= 1.0 / 1e6 + 1e-12
        assert np.abs(est.omega).max() < 1e-5

    def test_t_bounded_by_inverse_lambda(self):
        for lam in (0.05, 0.5, 5.0):
            est = estimate_precision(np.eye(4) * 2.0, lam)
            assert est.t_hat <= 1.0 / lam + 1e-9

    def test_feasibility_sandwich(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            m = rng.standard_normal((5, 5))
            c = m @ m.T / 5 + 2.0 * np.eye(5)
            est = estimate_precision(c, 0.1)
            inv_norm = np.abs(np.linalg.inv(c)).sum(axis=1).max()
            assert est.inf1_norm <= est.t_hat + 1e-8
            assert est.t_hat <= inv_norm + 1e-8

    def test_residual_within_constraint(self):
        c = benchmark_covariance()
        for lam in (0.01, 0.2):
            est = estimate_precision(c, lam)
            assert est.residual <= lam * est.t_hat + 1e-6

    def test_rows_are_their_own_lp_optima(self):
        # each row solves min t s.t. |C^T w - e_a|_inf <= lam t, |w|_1 <= t,
        # written here over (w free, s >= |w|, t); the minimizer is unique,
        # so this independent formulation must land on the same row
        c, lam = benchmark_covariance(), 0.05
        k = c.shape[0]
        est = estimate_precision(c, lam)
        eye, zero, ones = np.eye(k), np.zeros((k, k)), np.ones((k, 1))
        a_ub = np.block([
            [c.T, zero, -lam * ones],
            [-c.T, zero, -lam * ones],
            [eye, -eye, np.zeros((k, 1))],
            [-eye, -eye, np.zeros((k, 1))],
            [np.zeros((1, k)), np.ones((1, k)), -np.ones((1, 1))],
        ])
        objective = np.zeros(2 * k + 1)
        objective[-1] = 1.0
        bounds = [(None, None)] * k + [(0.0, None)] * (k + 1)
        t_rows = []
        for a in range(k):
            b_ub = np.concatenate([eye[a], -eye[a], np.zeros(2 * k + 1)])
            result = lp_solve(objective, a_ub, b_ub, bounds=bounds)
            assert result.status == "optimal"
            assert np.abs(est.omega[a] - result.x[:k]).max() <= 1e-9, a
            t_rows.append(result.x[-1])
        assert est.t_hat == pytest.approx(max(t_rows), rel=1e-12)

    def test_t_hat_matches_joint_non_symmetric_program(self):
        # the joint program over all K^2 entries of Omega, with one t
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 6))
        c, lam = m @ m.T / 6 + 0.5 * np.eye(6), 0.1
        k = c.shape[0]
        n_w = k * k
        kron = np.kron(np.eye(k), c.T)  # row (a, b) holds (Omega C)_ab
        rows_of = np.kron(np.eye(k), np.ones((1, k)))  # sums row a of s
        zero = np.zeros((n_w, n_w))
        col = np.zeros((n_w, 1))
        a_ub = np.block([
            [kron, zero, -lam * np.ones((n_w, 1))],
            [-kron, zero, -lam * np.ones((n_w, 1))],
            [np.eye(n_w), -np.eye(n_w), col],
            [-np.eye(n_w), -np.eye(n_w), col],
            [np.zeros((k, n_w)), rows_of, -np.ones((k, 1))],
        ])
        target = np.eye(k).ravel()
        b_ub = np.concatenate([target, -target, np.zeros(2 * n_w + k)])
        objective = np.zeros(2 * n_w + 1)
        objective[-1] = 1.0
        bounds = [(None, None)] * n_w + [(0.0, None)] * (n_w + 1)
        joint = lp_solve(objective, a_ub, b_ub, bounds=bounds)
        assert joint.status == "optimal"
        est = estimate_precision(c, lam)
        assert est.t_hat == pytest.approx(joint.value, rel=1e-9)

    @pytest.mark.parametrize("case", ["benchmark", "random_k30"])
    def test_permutation_and_sign_equivariance(self, case):
        if case == "benchmark":
            c = benchmark_covariance()
        else:
            m = np.random.default_rng(30).standard_normal((30, 30))
            c = m @ m.T / 30 + np.eye(30)
        rng = np.random.default_rng(11)
        k = c.shape[0]
        perm = rng.permutation(k)
        signs = rng.choice([-1.0, 1.0], size=k)
        moved = (signs[:, None] * c * signs[None, :])[np.ix_(perm, perm)]
        base = estimate_precision(c, 0.1)
        est = estimate_precision(moved, 0.1)
        expected = (signs[:, None] * base.omega * signs[None, :])[np.ix_(perm, perm)]
        assert np.abs(est.omega - expected).max() <= 1e-9
        assert est.t_hat == pytest.approx(base.t_hat, rel=1e-12)

    def test_scale_behaviour(self):
        # at vanishing lam the solution is the inverse, so scaling the input
        # by c scales the estimate by 1/c; at moderate lam only the
        # two-sided bound t(cC) <= t(C) <= c t(cC) holds
        c = benchmark_covariance()
        small = estimate_precision(c, 1e-8)
        small_scaled = estimate_precision(2.5 * c, 1e-8)
        assert np.abs(small_scaled.omega * 2.5 - small.omega).max() < 1e-4
        mid = estimate_precision(c, 0.1)
        mid_scaled = estimate_precision(2.5 * c, 0.1)
        assert mid_scaled.t_hat <= mid.t_hat + 1e-9
        assert mid.t_hat <= 2.5 * mid_scaled.t_hat + 1e-9

    def test_deterministic(self):
        c = benchmark_covariance()
        e1, e2 = estimate_precision(c, 0.05), estimate_precision(c, 0.05)
        assert np.array_equal(e1.omega, e2.omega)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_precision(np.eye(3), 0.0)
        with pytest.raises(ValueError):
            estimate_precision(np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.1)

    @pytest.mark.parametrize("lam", sorted(SIMPLEX_T_HAT_BENCHMARK))
    def test_t_hat_matches_simplex_on_benchmark(self, lam):
        est = estimate_precision(benchmark_covariance(), lam)
        assert est.t_hat == pytest.approx(SIMPLEX_T_HAT_BENCHMARK[lam], rel=1e-9)

    def test_t_hat_matches_simplex_on_random_k30(self):
        rng = np.random.default_rng(30)
        m = rng.standard_normal((30, 30))
        est = estimate_precision(m @ m.T / 30 + np.eye(30), 0.1)
        assert est.t_hat == pytest.approx(SIMPLEX_T_HAT_RANDOM_K30, rel=1e-9)

    def test_solver_failure_is_estimation_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(love.lp, "linprog", _failing_linprog)
        with pytest.raises(EstimationError) as err:
            estimate_precision(np.eye(3), 0.1)
        assert isinstance(err.value, LPSolveError) and err.value.status == "scipy-4"
        data = sample_dataset(benchmark_model(200, 0), 300, 1)
        csv_path = tmp_path / "x.csv"
        np.savetxt(csv_path, data.samples, delimiter=",")
        argv = ["fit", "--input", str(csv_path), "--no-center", "--delta", "0.3",
                "--out", str(tmp_path / "fit.json")]
        assert cli_main(argv) == 2
        assert "LP solver failed" in capsys.readouterr().err
