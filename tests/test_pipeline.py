import json
import math

import numpy as np
import pytest

import love.pipeline
from love import io as love_io
from love.cli import main as cli_main
from love.covariance import sample_covariance
from love.exceptions import EstimationError
from love.model import (
    Dataset,
    benchmark_model,
    population_covariance,
    sample_dataset,
    truth_diagnostics,
)
from love.evaluation import align_signed_permutation, lq_loss, support_sign_check
from love.pipeline import RunConfig, fit_from_covariance, fit_pipeline, run_simulation
from love.rows import HARD_THRESHOLD
from love.tuning import default_delta_grid, delta_rate

from conftest import three_factor_model


class TestFitFromCovariance:
    def test_population_oracle_run(self, toy_model, toy_sigma):
        fit = fit_from_covariance(toy_sigma, delta=1e-6, lam=1e-8, mu=1e-6)
        assert fit.k_hat == 3
        groups = sorted(sorted(int(i) for i in g) for g in fit.clusters.groups)
        assert groups == [[0, 1, 6, 7], [2, 3, 6], [4, 5, 7]]

    def test_hard_threshold_path_matches_booleans(self, toy_model, toy_sigma):
        diag = truth_diagnostics(toy_model, delta=1e-6, mu=1e-6)
        checks = []
        for method in ("soft_project", HARD_THRESHOLD):
            fit = fit_from_covariance(
                toy_sigma, delta=1e-6, lam=1e-8, mu=1e-6, row_method=method
            )
            alignment = align_signed_permutation(fit.loading.a_hat, toy_model.A)
            checks.append(
                support_sign_check(alignment.apply(fit.loading.a_hat), toy_model, diag)
            )
        soft, hard = checks
        assert (
            soft.support_recovered,
            soft.sign_consistent,
            soft.strong_support_contained,
        ) == (
            hard.support_recovered,
            hard.sign_consistent,
            hard.strong_support_contained,
        )

    def test_unknown_row_method_rejected(self, toy_sigma):
        with pytest.raises(ValueError, match="row method"):
            fit_from_covariance(toy_sigma, delta=1e-6, lam=1e-8, mu=0.05, row_method="soft")

    def test_population_exactness_on_random_models(self):
        # exact covariance plus vanishing tunings recovers any valid model
        from love.model import FactorModel

        rng = np.random.default_rng(23)
        for trial in range(3):
            k = 4
            rows = [np.eye(k)[a] * s for a in range(k) for s in (1, -1)]
            for _ in range(6):
                support = rng.choice(k, size=3, replace=False)
                row = np.zeros(k)
                row[support] = rng.choice([-1.0, 1.0], size=3) / 3.0
                rows.append(row)
            c = np.eye(k) + 0.15 * (np.ones((k, k)) - np.eye(k))
            model = FactorModel(
                A=np.vstack(rows), C=c, Gamma=rng.uniform(0.5, 2.0, len(rows))
            )
            sigma = population_covariance(model)
            fit = fit_from_covariance(sigma, delta=1e-8, lam=1e-8, mu=1e-6)

            assert fit.k_hat == k, trial
            assert lq_loss(fit.loading.a_hat, model.A, math.inf) < 1e-4, trial

    def test_no_pure_variables_raises_structured_error(self):
        sigma = np.array(
            [
                [1.5, 0.30, 0.30, 0.85],
                [0.30, 1.5, 0.50, 0.45],
                [0.30, 0.50, 1.5, 1.00],
                [0.85, 0.45, 1.00, 1.5],
            ]
        )
        with pytest.raises(EstimationError) as err:
            fit_from_covariance(sigma, delta=0.1, lam=0.1)
        assert "pure_scan" in err.value.diagnostics

    def test_plain_array_fit(self, toy_model):
        sigma = toy_model.A @ toy_model.C @ toy_model.A.T + np.diag(toy_model.Gamma)
        fit = fit_from_covariance(sigma, delta=1e-6, lam=1e-8, mu=1e-6)
        assert fit.k_hat == 3
        assert lq_loss(fit.loading.a_hat, toy_model.A, math.inf) < 1e-4

    @pytest.mark.parametrize(
        "cov",
        [
            np.array([[1.0, 0.5], [0.4, 1.0]]),
            np.ones((2, 3)),
            np.array([[1.0, 0.5], [0.5, -0.1]]),
        ],
        ids=["asymmetric", "non_square", "negative_diagonal"],
    )
    def test_rejects_invalid_covariance(self, cov):
        with pytest.raises(ValueError, match="covariance"):
            fit_from_covariance(cov, delta=0.1, lam=0.1)

    def test_fit_pipeline_does_not_recheck_its_own_covariance(self, toy_model, monkeypatch):
        def refuse(cov):
            raise AssertionError("boundary check called")

        monkeypatch.setattr(love.pipeline, "_check_covariance", refuse)
        data = sample_dataset(toy_model, 500, seed=6)
        assert fit_pipeline(data, RunConfig(seed=0)).k_hat >= 1
        with pytest.raises(AssertionError):
            fit_from_covariance(sample_covariance(data), delta=0.2, lam=0.2)


class TestPluginMu:
    """mu=None resolves to the precision row-sum norm times delta."""

    def test_scaled_identity(self, toy_sigma):
        # the exact factor covariance is I, whose precision estimate is I / (1 + lam)
        fit = fit_from_covariance(toy_sigma, delta=0.1, lam=0.25)
        assert fit.tuning.mu == pytest.approx(0.1 / 1.25)

    def test_row_sum_times_delta(self, toy_model):
        data = sample_dataset(toy_model, 3000, seed=12)
        cov = sample_covariance(data, center=False)
        fit = fit_from_covariance(cov, delta=0.05, lam=0.05, mu=None)
        assert fit.tuning.mu == fit.precision.inf1_norm * 0.05

    def test_fit_pipeline_uses_plugin_rule(self, toy_model):
        data = sample_dataset(toy_model, 3000, seed=13)
        fit = fit_pipeline(data, RunConfig(delta=0.05, lam=0.02, center=False))
        assert fit.tuning.mu_source == "plugin"
        assert fit.tuning.mu == fit.precision.inf1_norm * 0.05


class TestFitPipeline:
    def test_toy_large_sample_recovers_supports(self, toy_model):
        data = sample_dataset(toy_model, 1_000_000, seed=31)
        fit = fit_pipeline(data, RunConfig(seed=2, center=False))
        assert fit.k_hat == 3
        groups = sorted(sorted(int(i) for i in g) for g in fit.clusters.groups)
        assert groups == [[0, 1, 6, 7], [2, 3, 6], [4, 5, 7]]
        assert fit.tuning.delta_source == "cv"
        assert fit.tuning.lambda_source == "recommended"
        assert fit.tuning.lam == pytest.approx(fit.tuning.delta)
        # soft-projected rows respect the row-scaling bound
        assert (np.abs(fit.loading.a_hat).sum(axis=1) <= 1.0 + 1e-9).all()

    def test_overrides_skip_cross_validation(self, toy_model):
        data = sample_dataset(toy_model, 5000, seed=8)
        fit = fit_pipeline(
            data, RunConfig(seed=0, center=False, delta=0.05, lam=0.02, mu=0.01)
        )
        assert fit.tuning.delta_source == "override"
        assert fit.tuning.delta == 0.05
        assert fit.diagnostics.get("cv_trace") is None

    def test_lambda_cv_mode_runs(self, toy_model):
        data = sample_dataset(toy_model, 4000, seed=9)
        fit = fit_pipeline(
            data, RunConfig(seed=1, center=False, lambda_mode="cv")
        )
        assert fit.tuning.lambda_source == "cv"
        assert "lambda_trace" in fit.diagnostics
        low, high = fit.tuning.delta, 3 * fit.tuning.delta
        assert low - 1e-12 <= fit.tuning.lam <= high + 1e-12

    @pytest.mark.parametrize("data_seed", [2, 3, 4])
    def test_fixed_delta_fit_is_permutation_and_sign_equivariant(self, data_seed):
        """Refitting on column-permuted, sign-flipped data at a fixed delta
        returns the permuted, flipped loading up to a signed column permutation.

        Delta chosen by cross-validation is not covered: the pure scan's merge
        rule depends on column order, so the selected delta can move.
        """
        data = sample_dataset(benchmark_model(200, 31), 300, seed=data_seed)
        rng = np.random.default_rng(100 + data_seed)
        perm = rng.permutation(data.p)
        signs = rng.choice([-1.0, 1.0], size=data.p)
        moved = Dataset(samples=data.samples[:, perm] * signs)
        config = RunConfig(delta=2.0 * delta_rate(data.n, data.p))
        base = fit_pipeline(data, config).loading.a_hat
        refit = fit_pipeline(moved, config).loading.a_hat
        expected = base[perm] * signs[:, None]
        aligned = align_signed_permutation(refit, expected).apply(refit)
        assert np.abs(aligned - expected).max() <= 1e-9

    def test_noise_only_data_collapses_to_one_cluster(self):
        rng = np.random.default_rng(12)
        data = Dataset(samples=rng.standard_normal((400, 30)))
        fit = fit_pipeline(data, RunConfig(seed=1, center=False))
        assert fit.k_hat == 1

    def test_guardrail_on_p(self, toy_model, monkeypatch):
        monkeypatch.setattr(love.pipeline, "_MAX_P", 4)
        data = sample_dataset(toy_model, 50, seed=3)
        with pytest.raises(ValueError, match="guardrail"):
            fit_pipeline(data, RunConfig(seed=0))
        fit = fit_pipeline(data, RunConfig(seed=0, center=False, allow_large_p=True, delta=0.3, lam=0.3))
        assert fit.k_hat >= 1

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(row_method="nonsense")
        with pytest.raises(ValueError):
            RunConfig(lambda_mode="sometimes")
        with pytest.raises(ValueError):
            RunConfig(n=0)


class TestRunSimulation:
    def test_deterministic_report(self):
        config = RunConfig(n=300, p=100, replications=1, seed=77, center=False)
        r1 = run_simulation(config)
        r2 = run_simulation(config)
        assert r1.rows == r2.rows
        assert r1.summary == r2.summary
        bytes1 = json.dumps(love_io._plain(r1.summary), sort_keys=True)
        bytes2 = json.dumps(love_io._plain(r2.summary), sort_keys=True)
        assert bytes1 == bytes2

    def test_two_replications_report_shape(self):
        config = RunConfig(n=300, p=100, replications=2, seed=5, center=False)
        report = run_simulation(config)
        assert len(report.rows) == 2
        assert {"k_hat", "l1_scaled", "fro_scaled"} <= set(report.rows[0])
        assert "k_correct_fraction" in report.summary
        assert report.summary["l1_scaled_mean"] is not None

    def test_replication_failures_are_recorded_not_fatal(self, monkeypatch):
        calls = {"count": 0}
        original = love.pipeline.fit_pipeline

        def flaky(data, config):
            calls["count"] += 1
            if calls["count"] == 1:
                raise EstimationError("synthetic failure")
            return original(data, config)

        monkeypatch.setattr(love.pipeline, "fit_pipeline", flaky)
        config = RunConfig(n=300, p=100, replications=2, seed=6, center=False)
        report = run_simulation(config)
        assert "error" in report.rows[0]
        assert "error" not in report.rows[1]
        assert report.summary["completed"] == 1


class TestSerialization:
    def test_fit_roundtrip_is_bit_identical(self, toy_model, tmp_path):
        data = sample_dataset(toy_model, 2000, seed=13)
        fit = fit_pipeline(data, RunConfig(seed=4, center=False))
        payload = love_io.fit_to_json(fit)
        path = tmp_path / "fit.json"
        love_io.write_json(path, payload)
        first_bytes = path.read_bytes()
        reloaded = love_io.fit_from_json(love_io.read_json(path))
        love_io.write_json(path, reloaded.to_json())
        assert path.read_bytes() == first_bytes
        assert np.array_equal(reloaded.a_hat, fit.loading.a_hat)

    def test_model_roundtrip(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        love_io.write_json(path, love_io.model_to_json(toy_model))
        loaded = love_io.model_from_json(love_io.read_json(path))
        assert np.array_equal(loaded.A, toy_model.A)
        assert np.array_equal(loaded.C, toy_model.C)
        payload = love_io.read_json(path)
        assert payload["pure_partition"]["groups"] == [[1, 2], [3, 4], [5, 6]]

    def test_cv_trace_csv(self, tmp_path):
        table = [
            {"c": 1.8, "delta": 0.1, "k_hat": 3, "i_size": 6, "cv_value": 0.25},
            {"c": 2.0, "delta": 0.11, "k_hat": 3, "i_size": 6, "cv_value": math.inf},
        ]
        path = tmp_path / "trace.csv"
        love_io.write_cv_trace(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "c,delta,K_hat,I_size,cv_value"
        assert lines[1].startswith("1.8,0.1,3,6,")


class TestLoadCsv:
    def test_plain_numbers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        data = love_io.load_csv(path)
        assert np.array_equal(data.samples, [[1.0, 2.0], [3.0, 4.0]])
        assert data.column_names is None

    def test_header_names_attached(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("g1,g2\n1,2\n3,4\n")
        data = love_io.load_csv(path, has_header=True)
        assert data.column_names == ["g1", "g2"]
        assert data.n == 2

    def test_trailing_blank_line_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n\n")
        assert love_io.load_csv(path).n == 2

    def test_ragged_row_reports_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(love_io.CSVParseError, match="row 2"):
            love_io.load_csv(path)

    def test_whitespace_padded_cells(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(" g1 ,\tg2\n 1.5 , -2\n3\t,  4e-1 \n")
        data = love_io.load_csv(path, has_header=True)
        assert data.column_names == ["g1", "g2"]
        assert np.array_equal(data.samples, [[1.5, -2.0], [3.0, 0.4]])

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(love_io.CSVParseError, match="row 2, column 2"):
            love_io.load_csv(path)


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("# comment\n[love]\nn = 40\nseed = 9\ncenter = false\n")
        values = love_io.load_config(config)
        assert values == {"n": "40", "seed": "9", "center": "false"}

    def test_malformed_line_rejected(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("this is not a pair\n")
        with pytest.raises(ValueError):
            love_io.load_config(config)


class TestCli:
    def _write_toy_csv(self, path, n=4000, seed=15):
        data = sample_dataset(three_factor_model(), n, seed=seed)
        lines = [",".join(f"{v:.8f}" for v in row) for row in data.samples]
        path.write_text("\n".join(lines) + "\n")

    def test_fit_eval_workflow(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        self._write_toy_csv(csv_path)
        fit_path = tmp_path / "fit.json"
        code = cli_main(
            ["fit", "--input", str(csv_path), "--no-center", "--out", str(fit_path), "--seed", "3"]
        )
        assert code == 0
        payload = love_io.read_json(fit_path)
        assert {"K", "A_hat", "clusters", "tuning", "diagnostics"} <= set(payload)
        assert fit_path.with_suffix(".cv.csv").exists()

        truth_path = tmp_path / "model.json"
        love_io.write_json(truth_path, love_io.model_to_json(three_factor_model()))
        report_path = tmp_path / "report.json"
        code = cli_main(
            ["eval", "--fit", str(fit_path), "--truth", str(truth_path), "--out", str(report_path)]
        )
        assert code == 0
        report = love_io.read_json(report_path)
        assert report["k_correct"] is True
        assert report["sn"] == 1.0

    def test_simulate_writes_reports(self, tmp_path):
        out = tmp_path / "sim"
        code = cli_main(
            [
                "simulate",
                "--p", "100",
                "--n", "300",
                "--reps", "2",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "replications.csv").exists()
        assert (out / "summary.csv").exists()
        summary = love_io.read_json(out / "summary.json")["summary"]
        assert summary["replications"] == 2
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "p,n,metric,mean,std"

    def test_config_file_with_flag_override(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        self._write_toy_csv(csv_path, n=3000, seed=16)
        config = tmp_path / "run.ini"
        config.write_text("delta = 0.5\nseed = 2\ncenter = false\n")
        fit_path = tmp_path / "fit.json"
        code = cli_main(
            [
                "fit",
                "--config", str(config),
                "--input", str(csv_path),
                "--delta", "0.2",
                "--out", str(fit_path),
            ]
        )
        assert code == 0
        payload = love_io.read_json(fit_path)
        assert payload["tuning"]["delta"] == 0.2  # flag wins over config

    def _fit_grid(self, tmp_path, grid_flags):
        csv_path = tmp_path / "data.csv"
        self._write_toy_csv(csv_path, n=2000, seed=17)
        fit_path = tmp_path / "fit.json"
        args = ["fit", "--input", str(csv_path), "--no-center", "--out", str(fit_path)]
        assert cli_main(args + grid_flags) == 0
        return love_io.read_json(fit_path)["tuning"]["delta_grid"]

    def test_grid_size_alone_uses_default_bracket(self, tmp_path):
        grid = self._fit_grid(tmp_path, ["--grid-size", "5"])
        assert grid == default_delta_grid(5).tolist()

    def test_grid_max_alone_keeps_default_start(self, tmp_path):
        grid = self._fit_grid(tmp_path, ["--grid-max", "3.0"])
        assert grid[0] == 1.8 and grid[-1] == 3.0
        assert len(grid) == default_delta_grid().size

    def test_grid_min_zero_is_not_replaced(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        self._write_toy_csv(csv_path, n=100, seed=18)
        args = ["fit", "--input", str(csv_path), "--grid-min", "0", "--out", str(tmp_path / "f.json")]
        assert cli_main(args) == 1

    def test_usage_errors_exit_one(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert cli_main(["fit", "--out", "x.json"]) == 1
        assert cli_main([]) == 1

    def test_missing_input_file_exits_one(self, tmp_path):
        assert cli_main(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.json")]
        ) == 1

    def test_estimation_failure_exits_two(self, tmp_path):
        sigma = np.array(
            [
                [1.5, 0.30, 0.30, 0.85],
                [0.30, 1.5, 0.50, 0.45],
                [0.30, 0.50, 1.5, 1.00],
                [0.85, 0.45, 1.00, 1.5],
            ]
        )
        chol = np.linalg.cholesky(sigma)
        x = 2.0 * chol.T  # 4 samples whose uncentered second moment is sigma
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("\n".join(",".join(map(str, row)) for row in x) + "\n")
        code = cli_main(
            [
                "fit",
                "--input", str(csv_path),
                "--no-center",
                "--delta", "0.1",
                "--out", str(tmp_path / "f.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag",
        [
            "--delta=nan",
            "--delta=inf",
            "--mu=nan",
            "--mu=inf",
            "--lambda=nan",
            "--lambda=inf",
            "--grid-min=nan",
        ],
    )
    def test_non_finite_tuning_value_exits_one(self, tmp_path, capsys, flag):
        csv_path = tmp_path / "data.csv"
        self._write_toy_csv(csv_path, n=500, seed=19)
        fit_path = tmp_path / "fit.json"
        assert cli_main(["fit", "--input", str(csv_path), "--out", str(fit_path), flag]) == 1
        assert "finite" in capsys.readouterr().err
        assert not fit_path.exists() and not fit_path.with_suffix(".cv.csv").exists()
