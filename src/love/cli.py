"""Command-line interface.

Subcommands: ``simulate`` (replication benchmark), ``fit`` (estimate from a
CSV), ``eval`` (score a saved fit against a known model).  A flat key=value
configuration file can seed any option; explicit flags win.  Exit codes:
0 success, 1 usage error, 2 structured estimation failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as love_io
from .evaluation import evaluate_estimate
from .exceptions import EstimationError
from .model import truth_diagnostics
from .pipeline import RunConfig, fit_pipeline, run_simulation
from .rows import HARD_THRESHOLD, SOFT_PROJECT
from .tuning import default_delta_grid


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="love", description="Overlapping variable clustering")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", type=Path, help="flat key=value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--lambda-mode", choices=["recommended", "cv"], default=None)
        p.add_argument(
            "--row-method", choices=[SOFT_PROJECT, HARD_THRESHOLD], default=None
        )
        p.add_argument("--grid-min", type=float, default=None)
        p.add_argument("--grid-max", type=float, default=None)
        p.add_argument("--grid-size", type=int, default=None)
        p.add_argument(
            "--center", action=argparse.BooleanOptionalAction, default=None
        )

    sim = sub.add_parser("simulate", help="run the synthetic replication benchmark")
    common(sim)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--out", type=Path, required=True, help="output directory")

    fit = sub.add_parser("fit", help="fit a CSV dataset")
    common(fit)
    fit.add_argument("--input", type=Path, required=True)
    fit.add_argument("--header", action="store_true", help="first CSV row holds names")
    fit.add_argument("--allow-large-p", action="store_true")
    fit.add_argument("--out", type=Path, required=True, help="output JSON path")

    ev = sub.add_parser("eval", help="score a fit against a known model")
    ev.add_argument("--fit", type=Path, required=True)
    ev.add_argument("--truth", type=Path, required=True)
    ev.add_argument("--out", type=Path, required=True)
    return parser


def _setting(args, config: dict, key: str, cast, fallback):
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in config:
        raw = config[key]
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    return fallback


def _grid(args, config) -> Optional[np.ndarray]:
    low = _setting(args, config, "grid_min", float, None)
    high = _setting(args, config, "grid_max", float, None)
    size = _setting(args, config, "grid_size", int, None)
    if low is None and high is None and size is None:
        return None
    default = default_delta_grid()
    return np.geomspace(
        default[0] if low is None else low,
        default[-1] if high is None else high,
        default.size if size is None else size,
    )


def _run_config(args, config: dict, center_default: bool) -> RunConfig:
    return RunConfig(
        n=_setting(args, config, "n", int, 300),
        p=_setting(args, config, "p", int, 200),
        replications=_setting(args, config, "reps", int, 10),
        seed=_setting(args, config, "seed", int, 0),
        delta=_setting(args, config, "delta", float, None),
        lam=_setting(args, config, "lam", float, None),
        mu=_setting(args, config, "mu", float, None),
        delta_grid=_grid(args, config),
        lambda_mode=_setting(args, config, "lambda_mode", str, "recommended"),
        row_method=_setting(args, config, "row_method", str, SOFT_PROJECT),
        center=_setting(args, config, "center", bool, center_default),
        allow_large_p=bool(getattr(args, "allow_large_p", False)),
    )


def _cmd_simulate(args, config: dict) -> int:
    run_cfg = _run_config(args, config, center_default=False)
    report = run_simulation(run_cfg)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "replications.csv").write_text(
        "\n".join(love_io.replication_csv_lines(report.rows)) + "\n"
    )
    (out / "summary.csv").write_text(
        "\n".join(love_io.summary_csv_lines(report.summary)) + "\n"
    )
    love_io.write_json(out / "summary.json", {"summary": report.summary, "rows": report.rows})
    print(f"wrote {out / 'replications.csv'}, {out / 'summary.csv'}, {out / 'summary.json'}")
    return 0


def _cmd_fit(args, config: dict) -> int:
    run_cfg = _run_config(args, config, center_default=True)
    data = love_io.load_csv(args.input, has_header=args.header)
    fit = fit_pipeline(data, run_cfg)
    payload = love_io.fit_to_json(fit)
    if data.column_names:
        payload["column_names"] = data.column_names
    love_io.write_json(args.out, payload)
    trace = fit.diagnostics.get("cv_trace")
    if trace:
        trace_path = args.out.with_suffix(".cv.csv")
        love_io.write_cv_trace(trace_path, trace)
        print(f"wrote {args.out} and {trace_path}")
    else:
        print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    fit = love_io.fit_from_json(love_io.read_json(args.fit))
    model = love_io.model_from_json(love_io.read_json(args.truth))
    diagnostics = None
    tuning = fit.tuning or {}
    if tuning.get("delta") is not None and tuning.get("mu") is not None:
        diagnostics = truth_diagnostics(model, float(tuning["delta"]), float(tuning["mu"]))
    report = evaluate_estimate(fit.a_hat, fit.clusters, model, diagnostics)
    love_io.write_json(args.out, report.to_json())
    print(f"wrote {args.out}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        config = love_io.load_config(args.config) if getattr(args, "config", None) else {}
        if args.command == "simulate":
            return _cmd_simulate(args, config)
        if args.command == "fit":
            return _cmd_fit(args, config)
        return _cmd_eval(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
