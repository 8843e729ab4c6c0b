"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit_cv_p2000 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each invocation is one workload in one process, with BLAS pinned
to ``BLAS_THREADS`` threads.  The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
``love`` layers, reports per-layer metrics and writes the spans under
``.perfbench/traces/``.  The lines before it give the environment and every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SETUP_SAMPLES = 4  # before the workload, and again after it
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import love, love.cli; "
    "print(time.perf_counter() - t)"
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_times() -> list[float]:
    """Times to import ``love`` and ``love.cli`` in fresh interpreters."""
    samples = []
    for _ in range(_SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else float("nan")


def end_to_end_metrics(outcome, setup_s: float) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "fit_s": (statistics.median(outcome.fit_seconds), "s"),
        "fits_per_s": (outcome.fits / outcome.timed_seconds, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "l1_scaled": (_mean(outcome.l1_scaled), "ratio"),
        "sn": (_mean(outcome.sn), "frac"),
        "sp": (_mean(outcome.sp), "frac"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "love" / "__init__.py").is_file():
        print(f"error: no love package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import love.cli  # noqa: F401  (first import, which also byte-compiles)
    from design import check_matches_library
    from spans import Tracer, missing_layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_samples = import_times()
    correct = True
    try:
        check_matches_library(p=300, seed=args.seed)
    except AssertionError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        correct = False

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload].run(args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    setup_samples += import_times()

    correct = correct and outcome.failed == 0
    metrics = end_to_end_metrics(outcome, statistics.median(setup_samples))
    if tracer is not None:
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        missing = missing_layers(tracer, args.workload)
        if missing:
            print(f"coverage check failed: no calls into {', '.join(missing)}; "
                  "a wrapper was bypassed", file=sys.stderr)
            correct = False
        traced = {f"traced.{key}": metrics[key] for key in ("fit_s", "fits_per_s")}
        metrics = {**tracer.per_layer_metrics(outcome.fits), **traced}
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")

    print("env " + json.dumps(environment(), sort_keys=True))
    times = sorted(outcome.fit_seconds)
    print(f"{args.workload}: {outcome.fits} fits in "
          f"{outcome.timed_seconds:.3f} s timed; seconds per fit "
          f"min {times[0]:.4g}, median {statistics.median(times):.4g}, max {times[-1]:.4g}")
    # printed, not bounded: both move in coarse steps of one fit per run
    print(f"  failed_frac = {outcome.failed / outcome.fits:.6g} frac")
    print(f"  k_correct_frac = {_mean(outcome.k_correct):.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.fits,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
