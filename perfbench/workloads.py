"""The benchmark workloads: timed ``love fit`` calls.

Every operation is one call of ``love.cli.main`` in this process, which is
what the ``love`` command runs.  Inputs are drawn from the workload seed and
written before the clock starts; outputs are checked after it stops.  A
failed check, a nonzero exit code or an exception counts the fit as failed.
When traced, the timed call records spans in the ``fit`` phase, and the
input draw and the scoring record theirs in the ``inputs`` and ``scoring``
phases.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from design import design_model

#: Stop starting new operations after this much wall time, so that a run
#: ends well inside its time limit even on a slow machine.
_WALL_CAP_S = 120.0

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: nothing to trim
    _malloc_trim = None


@dataclass
class Outcome:
    """What one workload run measured."""

    fit_seconds: list[float] = field(default_factory=list)  # per fit
    timed_seconds: float = 0.0
    fits: int = 0
    failed: int = 0
    k_correct: list[bool] = field(default_factory=list)
    l1_scaled: list[float] = field(default_factory=list)
    sn: list[float] = field(default_factory=list)
    sp: list[float] = field(default_factory=list)

    def score(self, k_correct: bool, l1_scaled, sn: float, sp: float) -> None:
        """Record one fit's quality; losses count only where K is right."""
        self.k_correct.append(bool(k_correct))
        if k_correct:
            self.l1_scaled.append(float(l1_scaled))
            self.sn.append(float(sn))
            self.sp.append(float(sp))


@contextlib.contextmanager
def _recording(tracer, phase: str):
    """Record the layer calls made inside the block as spans of ``phase``."""
    if tracer is not None:
        tracer.phase = phase
    try:
        yield
    finally:
        if tracer is not None:
            tracer.phase = None


def _call_cli(argv: list[str], tracer) -> tuple[int, float]:
    """Run ``love <argv>`` in process; return its exit code and wall time."""
    from love import cli

    gc.collect()  # garbage from earlier calls and checks is not this call's cost
    if _malloc_trim is not None:
        # Hand the pages earlier fits freed back to the OS, as a fresh `love fit`
        # process starts without them; left resident, they raised peak_rss_mb
        # by one p x p matrix in some runs and not in others.
        _malloc_trim(0)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), _recording(tracer, "fit"):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        finally:
            elapsed = time.perf_counter() - start
    return code, elapsed


def _checked(check, *args) -> bool:
    """Run an output check; a check that raises fails."""
    try:
        return check(*args)
    except Exception:  # an unreadable artifact is a failed operation
        traceback.print_exc()
        return False


@dataclass
class FitWorkload:
    """Repeated ``love fit``, each on a fresh CSV from a fresh generating model."""

    p: int
    n: int
    k: int
    center: bool
    delta_constant: float | None  # delta = c * sqrt(log(max(p, n)) / n); None: CV

    def argv(self, csv: Path, out: Path) -> list[str]:
        args = ["fit", "--input", str(csv), "--out", str(out)]
        if not self.center:
            args.append("--no-center")
        if self.delta_constant is not None:
            rate = math.sqrt(math.log(max(self.p, self.n)) / self.n)
            args += ["--delta", repr(self.delta_constant * rate)]
        return args

    def run(self, seed: int, seconds: float, workdir: Path, tracer) -> Outcome:
        from love.model import sample_dataset

        rng = np.random.default_rng(np.random.SeedSequence(seed))
        outcome = Outcome()
        wall_start = time.perf_counter()
        while outcome.fits == 0 or (
            outcome.timed_seconds < seconds and time.perf_counter() - wall_start < _WALL_CAP_S
        ):
            # a model per fit, so a run's quality metrics average over models
            model = design_model(self.p, int(rng.integers(2**31 - 1)), k=self.k)
            with _recording(tracer, "inputs"):
                data = sample_dataset(model, self.n, int(rng.integers(2**31 - 1)))
            csv = workdir / f"fit{outcome.fits}.csv"
            out = workdir / f"fit{outcome.fits}.json"
            np.savetxt(csv, data.samples, fmt="%.10g", delimiter=",")
            code, elapsed = _call_cli(self.argv(csv, out), tracer)
            outcome.fits += 1
            outcome.timed_seconds += elapsed
            outcome.fit_seconds.append(elapsed)
            if not (code == 0 and _checked(self._check, out, model, outcome, tracer)):
                outcome.failed += 1
            for path in workdir.iterdir():
                path.unlink()
        return outcome

    def _check(self, out: Path, model, outcome: Outcome, tracer) -> bool:
        from love.clusters import clusters_from_loadings
        from love.evaluation import evaluate_estimate
        from love.io import fit_from_json, read_json

        artifact = fit_from_json(read_json(out))
        a_hat = artifact.a_hat
        if a_hat.shape != (self.p, artifact.k_hat) or not np.isfinite(a_hat).all():
            print(f"check failed: A_hat has shape {a_hat.shape} or is not finite", file=sys.stderr)
            return False
        if clusters_from_loadings(a_hat).to_json() != artifact.clusters.to_json():
            print("check failed: clusters differ from the support of A_hat", file=sys.stderr)
            return False
        with _recording(tracer, "scoring"):
            report = evaluate_estimate(a_hat, artifact.clusters, model)
        outcome.score(report.k_correct, report.l1_scaled, report.sn, report.sp)
        return True


WORKLOADS = {
    # the single-dataset user path: defaults, centered covariance, delta by CV
    "fit_cv_p2000": FitWorkload(p=2000, n=500, k=20, center=True, delta_constant=None),
    # CV bypassed, one pure scan; the K = 40 precision LP does the work
    "fit_k40_delta": FitWorkload(p=400, n=1000, k=40, center=False, delta_constant=2.5),
}
