"""Outside-in tracing of the ``love`` layers.

Each layer is one ``love`` module.  ``Tracer.install`` wraps the layer's
public functions and rebinds the wrapper under every name that points at
the original, in every loaded ``love`` module.  A function imported by name
(``from .pure import find_pure_variables`` in both ``pipeline`` and
``tuning``) is therefore traced at every call site, not only where it is
defined.  The wrappers record one span per call, with a name, start, end,
parent span, trace id and phase, and the counts that belong to that call.
The phase says what the benchmark was doing: ``fit`` inside the timed
``love fit`` call, ``inputs`` while drawing its data, ``scoring`` while
scoring its output.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

#: Each layer, in pipeline order, mapped to (end-to-end metrics it should
#: move, workloads it does most of its work on, workloads where it should do
#: almost nothing).  The coverage check requires calls into a layer on every
#: workload of the middle entry.  ``model`` and ``evaluation`` do no work
#: inside ``love fit``; they are measured in the benchmark's own input draws
#: and scoring, outside the timed call, so they move no end-to-end metric.
_FITS = ("fit_cv_p2000", "fit_k40_delta")
LAYER_MAP = {
    "covariance": (("fit_s", "peak_rss_mb"), ("fit_cv_p2000",), ("fit_k40_delta",)),
    "tuning": (("fit_s", "fits_per_s"), ("fit_cv_p2000",), ("fit_k40_delta",)),
    "pure": (("fit_s", "fits_per_s"), ("fit_cv_p2000",), ("fit_k40_delta",)),
    "moments": (("fit_s", "fits_per_s"), ("fit_cv_p2000",), ("fit_k40_delta",)),
    "precision": (("fit_s", "fits_per_s"), ("fit_k40_delta",), ("fit_cv_p2000",)),
    "lp": (("fit_s", "fits_per_s"), ("fit_k40_delta",), ("fit_cv_p2000",)),
    "rows": (("fit_s", "fits_per_s"), _FITS, ()),
    "clusters": (("fit_s", "fits_per_s"), _FITS, ()),
    "model": ((), _FITS, ()),
    "evaluation": ((), _FITS, ()),
    "io": (("fit_s", "fits_per_s"), _FITS, ()),
    "pipeline": (("fit_s", "fits_per_s"), _FITS, ()),
    "cli": (("fit_s", "fits_per_s"), _FITS, ()),
}
LAYERS = tuple(LAYER_MAP)

#: Layers whose self time is reported as ``<layer>.self_s``: they mostly call
#: other layers, so only their own overhead is of interest.
_WRAPPER_LAYERS = ("pipeline", "cli")

#: Layers whose self time counts the benchmark's input draws and scoring as
#: well as the timed call; every other layer counts the timed call only.
_SIDE_LAYERS = ("model", "evaluation")


def _shape_p(sigma) -> int:
    values = getattr(sigma, "values", sigma)
    return int(values.shape[0])


def _count_pure(counts, args, kwargs, result):
    p = _shape_p(args[0] if args else kwargs["sigma"])
    counts["pure.calls"] += 1
    counts["pure.cells"] += p * p


def _count_cv(counts, args, kwargs, result):
    counts["tuning.grid_points"] += int(result.curve.size)
    counts["tuning.finite_points"] += int(np.isfinite(result.curve).sum())


def _count_precision(counts, args, kwargs, result):
    counts["precision.solves"] += 1
    counts["precision.lp_iterations"] += int(result.iterations)
    counts["precision.k_sum"] += int(result.omega.shape[0])


def _count_covariance(counts, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    n, p = getattr(data, "samples", data).shape
    counts["covariance.gram_flops"] += 2 * n * p * p


def _count_csv(counts, args, kwargs, result):
    counts["io.csv_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_written(counts, args, kwargs, result):
    counts["io.artifact_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


_COUNTERS = {
    "pure.find_pure_variables": _count_pure,
    "tuning.cv_delta": _count_cv,
    "precision.estimate_precision": _count_precision,
    "covariance.sample_covariance": _count_covariance,
    "io.load_csv": _count_csv,
    "io.write_json": _count_written,
    "io.write_cv_trace": _count_written,
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Spans and counts of the calls into each layer while ``phase`` is set."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.spans: list[tuple] = []  # (id, parent, trace, phase, name, start, end, self)
        self.counts: Counter = Counter()
        # open spans: [id, name, child seconds, trace]
        self._stack: list[list] = []
        self._next_id = 0
        self._next_trace = 0
        self._patches: list[tuple] = []

    def _open(self, qualname: str) -> list:
        if self._stack:
            trace = self._stack[-1][3]
        else:
            self._next_trace += 1
            trace = self._next_trace
        self._next_id += 1
        frame = [self._next_id, qualname, 0.0, trace]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.spans.append((frame[0], parent[0] if parent else None, frame[3], self.phase,
                           frame[1], start, end, end - start - frame[2]))

    def _wrap(self, qualname: str, fn):
        counter = _COUNTERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            frame = self._open(qualname)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, time.perf_counter())
            if counter is not None and self.phase == "fit":
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public layer function in every loaded ``love`` module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"love.{layer}")
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "love" and not mod_name.startswith("love."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_totals(self, phases=None) -> tuple[Counter, Counter]:
        """Self seconds and call counts per layer, over spans of ``phases`` (all if None)."""
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for span in self.spans:
            if phases is None or span[3] in phases:
                layer = span[4].split(".", 1)[0]
                seconds[layer] += span[7]
                calls[layer] += 1
        return seconds, calls

    def per_layer_metrics(self, fits: int) -> dict:
        """Per-layer metrics, each divided by the number of fits."""
        seconds, calls = self.layer_totals(("fit",))
        side_seconds, _ = self.layer_totals()
        c = self.counts
        metrics = {}
        for layer in LAYERS:
            name = f"{layer}.self_s" if layer in _WRAPPER_LAYERS else f"{layer}.s"
            busy = side_seconds if layer in _SIDE_LAYERS else seconds
            metrics[name] = (busy[layer] / fits, "s/op")
        for key in ("pure.calls", "pure.cells", "tuning.grid_points",
                    "tuning.finite_points", "precision.lp_iterations"):
            metrics[key] = (c[key] / fits, "count/op")
        metrics["precision.k"] = (c["precision.k_sum"] / max(c["precision.solves"], 1), "count")
        metrics["moments.calls"] = (calls["moments"] / fits, "count/op")
        metrics["covariance.gram_flops"] = (c["covariance.gram_flops"] / fits, "flop/op")
        metrics["io.csv_bytes"] = (c["io.csv_bytes"] / fits, "B/op")
        metrics["io.artifact_bytes"] = (c["io.artifact_bytes"] / fits, "B/op")
        return metrics

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "trace", "phase", "name", "start", "end", "self_s")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def missing_layers(tracer: Tracer, workload: str) -> list[str]:
    """Layers that should work on ``workload`` but recorded no call.

    A layer of the fit counts only calls made inside the timed ``love fit``,
    so a call from the benchmark's own scoring cannot hide a bypassed wrapper.
    """
    _, fit_calls = tracer.layer_totals(("fit",))
    _, all_calls = tracer.layer_totals()
    return [layer for layer, (_, busy, _) in LAYER_MAP.items()
            if workload in busy
            and (all_calls if layer in _SIDE_LAYERS else fit_calls)[layer] == 0]
