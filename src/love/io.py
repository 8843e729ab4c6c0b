"""Serialization, CSV ingestion, and configuration parsing.

All on-disk formats use 1-based variable indices.  JSON is written with
sorted keys and two-space indentation so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .clusters import ClusterSet
from .model import Dataset, FactorModel, PurePartition, pure_set_of
from .pipeline import FitResult

__all__ = [
    "CSVParseError",
    "load_csv",
    "model_to_json",
    "model_from_json",
    "fit_to_json",
    "FitArtifact",
    "fit_from_json",
    "clusters_from_json",
    "write_json",
    "read_json",
    "cv_trace_lines",
    "write_cv_trace",
    "replication_csv_lines",
    "summary_csv_lines",
    "load_config",
]


class CSVParseError(ValueError):
    """A malformed CSV cell or row, with its location."""


def load_csv(path: Union[str, Path], has_header: bool = False) -> Dataset:
    """Read a rectangular numeric CSV into a dataset.

    Blank lines (for instance a trailing newline) are skipped.  Ragged rows
    and non-numeric cells raise ``CSVParseError`` naming the row and column.
    """
    path = Path(path)
    names: Optional[list[str]] = None
    rows: list[np.ndarray] = []
    width: Optional[int] = None
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if has_header and names is None:
                names = [cell.strip() for cell in cells]
                width = len(cells)
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise CSVParseError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {width}"
                )
            try:
                # numpy parses each cell as float() does, surrounding blanks included
                rows.append(np.array(cells, dtype=float))
            except ValueError:
                for col, cell in enumerate(cells, start=1):
                    try:
                        float(cell)
                    except ValueError as exc:
                        raise CSVParseError(
                            f"{path}: row {lineno}, column {col}: not a number: {cell.strip()!r}"
                        ) from exc
                raise
    if not rows:
        raise CSVParseError(f"{path}: no data rows")
    return Dataset(samples=np.array(rows, dtype=float), column_names=names)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def _partition_to_json(partition: PurePartition) -> dict:
    out: dict = {"groups": [[int(i) + 1 for i in g] for g in partition.groups]}
    if partition.signs is not None:
        out["signs"] = {str(int(i) + 1): int(s) for i, s in sorted(partition.signs.items())}
    return out


def _partition_from_json(obj: dict) -> PurePartition:
    groups = [np.array([int(i) - 1 for i in g], dtype=int) for g in obj["groups"]]
    signs = None
    if "signs" in obj and obj["signs"] is not None:
        signs = {int(i) - 1: int(s) for i, s in obj["signs"].items()}
    return PurePartition(groups=groups, signs=signs)


def model_to_json(model: FactorModel) -> dict:
    """Model as nested arrays plus its derived pure partition."""
    return {
        "A": model.A.tolist(),
        "C": model.C.tolist(),
        "Gamma": model.Gamma.tolist(),
        "pure_partition": _partition_to_json(pure_set_of(model.A)),
    }


def model_from_json(obj: dict) -> FactorModel:
    return FactorModel(
        A=np.array(obj["A"], dtype=float),
        C=np.array(obj["C"], dtype=float),
        Gamma=np.array(obj["Gamma"], dtype=float),
    )


def clusters_from_json(obj: dict) -> ClusterSet:
    groups = [np.array([int(i) - 1 for i in g], dtype=int) for g in obj["groups"]]
    noise = np.array([int(i) - 1 for i in obj["noise"]], dtype=int)
    direction = [
        (
            np.array([int(i) - 1 for i in d["pos"]], dtype=int),
            np.array([int(i) - 1 for i in d["neg"]], dtype=int),
        )
        for d in obj["direction"]
    ]
    return ClusterSet(groups=groups, noise=noise, direction=direction)


def fit_to_json(fit: FitResult) -> dict:
    """The fit artifact: loading estimate, clusters, tuning, diagnostics."""
    return {
        "K": fit.loading.k_hat,
        "pure_partition": _partition_to_json(fit.loading.partition),
        "A_hat": fit.loading.a_hat.tolist(),
        "row_method": fit.loading.row_method,
        "clusters": fit.clusters.to_json(),
        "tuning": fit.tuning.to_json(),
        "diagnostics": _plain(fit.diagnostics),
    }


@dataclass
class FitArtifact:
    """A fit loaded back from its JSON form."""

    a_hat: np.ndarray
    k_hat: int
    partition: PurePartition
    clusters: ClusterSet
    row_method: str
    tuning: dict
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "K": self.k_hat,
            "pure_partition": _partition_to_json(self.partition),
            "A_hat": self.a_hat.tolist(),
            "row_method": self.row_method,
            "clusters": self.clusters.to_json(),
            "tuning": self.tuning,
            "diagnostics": self.diagnostics,
        }


def fit_from_json(obj: dict) -> FitArtifact:
    return FitArtifact(
        a_hat=np.array(obj["A_hat"], dtype=float),
        k_hat=int(obj["K"]),
        partition=_partition_from_json(obj["pure_partition"]),
        clusters=clusters_from_json(obj["clusters"]),
        row_method=obj.get("row_method", "soft_project"),
        tuning=obj.get("tuning", {}),
        diagnostics=obj.get("diagnostics", {}),
    )


def _plain(obj):
    """Recursively convert numpy scalars and arrays for JSON."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: Union[str, Path], obj) -> None:
    Path(path).write_text(json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n")


def read_json(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


def cv_trace_lines(table: list[dict]) -> list[str]:
    lines = ["c,delta,K_hat,I_size,cv_value"]
    for row in table:
        lines.append(
            f"{row['c']:.10g},{row['delta']:.10g},{row['k_hat']},{row['i_size']},{row['cv_value']:.10g}"
        )
    return lines


def write_cv_trace(path: Union[str, Path], table: list[dict]) -> None:
    Path(path).write_text("\n".join(cv_trace_lines(table)) + "\n")


_REPLICATION_COLUMNS = [
    "replication",
    "model_seed",
    "data_seed",
    "k_hat",
    "k_correct",
    "l1_scaled",
    "fro_scaled",
    "tfpp",
    "tfnp",
    "dfpp",
    "dfnp",
    "sn",
    "sp",
    "delta",
    "lambda",
    "mu",
    "error",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def replication_csv_lines(rows: list[dict]) -> list[str]:
    lines = [",".join(_REPLICATION_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(row.get(col)) for col in _REPLICATION_COLUMNS))
    return lines


def summary_csv_lines(summary: dict) -> list[str]:
    """Aggregate table: one metric per row with mean and std across runs."""
    lines = ["p,n,metric,mean,std"]
    for key in ("l1_scaled", "fro_scaled", "tfpp", "tfnp", "dfpp", "dfnp", "sn", "sp"):
        lines.append(
            f"{summary['p']},{summary['n']},{key},"
            f"{_cell(summary.get(f'{key}_mean'))},{_cell(summary.get(f'{key}_std'))}"
        )
    lines.append(
        f"{summary['p']},{summary['n']},k_correct_fraction,"
        f"{_cell(summary.get('k_correct_fraction'))},"
    )
    return lines


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------


def load_config(path: Union[str, Path]) -> dict[str, str]:
    """Flat key = value configuration; # comments and [sections] are skipped."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values
