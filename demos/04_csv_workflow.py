"""
Fitting a CSV dataset and scoring against a known truth
=======================================================

The same workflow the command line offers, driven from Python: write a
dataset to CSV, load it back with header names, fit, serialize the fit,
and evaluate it against the generating model.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from love import (
    FactorModel,
    RunConfig,
    evaluate_estimate,
    fit_pipeline,
    sample_dataset,
    truth_diagnostics,
)
from love.io import fit_to_json, load_csv, model_to_json, write_json

A = np.vstack([np.repeat(np.eye(3), 2, axis=0), [[0.5, 0.0, -0.5]], [[0.0, 0.0, 0.0]]])
model = FactorModel(A=A, C=np.eye(3), Gamma=np.full(8, 0.5))
data = sample_dataset(model, 20_000, seed=5)

with tempfile.TemporaryDirectory(prefix="love-demo-") as tmp:
    root = Path(tmp)
    csv_path = root / "expression.csv"
    names = [f"g{j + 1}" for j in range(model.p)]
    lines = [",".join(names)] + [",".join(f"{v:.6f}" for v in row) for row in data.samples]
    csv_path.write_text("\n".join(lines) + "\n")
    print("wrote", csv_path)

    loaded = load_csv(csv_path, has_header=True)
    print("columns:", loaded.column_names)

    fit = fit_pipeline(loaded, RunConfig(seed=1, center=False))
    fit_path = root / "fit.json"
    write_json(fit_path, fit_to_json(fit))
    print("fit saved to", fit_path, "| factors found:", fit.k_hat)
    print("noise cluster (all-zero rows):", [int(i) + 1 for i in fit.clusters.noise])

    write_json(root / "model.json", model_to_json(model))

diag = truth_diagnostics(model, fit.tuning.delta, fit.tuning.mu)
report = evaluate_estimate(fit.loading.a_hat, fit.clusters, model, diag)
print("\nevaluation against the generating model:")
print(json.dumps(report.to_json(), indent=2, sort_keys=True))
