"""
Exact recovery from a population covariance
===========================================

A small model with three latent factors, two pure variables per factor,
and two variables that load on several factors at once.  Fed the exact
covariance and vanishing tuning values, the estimator recovers the pure
variables, their partition, the loading matrix, and the overlapping
clusters exactly.
"""

import numpy as np

from love import (
    FactorModel,
    fit_from_covariance,
    lq_loss,
    population_covariance,
    validate_model,
)

A = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0],
        [0.4, 0.6, 0.0],
        [-0.5, 0.0, 0.4],
    ]
)
model = FactorModel(A=A, C=np.eye(3), Gamma=np.ones(8))

report = validate_model(model)
print("model valid:", report.ok, "| factor separation:", report.delta_c)

sigma = population_covariance(model)
print("\ncovariance between variable 1 and the mixed variable 7:", sigma[0, 6])

fit = fit_from_covariance(sigma, delta=1e-6, lam=1e-8, mu=1e-6)
print("\nrecovered number of factors:", fit.k_hat)
print("pure groups (1-based):", [[int(i) + 1 for i in g] for g in fit.loading.partition.groups])
print("estimated loadings:\n", np.round(fit.loading.a_hat, 4))
print("sup-norm loss after sign alignment:", lq_loss(fit.loading.a_hat, model.A, np.inf))

print("\noverlapping clusters (variables may appear in several):")
for a, group in enumerate(fit.clusters.groups, start=1):
    print(f"  cluster {a}: {[int(i) + 1 for i in group]}")
