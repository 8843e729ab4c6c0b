"""Comparison machinery between an estimate and a ground truth.

Loading matrices are only identified up to a signed permutation of columns,
so every comparison first aligns the estimate: an assignment over per-column
squared distances (with the better of the two signs recorded per pair) gives
the exact Frobenius-optimal signed permutation because columns decouple.
On top of the alignment sit the row-wise lq losses, cluster false
positive/negative proportions, direction-subgroup errors, the alignment-free
pairwise sensitivity/specificity, and support and sign recovery checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .clusters import ClusterSet
from .model import FactorModel, TruthDiagnostics

__all__ = [
    "SignedPermutation",
    "EvalReport",
    "SupportCheck",
    "PairwiseCounts",
    "align_signed_permutation",
    "lq_loss",
    "theoretical_rate_ratio",
    "error_aggregates",
    "cluster_metrics",
    "direction_metrics",
    "pairwise_sn_sp",
    "support_sign_check",
    "evaluate_estimate",
]


@dataclass
class SignedPermutation:
    """A signed column permutation mapping an estimate onto a truth layout.

    Column ``b`` of the aligned estimate is ``signs[b] * A_hat[:, perm[b]]``.
    """

    perm: np.ndarray
    signs: np.ndarray

    def __post_init__(self) -> None:
        self.perm = np.asarray(self.perm, dtype=int)
        self.signs = np.asarray(self.signs, dtype=int)
        k = self.perm.size
        if sorted(self.perm.tolist()) != list(range(k)):
            raise ValueError("perm must be a bijection on 0..k-1")
        if not np.isin(self.signs, (-1, 1)).all():
            raise ValueError("signs must be +1 or -1")

    @property
    def k(self) -> int:
        return self.perm.size

    def apply(self, a_hat: np.ndarray) -> np.ndarray:
        a_hat = np.atleast_2d(np.asarray(a_hat, dtype=float))
        return a_hat[:, self.perm] * self.signs[None, :]

    def apply_to_clusters(self, clusters: ClusterSet) -> ClusterSet:
        """Relabel groups and swap direction sub-groups on sign flips."""
        groups = [clusters.groups[self.perm[b]] for b in range(self.k)]
        direction = []
        for b in range(self.k):
            pos, neg = clusters.direction[self.perm[b]]
            direction.append((pos, neg) if self.signs[b] > 0 else (neg, pos))
        return ClusterSet(groups=groups, noise=clusters.noise, direction=direction)


def align_signed_permutation(a_hat: np.ndarray, a: np.ndarray) -> SignedPermutation:
    """Exact minimizer of ||A_hat P - A||_F over signed permutations P.

    For every (estimate column, truth column) pair the cheaper of the two
    signs is recorded; the squared column distances decouple, so an optimal
    assignment over that cost matrix is the exact Frobenius minimizer.
    """
    a_hat = np.atleast_2d(np.asarray(a_hat, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a_hat.shape != a.shape:
        raise ValueError(f"shape mismatch: estimate {a_hat.shape} vs truth {a.shape}")
    # cost[e, b] = min over sign of ||A_hat[:, e] * sign - A[:, b]||^2
    sq_hat = (a_hat**2).sum(axis=0)
    sq_true = (a**2).sum(axis=0)
    cross = a_hat.T @ a
    base = sq_hat[:, None] + sq_true[None, :]
    cost_plus = base - 2.0 * cross
    cost_minus = base + 2.0 * cross
    cost = np.minimum(cost_plus, cost_minus)
    est_cols, true_cols = linear_sum_assignment(cost)
    k = a.shape[1]
    perm = np.empty(k, dtype=int)
    signs = np.empty(k, dtype=int)
    for e, b in zip(est_cols, true_cols):
        perm[b] = e
        signs[b] = 1 if cost_plus[e, b] <= cost_minus[e, b] else -1
    return SignedPermutation(perm=perm, signs=signs)


def lq_loss(
    a_hat: np.ndarray,
    a: np.ndarray,
    q: float,
    alignment: Optional[SignedPermutation] = None,
) -> float:
    """Maximum row lq norm of the aligned difference.

    ``q`` may be any value >= 1 including ``inf``.
    """
    if alignment is None:
        alignment = align_signed_permutation(a_hat, a)
    diff = np.abs(alignment.apply(a_hat) - np.asarray(a, dtype=float))
    if math.isinf(q):
        rows = diff.max(axis=1)
    else:
        rows = (diff**q).sum(axis=1) ** (1.0 / q)
    return float(rows.max())


def theoretical_rate_ratio(loss: float, q: float, diagnostics: TruthDiagnostics) -> float:
    """Observed loss divided by its theoretical high-probability bound.

    The bound is 10 s^(1/q) times the precision row-sum norm times the
    deviation level delta'; values comfortably below 1 mean the run sits
    inside the guaranteed regime.
    """
    s_term = 1.0 if math.isinf(q) else diagnostics.row_sparsity ** (1.0 / q)
    bound = 10.0 * s_term * diagnostics.sensitivity_norm * diagnostics.delta_prime
    return loss / bound if bound > 0 else math.inf


def error_aggregates(
    a_hat: np.ndarray, a: np.ndarray, alignment: Optional[SignedPermutation] = None
) -> dict:
    """Whole-matrix error summaries: entrywise l1 over p*K, Frobenius over sqrt(p*K)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if alignment is None:
        alignment = align_signed_permutation(a_hat, a)
    diff = alignment.apply(a_hat) - a
    p, k = a.shape
    return {
        "l1_scaled": float(np.abs(diff).sum() / (p * k)),
        "fro_scaled": float(np.linalg.norm(diff) / math.sqrt(p * k)),
    }


def _group_sets(clusters: ClusterSet) -> list[set[int]]:
    return [set(int(i) for i in g) for g in clusters.groups]


def cluster_metrics(
    est: ClusterSet,
    truth: ClusterSet,
    alignment: Optional[SignedPermutation] = None,
    p: Optional[int] = None,
) -> dict:
    """Group and total false positive/negative proportions.

    Requires matching cluster counts (after alignment).  Per-group false
    positives are counted against the complement of the true group, with the
    convention that an empty complement scores 0.
    """
    if alignment is not None:
        est = alignment.apply_to_clusters(est)
    if est.k != truth.k:
        raise ValueError("cluster metrics need matching cluster counts")
    if p is None:
        p = max(est.p, truth.p)
    est_sets = _group_sets(est)
    true_sets = _group_sets(truth)
    gfpp, gfnp = [], []
    fp_num = fp_den = fn_num = fn_den = 0
    for g_est, g_true in zip(est_sets, true_sets):
        comp = p - len(g_true)
        fp = len(g_est - g_true)
        fn = len(g_true - g_est)
        gfpp.append(fp / comp if comp else 0.0)
        gfnp.append(fn / len(g_true) if g_true else 0.0)
        fp_num += fp
        fp_den += comp
        fn_num += fn
        fn_den += len(g_true)
    return {
        "tfpp": fp_num / fp_den if fp_den else 0.0,
        "tfnp": fn_num / fn_den if fn_den else 0.0,
        "gfpp": np.array(gfpp),
        "gfnp": np.array(gfnp),
    }


def direction_metrics(
    est: ClusterSet,
    truth: ClusterSet,
    alignment: Optional[SignedPermutation] = None,
) -> dict:
    """Sign-placement errors across the direction sub-groups.

    False positives count members of the true positive sub-groups landing in
    the estimated negative ones, and conversely for false negatives; the
    alignment's sign flips swap the estimated sub-groups first.  A zero
    denominator scores 0 and is flagged.
    """
    if alignment is not None:
        est = alignment.apply_to_clusters(est)
    if est.k != truth.k:
        raise ValueError("direction metrics need matching cluster counts")
    fp = fp_den = fn = fn_den = 0
    for (est_pos, est_neg), (true_pos, true_neg) in zip(est.direction, truth.direction):
        ep, en = set(int(i) for i in est_pos), set(int(i) for i in est_neg)
        tp, tn = set(int(i) for i in true_pos), set(int(i) for i in true_neg)
        fp += len(tp & en)
        fp_den += len(tp)
        fn += len(tn & ep)
        fn_den += len(tn)
    return {
        "dfpp": fp / fp_den if fp_den else 0.0,
        "dfnp": fn / fn_den if fn_den else 0.0,
        "degenerate": fp_den == 0 or fn_den == 0,
    }


@dataclass
class PairwiseCounts:
    """Pair-level agreement counts between two cluster sets."""

    tp: int
    tn: int
    fp: int
    fn: int
    degenerate: bool = False

    @property
    def sn(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0

    @property
    def sp(self) -> float:
        return self.tn / (self.tn + self.fp) if (self.tn + self.fp) else 1.0


def pairwise_sn_sp(est: ClusterSet, truth: ClusterSet, p: Optional[int] = None) -> PairwiseCounts:
    """Sensitivity and specificity over co-clustered variable pairs.

    A pair counts as co-clustered when both variables share at least one
    group.  No alignment is involved, so the cluster counts may differ.
    """
    if p is None:
        p = max(est.p, truth.p)

    def co_membership(cs: ClusterSet) -> np.ndarray:
        member = np.zeros((p, max(cs.k, 1)), dtype=bool)
        for a, g in enumerate(cs.groups):
            member[g, a] = True
        return member @ member.T

    co_true = co_membership(truth)
    co_est = co_membership(est)
    iu = np.triu_indices(p, k=1)
    t, e = co_true[iu], co_est[iu]
    tp = int((t & e).sum())
    tn = int((~t & ~e).sum())
    fp = int((~t & e).sum())
    fn = int((t & ~e).sum())
    return PairwiseCounts(
        tp=tp, tn=tn, fp=fp, fn=fn, degenerate=(tp + fn == 0) or (tn + fp == 0)
    )


@dataclass
class SupportCheck:
    """Support and sign recovery of the aligned loading estimate."""

    support_recovered: bool
    sign_consistent: bool
    strong_support_contained: bool
    extra_support: int
    sign_violations: int
    missed_strong: int


def support_sign_check(
    a_hat_aligned: np.ndarray,
    model: FactorModel,
    diagnostics: TruthDiagnostics,
    zero_tol: float = 0.0,
) -> SupportCheck:
    """Check supp(A_hat) within supp(A), sign agreement, and strong-row coverage.

    ``strong_support_contained`` asks that every nonzero loading of a
    strong-signal row (diagnostics ``j2``) is picked up by the estimate.
    """
    a_hat = np.atleast_2d(np.asarray(a_hat_aligned, dtype=float))
    a = model.A
    supp_hat = np.abs(a_hat) > zero_tol
    supp_true = a != 0
    extra = supp_hat & ~supp_true
    common = supp_hat & supp_true
    sign_bad = common & (np.sign(a_hat) != np.sign(a))
    j2 = diagnostics.j2
    missed = supp_true[j2] & ~supp_hat[j2] if j2.size else np.zeros((0, model.k), dtype=bool)
    return SupportCheck(
        support_recovered=not extra.any(),
        sign_consistent=not sign_bad.any(),
        strong_support_contained=not missed.any(),
        extra_support=int(extra.sum()),
        sign_violations=int(sign_bad.sum()),
        missed_strong=int(missed.sum()),
    )


@dataclass
class EvalReport:
    """Full comparison of an estimate against a known model."""

    k_correct: bool
    k_hat: int
    k_true: int
    sn: float
    sp: float
    lq_losses: dict = field(default_factory=dict)
    l1_scaled: Optional[float] = None
    fro_scaled: Optional[float] = None
    tfpp: Optional[float] = None
    tfnp: Optional[float] = None
    gfpp: Optional[np.ndarray] = None
    gfnp: Optional[np.ndarray] = None
    dfpp: Optional[float] = None
    dfnp: Optional[float] = None
    support_recovered: Optional[bool] = None
    sign_consistent: Optional[bool] = None
    strong_support_contained: Optional[bool] = None

    def to_json(self) -> dict:
        def listify(v):
            return None if v is None else [float(x) for x in v]

        return {
            "k_correct": self.k_correct,
            "k_hat": self.k_hat,
            "k_true": self.k_true,
            "sn": self.sn,
            "sp": self.sp,
            "lq_losses": {str(q): v for q, v in self.lq_losses.items()},
            "l1_scaled": self.l1_scaled,
            "fro_scaled": self.fro_scaled,
            "tfpp": self.tfpp,
            "tfnp": self.tfnp,
            "gfpp": listify(self.gfpp),
            "gfnp": listify(self.gfnp),
            "dfpp": self.dfpp,
            "dfnp": self.dfnp,
            "support_recovered": self.support_recovered,
            "sign_consistent": self.sign_consistent,
            "strong_support_contained": self.strong_support_contained,
        }


def evaluate_estimate(
    a_hat: np.ndarray,
    est_clusters: ClusterSet,
    model: FactorModel,
    diagnostics: Optional[TruthDiagnostics] = None,
) -> EvalReport:
    """Build the full report; alignment-based metrics only when counts match.

    When the estimated cluster count differs from the truth, only the
    pairwise sensitivity/specificity and the flag are reported, since the
    aligned losses are undefined.
    """
    from .clusters import clusters_from_loadings

    truth_clusters = clusters_from_loadings(model.A)
    counts = pairwise_sn_sp(est_clusters, truth_clusters, p=model.p)
    a_hat = np.atleast_2d(np.asarray(a_hat, dtype=float))
    k_hat = a_hat.shape[1]
    report = EvalReport(
        k_correct=(k_hat == model.k),
        k_hat=k_hat,
        k_true=model.k,
        sn=counts.sn,
        sp=counts.sp,
    )
    if not report.k_correct:
        return report

    alignment = align_signed_permutation(a_hat, model.A)
    report.lq_losses = {
        1: lq_loss(a_hat, model.A, 1, alignment),
        2: lq_loss(a_hat, model.A, 2, alignment),
        math.inf: lq_loss(a_hat, model.A, math.inf, alignment),
    }
    aggregates = error_aggregates(a_hat, model.A, alignment)
    report.l1_scaled = aggregates["l1_scaled"]
    report.fro_scaled = aggregates["fro_scaled"]
    cm = cluster_metrics(est_clusters, truth_clusters, alignment, p=model.p)
    report.tfpp, report.tfnp = cm["tfpp"], cm["tfnp"]
    report.gfpp, report.gfnp = cm["gfpp"], cm["gfnp"]
    dm = direction_metrics(est_clusters, truth_clusters, alignment)
    report.dfpp, report.dfnp = dm["dfpp"], dm["dfnp"]
    if diagnostics is not None:
        check = support_sign_check(alignment.apply(a_hat), model, diagnostics)
        report.support_recovered = check.support_recovered
        report.sign_consistent = check.sign_consistent
        report.strong_support_contained = check.strong_support_contained
    return report
