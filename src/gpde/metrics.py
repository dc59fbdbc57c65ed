"""Classification metrics: classification rate, per-label F1, rank-based AUC.

AUC uses the rank (Mann-Whitney) formulation - the probability that a random
positive outscores a random negative, ties counted half - which is exact and
tie-aware.  The average ranks come from ``np.unique``: they are
half-integers, so their sum is exact.  A NaN score makes the AUC NaN.  F1
follows the rare-positive convention of returning 0 when the denominator
2TP + FP + FN is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, UndefinedMetricError

__all__ = ["MetricReport", "classification_rate", "f1_score", "auc_roc", "multilabel_report"]


def _paired(a, b, name_a: str, name_b: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise InvalidInputError(f"{name_a} and {name_b} must have equal length")
    if a.size < 1:
        raise InvalidInputError("need at least one sample")
    return a, b


def _check_signs(y: np.ndarray, name: str):
    if not np.all(np.isin(y, (-1, 1))):
        raise InvalidInputError(f"{name} entries must be -1 or +1")


def classification_rate(pred_classes, true_classes) -> float:
    """Fraction of exact matches between predicted and true class ids."""
    pred, true = _paired(pred_classes, true_classes, "pred_classes", "true_classes")
    return float(np.mean(pred == true))


def f1_score(pred, true) -> float:
    """F1 = 2TP / (2TP + FP + FN) for {-1, +1} labels; 0 when the denominator is 0."""
    pred, true = _paired(pred, true, "pred", "true")
    _check_signs(pred, "pred")
    _check_signs(true, "true")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == -1)))
    fn = int(np.sum((pred == -1) & (true == 1)))
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def auc_roc(scores, true) -> float:
    """Probability that a random positive outscores a random negative (ties count 1/2).

    Both classes must be present; otherwise the metric is undefined.
    """
    scores, true = _paired(scores, true, "scores", "true")
    _check_signs(true, "true")
    n_pos = int(np.sum(true == 1))
    n_neg = true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC is undefined when only one class is present")
    if np.isnan(scores).any():
        return float("nan")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]  # tied scores share their mean rank
    pos_rank_sum = float(np.sum(ranks[true == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class MetricReport:
    """Per-label and macro-averaged results for one evaluation.

    Labels whose AUC is undefined on the evaluated sample (single class) are
    reported as NaN and skipped by the macro average.
    """

    per_label_f1: np.ndarray
    per_label_auc: np.ndarray
    macro_f1: float
    macro_auc: float


def multilabel_report(true_labels, pred_labels, scores) -> MetricReport:
    """Evaluate per-label F1/AUC.

    Parameters
    ----------
    true_labels, pred_labels : (N x C) arrays in {-1, +1}
    scores : (N x C) array of real-valued decision scores (for AUC)
    """
    true_labels = np.atleast_2d(np.asarray(true_labels, dtype=float))
    pred_labels = np.atleast_2d(np.asarray(pred_labels, dtype=float))
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if true_labels.shape != pred_labels.shape or true_labels.shape != scores.shape:
        raise InvalidInputError("true_labels, pred_labels and scores must share shape")
    n_labels = true_labels.shape[1]
    f1 = np.empty(n_labels)
    auc = np.empty(n_labels)
    for c in range(n_labels):
        f1[c] = f1_score(pred_labels[:, c], true_labels[:, c])
        try:
            auc[c] = auc_roc(scores[:, c], true_labels[:, c])
        except UndefinedMetricError:
            auc[c] = np.nan
    return MetricReport(
        per_label_f1=f1,
        per_label_auc=auc,
        macro_f1=float(np.mean(f1)),
        macro_auc=float(np.nanmean(auc)) if not np.all(np.isnan(auc)) else float("nan"),
    )
