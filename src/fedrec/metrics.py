"""Evaluation metrics: rank-based AUC and thresholded precision.

`score_rows` scores many clients at once, one row of stacked scores each;
`auc` and `precision` are its one-row case.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


# a score above this predicts a positive
PRECISION_THRESHOLD = 0.5


class UndefinedMetricError(ValueError):
    """The metric has no value on this batch (single-class, no predicted positives)."""


class NonFiniteScoreError(ValueError):
    """A valid score is NaN or infinite; `row` is the first row holding one."""

    def __init__(self, row: int, position: int):
        super().__init__(f"row {row}: non-finite score at position {position}")
        self.row = row


class RowScores(NamedTuple):
    """Per-row metrics; a value is NaN where its `*_defined` entry is False."""

    auc: np.ndarray                # (C,) float
    auc_defined: np.ndarray        # (C,) bool: the row has a positive and a negative
    precision: np.ndarray          # (C,) float
    precision_defined: np.ndarray  # (C,) bool: some score of the row predicts a positive


def score_rows(scores, labels, counts) -> RowScores:
    """AUC and precision of each row of (C, N) scores and labels, where row c
    holds `counts[c]` valid entries followed by padding.

    AUC is the probability that a positive (label 1) outscores a negative
    (label 0), ties counting half: each positive earns one per negative of
    its row scored below it and a half per negative tied with it. All credits
    are half-integers, so their sum is exact in float64 and equals the
    rank-sum numerator `sum of positive ranks - n_pos (n_pos + 1) / 2`.
    Precision is TP / (TP + FP) with predicted-positive = score >
    PRECISION_THRESHOLD. Padding counts as neither positive nor negative,
    whatever its score. Raises NonFiniteScoreError naming the first row with
    a non-finite valid score.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    counts = np.asarray(counts)
    if s.ndim != 2 or y.shape != s.shape or counts.shape != s.shape[:1]:
        raise ValueError(
            f"scores {s.shape} and labels {y.shape} must be equal (C, N) arrays "
            f"with C counts, got {counts.shape}"
        )
    C, N = s.shape
    if C and (counts.min() < 0 or counts.max() > N):
        raise ValueError(f"valid counts must lie in [0, {N}]")
    valid = np.arange(N) < counts[:, None]
    bad = valid & ~np.isfinite(s)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise NonFiniteScoreError(row, int(np.argmax(bad[row])))
    pos = valid & (y == 1)
    neg = valid & (y == 0)
    n_pos = pos.sum(axis=1)
    n_neg = neg.sum(axis=1)

    # tie groups are runs of equal scores in each row's sorted order,
    # numbered across rows (a row always starts a new group)
    order = np.argsort(s, axis=1, kind="stable")
    sorted_s = np.take_along_axis(s, order, axis=1)
    neg_sorted = np.take_along_axis(neg, order, axis=1)
    starts = np.ones((C, N), dtype=bool)
    starts[:, 1:] = sorted_s[:, 1:] != sorted_s[:, :-1]
    starts = starts.ravel()
    group = np.cumsum(starts) - 1
    neg_below = (np.cumsum(neg_sorted, axis=1) - neg_sorted).ravel()[starts]
    neg_tied = np.bincount(group, weights=neg_sorted.ravel())
    pos_in = np.bincount(group, weights=np.take_along_axis(pos, order, axis=1).ravel())
    row_of_group = np.repeat(np.arange(C), N)[starts]
    credit = np.bincount(row_of_group, weights=pos_in * (neg_below + 0.5 * neg_tied), minlength=C)

    predicted = valid & (s > PRECISION_THRESHOLD)
    n_pred = predicted.sum(axis=1)
    tp = (predicted & pos).sum(axis=1)

    auc_defined = (n_pos > 0) & (n_neg > 0)
    precision_defined = n_pred > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        auc_vals = np.where(auc_defined, credit / (n_pos * n_neg), np.nan)
        prec_vals = np.where(precision_defined, tp / n_pred, np.nan)
    return RowScores(auc_vals, auc_defined, prec_vals, precision_defined)


def _one_row(scores, labels) -> RowScores:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores/labels must be equal-length nonempty 1-d arrays")
    return score_rows(s[None], y[None], [s.size])


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Ties count 0.5. Requires at least one positive and one negative.
    """
    r = _one_row(scores, labels)
    if not r.auc_defined[0]:
        raise UndefinedMetricError("AUC undefined on a single-class batch")
    return float(r.auc[0])


def precision(scores, labels) -> float:
    """TP / (TP + FP) with predicted-positive = score > PRECISION_THRESHOLD."""
    r = _one_row(scores, labels)
    if not r.precision_defined[0]:
        raise UndefinedMetricError("precision undefined: no predicted positives")
    return float(r.precision[0])
