"""Ranking metrics for the attack evaluations.

Average precision is computed from its step-wise definition over the
descending-score ranking (ties kept in stable input order), not delegated
to a library; the test suite compares it against a direct-summation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ScoredPredictions:
    """Per-row score vectors plus the true label for each row."""

    scores: np.ndarray  # (n, n_labels) float
    labels: np.ndarray  # (n,) int

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.scores.ndim != 2:
            raise ValueError(f"scores must be 2-d, got shape {self.scores.shape}")
        if self.labels.shape != (self.scores.shape[0],):
            raise ValueError("labels must be a vector with one entry per score row")

    @property
    def n_labels(self) -> int:
        return self.scores.shape[1]


@dataclass
class MeanApResult:
    per_label: dict[int, float]
    mean_ap: float
    skipped: tuple[int, ...]  # labels dropped for lack of positives


def _average_precisions(scores: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """AP of each row of a (k, n) float64 score matrix against the bool
    hits of the same shape, each row with a hit: one stable sort and one
    cumulative sum along the rows, and each row's precision-at-hit terms
    summed as one contiguous row, as `sum` sums a vector."""
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked_hits = np.take_along_axis(hits, order, axis=1).astype(np.float64)
    precision = np.cumsum(ranked_hits, axis=1) / np.arange(1, scores.shape[1] + 1)
    return (precision * ranked_hits).sum(axis=1) / hits.sum(axis=1)


def average_precision(scores, positives) -> float:
    """AP = sum_n (R_n - R_{n-1}) * P_n over the descending-score ranking.

    Ties are broken by stable input order. Requires at least one positive.
    """
    s = np.asarray(scores, dtype=np.float64)
    p = np.asarray(positives)
    if s.ndim != 1 or p.ndim != 1 or s.shape != p.shape:
        raise ValueError(f"scores and positives must be equal-length vectors")
    if s.size == 0:
        raise ValueError("empty input")
    hits = p.astype(bool)
    if not hits.any():
        raise ValueError("no positives in ranking")
    return float(_average_precisions(s[None, :], hits[None, :])[0])


def mean_ap(preds: ScoredPredictions) -> MeanApResult:
    """One-vs-rest AP per score column, averaged over labels that have
    positives; every column is ranked in one batched pass.

    Labels with no positive rows are skipped and reported in the result.
    """
    hits = preds.labels[None, :] == np.arange(preds.n_labels)[:, None]
    present = hits.any(axis=1)
    if not present.any():
        raise ValueError("every label lacks positives")
    aps = _average_precisions(np.ascontiguousarray(preds.scores.T[present]), hits[present])
    per_label = dict(zip(np.flatnonzero(present).tolist(), aps.tolist()))
    skipped = tuple(np.flatnonzero(~present).tolist())
    mean = float(np.mean(list(per_label.values())))
    return MeanApResult(per_label=per_label, mean_ap=mean, skipped=skipped)


def topk_accuracy(preds: ScoredPredictions, k: int) -> float:
    """Fraction of rows whose true label is among the k highest scores
    (ties resolved in stable column order)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, preds.n_labels)
    order = np.argsort(-preds.scores, axis=1, kind="stable")[:, :k]
    hit = (order == preds.labels[:, None]).any(axis=1)
    return float(hit.mean())


def increase_over_chance(ap: float, chance_ap: float) -> float:
    """Ratio of achieved AP to the chance-level AP."""
    if chance_ap <= 0.0:
        raise ValueError(f"chance AP must be positive, got {chance_ap}")
    return ap / chance_ap


def chance_level(labels, n_labels: int) -> tuple[dict[int, float], float]:
    """Empirical per-label prevalence and its mean over present labels.

    This is the chance-level AP of an uninformed ranker.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty labels")
    per_label: dict[int, float] = {}
    for label in range(n_labels):
        count = int((labels == label).sum())
        if count:
            per_label[label] = count / labels.size
    mean = float(np.mean(list(per_label.values())))
    return per_label, mean
