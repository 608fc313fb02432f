"""Ranking metrics over graded lists: nDCG@k, MAP@k, MRR, and a paired sign
test for system comparisons.

`RankingKernel` is the one implementation of the ranking metrics: scores
shaped (..., Q, C) over Q padded lists of at most C candidates are ordered
by `rank_order` (descending score, ties by ascending oer_id) and scored per
query. Training, cross-validation and inference all use it; the scalar
functions are one-row calls into it. Positions are summed left to right up
to column min(k, C), so padding, which sorts last with gain 0, leaves every
value bit-identical to its one-row value.

Grades are the linear gains 2 (Good), 1 (OK), 0 (Bad); NotSure judgments
are removed before lists reach this module. Relevance for MAP/MRR is
grade >= 1. Queries whose ideal DCG is zero have no defined normalization
and are reported as skipped rather than scored (NaN in the kernel).
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

RELEVANCE_THRESHOLD = 1

_SPEC = re.compile(r"(ndcg|map)@(\d+|all)|mrr")


def parse_metric(spec: str) -> tuple[str, int | None]:
    """("ndcg" | "map" | "mrr", k) for a spec such as "ndcg@3"; k None
    means the whole list."""
    m = _SPEC.fullmatch(spec)
    if not m:
        raise ValueError(f"unknown metric spec {spec!r}")
    if m.group(2) in (None, "all"):
        return m.group(1) or "mrr", None
    return m.group(1), _check_k(int(m.group(2)))


def _check_k(k: int) -> int:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def tie_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in ascending id order: the tie-break rank."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def rank_order(scores: np.ndarray, tie: np.ndarray,
               pad: np.ndarray | None = None) -> np.ndarray:
    """Candidate indices in ranked order along the last axis: descending
    score, equal scores by ascending tie rank, padding last."""
    if pad is not None:
        scores = np.where(pad, -np.inf, scores)
    return np.lexsort((np.broadcast_to(tie, scores.shape), -scores), axis=-1)


class RankingKernel:
    """Padded graded lists scored in batches.

    gain_lists[q] holds query q's candidate gains and id_lists[q] their
    oer_ids for the tie-break; without id_lists, ties keep list order.
    """

    def __init__(self, gain_lists: Sequence[Sequence[int]],
                 id_lists: Sequence[Sequence[str]] | None = None):
        Q = len(gain_lists)
        C = max([len(g) for g in gain_lists] + [1])
        self.gains = np.zeros((Q, C))
        self.pad = np.ones((Q, C), dtype=bool)
        self.tie = np.full((Q, C), C, dtype=np.int64)
        for qi, g in enumerate(gain_lists):
            n = len(g)
            self.gains[qi, :n] = g
            self.pad[qi, :n] = False
            self.tie[qi, :n] = np.arange(n) if id_lists is None else tie_ranks(id_lists[qi])
        self.ranks = np.arange(1.0, C + 1.0)
        self.discounts = 1.0 / np.log2(self.ranks + 1.0)
        ideal = np.cumsum(-np.sort(-self.gains, axis=-1) * self.discounts, axis=-1)
        self.ideal_dcg = np.where(ideal > 0, ideal, np.nan)  # NaN: skipped query
        relevant = (self.gains >= RELEVANCE_THRESHOLD).sum(axis=-1)
        self.total_relevant = np.maximum(relevant, 1)  # nothing relevant: AP 0/1

    def ranked_gains(self, scores: np.ndarray) -> np.ndarray:
        order = rank_order(scores, self.tie, self.pad)
        return np.take_along_axis(np.broadcast_to(self.gains, order.shape), order, axis=-1)

    def dcg(self, g: np.ndarray, col: int) -> np.ndarray:
        """DCG of the first `col` ranked gains, summed left to right one
        column at a time (several times faster than a cumsum over a short
        last axis, with the same bits)."""
        total = g[..., 0] * self.discounts[0]
        for j in range(1, col):
            total = total + g[..., j] * self.discounts[j]
        return total

    def metric(self, g: np.ndarray, kind: str, k: int | None) -> np.ndarray:
        """Per-query values, shaped (..., Q), of one metric over ranked gains."""
        col = self.ranks.size if k is None else min(k, self.ranks.size)
        if kind == "ndcg":
            return self.dcg(g, col) / self.ideal_dcg[:, col - 1]
        rel = g >= RELEVANCE_THRESHOLD
        if kind == "mrr":
            return (rel / self.ranks).max(axis=-1)  # 1/rank of the first relevant
        precision = np.cumsum(rel[..., :col], axis=-1) / self.ranks[:col]
        hits = np.cumsum(precision * rel[..., :col], axis=-1)[..., -1]
        denom = self.total_relevant if k is None else np.minimum(self.total_relevant, k)
        return hits / denom

    def __call__(self, scores: np.ndarray, specs: Sequence[str]) -> dict[str, np.ndarray]:
        g = self.ranked_gains(scores)
        return {spec: self.metric(g, *parse_metric(spec)) for spec in specs}


# -- one-row calls: a graded list already in ranked order ---------------------

def list_metrics(grades: Sequence[int], specs: Sequence[str]) -> dict[str, float]:
    """`specs` for one list kept in its given order (equal scores, ties by
    position)."""
    kernel = RankingKernel([grades])
    values = kernel(np.zeros(kernel.gains.shape), specs)
    return {spec: float(v[0]) for spec, v in values.items()}


def dcg_at_k(grades: Sequence[int], k: int) -> float:
    kernel = RankingKernel([grades])
    return float(kernel.dcg(kernel.gains, min(_check_k(k), kernel.ranks.size))[0])


def ndcg_at_k(grades: Sequence[int], k: int) -> float | None:
    """nDCG with linear gain; None marks a skipped query (zero ideal gain)."""
    value = list_metrics(grades, [f"ndcg@{k}"]).popitem()[1]
    return None if math.isnan(value) else value


def average_precision_at_k(grades: Sequence[int], k: int) -> float:
    """AP@k with the min(total relevant, k) denominator; 0 if nothing is
    relevant anywhere in the list."""
    return list_metrics(grades, [f"map@{k}"]).popitem()[1]


def mrr(grades: Sequence[int]) -> float:
    return list_metrics(grades, ["mrr"]).popitem()[1]


def sign_test(differences: Sequence[float]) -> float:
    """One-sided paired sign test p-value for "first system beats second".

    differences are per-query (first - second); zeros are discarded. The
    p-value is P(X >= positives) for X ~ Binomial(nonzero count, 1/2);
    with no nonzero differences the test is uninformative (p = 1).
    """
    positives = sum(1 for d in differences if d > 0)
    negatives = sum(1 for d in differences if d < 0)
    n = positives + negatives
    if n == 0:
        return 1.0
    return sum(math.comb(n, i) for i in range(positives, n + 1)) / 2.0 ** n
