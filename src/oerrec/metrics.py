"""Ranking metrics over graded lists: nDCG@k, MAP@k, MRR, and a paired sign
test for system comparisons.

`RankingKernel` is the one implementation of the ranking metrics: scores
shaped (..., Q, C) over Q padded lists of at most C candidates are ordered
by `rank_order` and scored per query. `RankingKernel.layout` is the one
candidate layout (ascending oer_id order, `id_order`, zero-padded), so a
stable sort on descending score breaks ties by ascending oer_id. Gains,
training features and CV scores all go through it, `ranker.rank` is its
one-row case, and the scalar functions are one-row calls into the kernel.
Positions are summed left to right up to column min(k, C), so padding,
which sorts last with gain 0, leaves every value bit-identical.

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


def id_order(ids: Sequence[str]) -> list[int]:
    """Indices of `ids` in ascending id order: the column layout of a kernel
    row, so that column position is the tie-break rank."""
    return sorted(range(len(ids)), key=ids.__getitem__)


def rank_order(scores: np.ndarray, pad_inf: np.ndarray | float = 0.0) -> np.ndarray:
    """Column indices in ranked order along the last axis, for candidates
    laid out in ascending oer_id order: descending score, equal scores by
    ascending oer_id, padding (+inf in `pad_inf`, 0 elsewhere) last.

    The sort must be stable: position is the tie-break.
    """
    return np.argsort(pad_inf - scores, axis=-1, kind="stable")


class RankingKernel:
    """Padded graded lists scored in batches.

    gain_lists[q] holds query q's candidate gains and id_lists[q] their
    oer_ids; `layout` puts row q in the order `columns[q]` (ascending
    oer_id), so candidate `columns[q][c]` sits in column c. Without
    id_lists, rows keep list order and ties keep it too.
    """

    def __init__(self, gain_lists: Sequence[Sequence[int]],
                 id_lists: Sequence[Sequence[str]] | None = None):
        lengths = np.array([len(g) for g in gain_lists], dtype=np.int64)
        self.columns = [list(range(len(g))) if id_lists is None else id_order(id_lists[qi])
                        for qi, g in enumerate(gain_lists)]
        self.ranks = np.arange(1.0, max(lengths.max(initial=0), 1) + 1.0)
        self.gains = self.layout(gain_lists)
        self.pad_inf = np.where(self.ranks <= lengths[:, None], 0.0, np.inf)
        self.discounts = 1.0 / np.log2(self.ranks + 1.0)
        ideal = np.cumsum(-np.sort(-self.gains, axis=-1) * self.discounts, axis=-1)
        self.ideal_dcg = np.where(ideal > 0, ideal, np.nan)  # NaN: skipped query
        relevant = (self.gains >= RELEVANCE_THRESHOLD).sum(axis=-1)
        self.total_relevant = np.maximum(relevant, 1)  # nothing relevant: AP 0/1

    def layout(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """Per-query arrays in candidate order, shaped (n_q,) or (n_q, d),
        as one zero-padded (Q, C, ...) array in column order; (0, C) for Q = 0."""
        trailing = np.shape(rows[0])[1:] if len(rows) else ()
        out = np.zeros((len(self.columns), self.ranks.size) + trailing)
        for qi, row in enumerate(rows):
            out[qi, :len(row)] = np.asarray(row, dtype=np.float64)[self.columns[qi]]
        return out

    def rows(self, index: np.ndarray) -> "RankingKernel":
        """The kernel over rows `index` (integer indices) at the same width
        C, so each row scores bit for bit as it does in the full kernel.
        Its rows come laid out, so it has no `columns`."""
        sub = object.__new__(RankingKernel)
        sub.ranks, sub.discounts = self.ranks, self.discounts
        for name in ("gains", "pad_inf", "ideal_dcg", "total_relevant"):
            setattr(sub, name, getattr(self, name).take(index, axis=0))
        return sub

    def width(self, kind: str, k: int | None) -> int:
        """Ranked columns a metric reads: min(k, C) for nDCG@k and MAP@k,
        all C for MRR and @all."""
        C = self.ranks.size
        return C if kind == "mrr" or k is None else min(k, C)

    def ranked_gains(self, scores: np.ndarray, width: int | None = None) -> np.ndarray:
        """Gains in ranked order for scores (..., Q, C), the first `width`
        ranked columns only when given."""
        order = rank_order(scores, self.pad_inf)[..., :width]
        Q, C = self.gains.shape
        # flat indices into gains: a plain take, several times faster than
        # take_along_axis on these short rows
        return self.gains.take(order + np.arange(0, Q * C, C)[:, None])

    def dcg(self, g: np.ndarray, col: int) -> np.ndarray:
        """DCG of the first `col` ranked gains, summed left to right one
        column at a time (several times faster than a cumsum over a short
        last axis, with the same bits)."""
        total = g[..., 0] * self.discounts[0]
        for j in range(1, col):
            total = total + g[..., j] * self.discounts[j]
        return total

    def metric(self, g: np.ndarray, kind: str, k: int | None) -> np.ndarray:
        """Per-query values, shaped (..., Q), of one metric over ranked gains
        at least `width(kind, k)` columns wide."""
        col = self.width(kind, k)
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
