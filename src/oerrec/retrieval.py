"""Text ranking scores over OER bodies: Dirichlet-smoothed query likelihood
and BM25, both over the shared tokenizer."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class CollectionStats:
    """Corpus-level term statistics over all OER bodies."""

    term_counts: Counter[str] = field(default_factory=Counter)  # collection frequency
    doc_freq: Counter[str] = field(default_factory=Counter)
    n_docs: int = 0
    total_terms: int = 0

    @property
    def avg_doc_len(self) -> float:
        return self.total_terms / self.n_docs if self.n_docs else 0.0

    def p_collection(self, term: str) -> float:
        if self.total_terms == 0:
            return 0.0
        return self.term_counts.get(term, 0) / self.total_terms

    @classmethod
    def build(cls, docs: Iterable[list[str]]) -> "CollectionStats":
        stats = cls()
        for tokens in docs:
            stats.n_docs += 1
            stats.total_terms += len(tokens)
            stats.term_counts.update(tokens)
            stats.doc_freq.update(set(tokens))
        return stats


def lm_score(
    query_terms: list[str],
    doc_terms: list[str],
    mu: float,
    stats: CollectionStats,
) -> float:
    """Dirichlet-smoothed query log-likelihood.

    sum over query terms of log((tf + mu * p(t|C)) / (|d| + mu)). Terms
    absent from the whole collection are skipped; a zero numerator or
    denominator (only possible with mu = 0) yields -inf.
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if not query_terms:
        return 0.0
    tf = Counter(doc_terms)
    dlen = len(doc_terms)

    score = 0.0
    for term in query_terms:
        p_c = stats.p_collection(term)
        if p_c == 0.0:
            continue
        numerator = tf[term] + mu * p_c
        denominator = dlen + mu
        if numerator <= 0.0 or denominator <= 0.0:
            return float("-inf")
        score += math.log(numerator / denominator)
    return score


def bm25_score(
    query_terms: list[str],
    doc_terms: list[str],
    k1: float,
    b: float,
    stats: CollectionStats,
) -> float:
    """BM25 with idf = log((N - df + 0.5) / (df + 0.5) + 1); repeated query
    terms contribute once per occurrence."""
    if k1 <= 0:
        raise ValueError(f"k1 must be > 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0,1], got {b}")
    tf = Counter(doc_terms)
    dlen = len(doc_terms)
    avgdl = stats.avg_doc_len

    score = 0.0
    for term in query_terms:
        f = tf[term]
        if f == 0:
            continue
        df = stats.doc_freq.get(term, 0)
        idf = math.log((stats.n_docs - df + 0.5) / (df + 0.5) + 1.0)
        length_norm = 1.0 - b + b * (dlen / avgdl) if avgdl > 0 else 1.0 - b
        score += idf * (f * (k1 + 1.0)) / (f + k1 * length_norm)
    return score
