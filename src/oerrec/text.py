"""Tokenization and term counting shared by behavior features and text
ranking scores.

The tokenizer is deliberately rigid: lowercase, split on non-alphanumerics,
drop tokens shorter than two characters, drop a fixed stopword list. All
downstream term statistics assume this one preprocessing path.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

import numpy as np

STOPWORDS = frozenset(
    "a an and are as at be but by for from has have if in is it its "
    "no not of on or that the their these this to was were will with".split()
)

TOKEN_PATTERN = r"[0-9a-z]+"
MIN_TOKEN_LEN = 2

# The tokenizer as features.json records it under settings.tokenizer.
TOKENIZER_RECORD = {
    "lowercase": True,
    "token_pattern": TOKEN_PATTERN,
    "min_token_len": MIN_TOKEN_LEN,
    "stopwords": sorted(STOPWORDS),
}


def tokenize(text: str) -> list[str]:
    return [t for t in re.findall(TOKEN_PATTERN, text.lower())
            if len(t) >= MIN_TOKEN_LEN and t not in STOPWORDS]


def term_counts(texts: Iterable[tuple[int, str]], n_rows: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Term counts of (row, text) pairs as an (n_rows, n_terms) matrix whose
    columns are the sorted union of the terms; each text is tokenized once
    and empty texts are skipped."""
    counts = [Counter() for _ in range(n_rows)]
    for row, text in texts:
        if text:
            counts[row].update(tokenize(text))
    terms = tuple(sorted(set().union(*counts)))
    col = {t: j for j, t in enumerate(terms)}
    M = np.zeros((n_rows, len(terms)))
    for i, row_counts in enumerate(counts):
        for term, n in row_counts.items():
            M[i, col[term]] = n
    return terms, M
