"""Per-candidate ranking features for a highlighted-passage query: one
meta-path walk score per configured path, two text scores, and four OER-type
indicators, in a fixed order shared by training and inference; and
rankfeat.json, which carries them from `rankfeat` to `train-ranker` and
`evaluate`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, OerItem, OerType
from .hetgraph import HetGraph, MetaPath, WalkResult, metapath_score
from .retrieval import CollectionStats, bm25_score, lm_score
from .text import tokenize
from .util import dump_json, load_json

# Keeps the language-model feature finite when mu=0 degenerates the
# log-likelihood; min-max normalization later maps it to the bottom of the
# feature range.
LM_FLOOR = -1e6


@dataclass
class QueryFeatures:
    """One judged query: candidate ids, their gains and raw feature rows."""

    query_id: str
    reader_id: str
    candidates: tuple[str, ...]
    gains: np.ndarray  # (n,) ints in {0,1,2}
    X: np.ndarray  # (n, d) raw feature values


class RankFeatureExtractor:
    def __init__(
        self,
        graph: HetGraph,
        metapaths: list[MetaPath],
        oers: dict[str, OerItem],
        mu: float = 2000.0,
        k1: float = 1.2,
        b: float = 0.75,
    ):
        self.graph = graph
        self.metapaths = list(metapaths)
        self.oers = dict(oers)
        self.mu, self.k1, self.b = mu, k1, b
        self.doc_tokens = {o.oer_id: tokenize(o.body_text) for o in oers.values()}
        self.stats = CollectionStats.build(self.doc_tokens[o] for o in sorted(self.doc_tokens))
        self.topic_tokens = {
            t: frozenset(tokenize(graph.payload[t]))
            for t in graph.vertices("topic")
        }
        # (compatible start vertices, meta-path index) -> walk: a walk
        # depends on nothing else, and queries share few start sets
        self._walks: dict[tuple[tuple[str, ...], int], WalkResult] = {}
        self.feature_names: tuple[str, ...] = tuple(
            [f"walk:{p.signature()}" for p in self.metapaths]
            + ["lm", "bm25"]
            + [f"type:{t.value}" for t in OerType]
        )

    def start_vertices(self, paper_id: str, quote_text: str) -> list[str]:
        """The query's paper vertex plus every topic whose label terms all
        occur in the quote."""
        if self.graph.vertex_type.get(paper_id) != "paper":
            raise KeyError(f"unknown paper {paper_id!r}")
        query = set(tokenize(quote_text))
        starts = [paper_id]
        for topic, terms in sorted(self.topic_tokens.items()):
            if terms and terms <= query:
                starts.append(topic)
        return starts

    def extract(self, paper_id: str, quote_text: str, candidates) -> np.ndarray:
        """Raw feature rows (n, d) of the candidates, columns in
        `feature_names` order."""
        candidates = list(candidates)
        for c in candidates:
            if c not in self.oers:
                raise KeyError(f"unknown candidate OER {c!r}")
        starts = self.start_vertices(paper_id, quote_text)
        n, d = len(candidates), len(self.feature_names)
        X = np.zeros((n, d))

        col = 0
        for p, path in enumerate(self.metapaths):
            compatible = tuple(v for v in starts if self.graph.vertex_type[v] == path.source_type)
            if compatible:
                walk = self._walks.get((compatible, p))
                if walk is None:
                    walk = self._walks[compatible, p] = metapath_score(
                        self.graph, compatible, path)
                for i, c in enumerate(candidates):
                    X[i, col] = walk.scores.get(c, 0.0)
            col += 1

        query_terms = tokenize(quote_text)
        for i, c in enumerate(candidates):
            doc = self.doc_tokens[c]
            X[i, col] = max(lm_score(query_terms, doc, self.mu, self.stats), LM_FLOOR)
            X[i, col + 1] = bm25_score(query_terms, doc, self.k1, self.b, self.stats)
        col += 2

        for j, t in enumerate(OerType):
            for i, c in enumerate(candidates):
                if self.oers[c].oer_type is t:
                    X[i, col + j] = 1.0

        assert np.all(np.isfinite(X))
        return X


def build_query_features(
    corpus: Corpus,
    extractor: RankFeatureExtractor,
) -> list[QueryFeatures]:
    """Feature rows for every judged query, NotSure judgments dropped.

    Queries ordered by query_id; candidate order follows the judgment file.
    """
    out = []
    for query_id in sorted(corpus.queries):
        q = corpus.queries[query_id]
        graded = q.graded_candidates()
        if not graded:
            continue
        candidates = tuple(oer for oer, _ in graded)
        gains = np.array([g for _, g in graded], dtype=np.int64)
        X = extractor.extract(q.paper_id, q.quote_text, candidates)
        out.append(QueryFeatures(query_id, q.reader_id, candidates, gains, X))
    return out


# -- rankfeat.json -------------------------------------------------------

def write_rankfeat(path, feature_names: tuple[str, ...], queries: list[QueryFeatures],
                   meta: dict) -> None:
    dump_json(path, {
        "feature_names": list(feature_names),
        "queries": [
            {"query_id": q.query_id, "reader_id": q.reader_id,
             "candidates": list(q.candidates), "gains": q.gains.tolist(),
             "X": q.X.tolist()}
            for q in queries
        ],
    }, meta)


def read_rankfeat(path) -> tuple[tuple[str, ...], list[QueryFeatures]]:
    d = load_json(path)
    queries = [
        QueryFeatures(q["query_id"], q["reader_id"], tuple(q["candidates"]),
                      np.asarray(q["gains"], dtype=np.int64),
                      np.asarray(q["X"], dtype=np.float64))
        for q in d["queries"]
    ]
    return tuple(d["feature_names"]), queries
