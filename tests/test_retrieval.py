"""Dirichlet-smoothed query likelihood and BM25 scoring."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oerrec import retrieval
from oerrec.retrieval import CollectionStats, DocTerms
from oracles import oracle_bm25, oracle_lm

WORDS = ["graph", "walk", "hash", "table", "net", "index"]


def stats_of(docs):
    return CollectionStats.build([d.split() for d in docs])


def lm_score(query, doc, mu, stats):
    (score,) = retrieval.lm_score(query, [DocTerms.of(doc)], mu, stats)
    return score


def bm25_score(query, doc, k1, b, stats):
    (score,) = retrieval.bm25_score(query, [DocTerms.of(doc)], k1, b, stats)
    return score


class TestCollectionStats:
    def test_counts(self):
        stats = stats_of(["graph walk graph", "walk net"])
        assert stats.term_counts == {"graph": 2, "walk": 2, "net": 1}
        assert stats.doc_freq == {"graph": 1, "walk": 2, "net": 1}
        assert stats.n_docs == 2
        assert stats.total_terms == 5
        assert stats.avg_doc_len == 2.5
        assert stats.p_collection("graph") == pytest.approx(2 / 5)
        assert stats.p_collection("ghost") == 0.0


class TestLmScore:
    def test_unsmoothed_maximum_likelihood(self):
        stats = stats_of(["graph walk graph"])
        score = lm_score(["graph"], "graph walk graph".split(), 0.0, stats)
        assert score == pytest.approx(math.log(2 / 3), abs=1e-12)
        assert score == pytest.approx(-0.40546510810816444, abs=1e-12)

    def test_dirichlet_hand_case(self):
        # mu=1, |d|=3, tf=2, p(q|C)=0.5 -> log(2.5/4).
        stats = CollectionStats(
            term_counts={"graph": 2, "walk": 2},
            doc_freq={"graph": 1, "walk": 1},
            n_docs=1,
            total_terms=4,
        )
        score = lm_score(["graph"], ["graph", "graph", "walk"], 1.0, stats)
        assert score == pytest.approx(math.log(2.5 / 4), abs=1e-12)
        assert score == pytest.approx(-0.4700036292457356, abs=1e-12)

    def test_empty_query_is_zero(self):
        stats = stats_of(["graph walk"])
        assert lm_score([], ["graph"], 2000.0, stats) == 0.0

    def test_unknown_terms_skipped(self):
        stats = stats_of(["graph walk"])
        score = lm_score(["graph", "ghost", "phantom"], ["graph"], 10.0, stats)
        assert score == lm_score(["graph"], ["graph"], 10.0, stats)

    def test_mu_zero_absent_term_degenerates(self):
        stats = stats_of(["graph walk"])
        assert lm_score(["walk"], ["graph"], 0.0, stats) == -math.inf

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            lm_score(["x"], ["x"], -1.0, stats_of(["x"]))

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=5),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
        st.floats(min_value=0.5, max_value=5000.0),
    )
    def test_matches_oracle(self, query, doc, mu):
        docs = ["graph walk hash graph", "table net walk", "index hash"]
        stats = stats_of(docs)
        expected, _, _ = oracle_lm(query, doc, mu, stats.term_counts, stats.total_terms)
        assert lm_score(query, doc, mu, stats) == pytest.approx(expected, abs=1e-12)


class TestManyDocuments:
    DOCS = ["graph walk hash graph", "table net walk", "index hash", ""]

    @pytest.mark.parametrize("mu", [0.0, 10.0])
    def test_lm_scores_each_document_as_alone(self, mu):
        stats = stats_of(self.DOCS)
        query = ["graph", "hash", "ghost", "graph"]
        docs = [DocTerms.of(d.split()) for d in self.DOCS]
        assert retrieval.lm_score(query, docs, mu, stats) == [
            lm_score(query, d.split(), mu, stats) for d in self.DOCS]

    def test_bm25_scores_each_document_as_alone(self):
        stats = stats_of(self.DOCS)
        query = ["walk", "net", "ghost", "walk"]
        docs = [DocTerms.of(d.split()) for d in self.DOCS]
        assert retrieval.bm25_score(query, docs, 1.2, 0.75, stats) == [
            bm25_score(query, d.split(), 1.2, 0.75, stats) for d in self.DOCS]


class TestBm25:
    def test_absent_term_contributes_zero(self):
        stats = stats_of(["graph walk", "hash table"])
        assert bm25_score(["ghost"], ["graph", "walk"], 1.2, 0.75, stats) == 0.0

    def test_doc_at_average_length_collapses_to_idf(self):
        stats = stats_of(["graph walk", "hash walk"])
        score = bm25_score(["graph"], ["graph", "table"], 1.2, 0.75, stats)
        idf = math.log((2 - 1 + 0.5) / (1 + 0.5) + 1.0)
        assert score == pytest.approx(idf, abs=1e-12)

    def test_identical_query_and_single_doc(self):
        doc = ["graph", "walk"]
        stats = stats_of(["graph walk"])
        score = bm25_score(["graph", "walk"], doc, 1.2, 0.75, stats)
        idf = math.log((1 - 1 + 0.5) / (1 + 0.5) + 1.0)
        per_term = idf * (1 * 2.2) / (1 + 1.2 * 1.0)
        assert score == pytest.approx(2 * per_term, abs=1e-12)

    def test_repeated_query_terms_count_twice(self):
        stats = stats_of(["graph walk", "hash net"])
        one = bm25_score(["graph"], ["graph"], 1.2, 0.75, stats)
        two = bm25_score(["graph", "graph"], ["graph"], 1.2, 0.75, stats)
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_parameter_validation(self):
        stats = stats_of(["x"])
        with pytest.raises(ValueError):
            bm25_score(["x"], ["x"], 0.0, 0.75, stats)
        with pytest.raises(ValueError):
            bm25_score(["x"], ["x"], 1.2, 1.5, stats)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=5),
        st.lists(st.sampled_from(WORDS), min_size=0, max_size=8),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_oracle(self, query, doc, k1, b):
        docs = ["graph walk hash graph", "table net walk", "index hash"]
        stats = stats_of(docs)
        assert bm25_score(query, doc, k1, b, stats) == pytest.approx(
            oracle_bm25(
                query, doc, k1, b, stats.doc_freq, stats.n_docs, stats.avg_doc_len
            ),
            abs=1e-12,
        )
