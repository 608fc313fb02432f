"""Tokenizer and term-count behavior."""

import numpy as np
from hypothesis import given, strategies as st

from oerrec.text import MIN_TOKEN_LEN, STOPWORDS, term_counts, tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Graph WALK graph") == ["graph", "walk", "graph"]

    def test_stopwords_removed(self):
        assert tokenize("the graph and the walk") == ["graph", "walk"]

    def test_min_length_filter(self):
        assert tokenize("a b cd efg") == ["cd", "efg"]

    def test_digits_kept(self):
        assert tokenize("bm25 scoring") == ["bm25", "scoring"]

    def test_punctuation_is_a_separator(self):
        assert tokenize("graph-walk, hash.table") == ["graph", "walk", "hash", "table"]

    def test_empty_text(self):
        assert tokenize("") == []

    @given(st.text(max_size=80))
    def test_tokens_match_settings(self, text):
        for tok in tokenize(text):
            assert len(tok) >= MIN_TOKEN_LEN
            assert tok not in STOPWORDS
            assert tok == tok.lower()


class TestVocabulary:
    """term_counts: one row per reader, columns the sorted union of terms."""

    def test_terms_sorted_and_dense(self):
        terms, M = term_counts([(0, "walk graph"), (1, "graph hash")], 2)
        assert terms == ("graph", "hash", "walk")
        assert np.array_equal(M, np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))

    def test_tf_vector_counts_occurrences(self):
        terms, M = term_counts([(0, "graph graph walk"), (0, "walk the"), (2, "")], 3)
        assert terms == ("graph", "walk")
        assert np.array_equal(M, np.array([[2.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))

    def test_no_texts_no_columns(self):
        terms, M = term_counts([(0, ""), (1, "the a")], 2)
        assert terms == ()
        assert M.shape == (2, 0)

    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.sampled_from(["graph walk", "hash table", "net", ""])),
                    max_size=5))
    def test_build_deterministic(self, texts):
        terms, M = term_counts(texts, 3)
        again_terms, again = term_counts(iter(list(texts)), 3)
        assert terms == again_terms and np.array_equal(M, again)
        assert M.sum() == sum(len(tokenize(t)) for _, t in texts)
