"""Per-candidate ranking features: walks, text scores, type indicators."""

import numpy as np
import pytest

from conftest import graph_as_dicts
from oerrec import rankfeatures
from oerrec.cli import main as cli_main
from oerrec.corpus import read_streams
from oerrec.hetgraph import (HetGraph, default_metapaths, metapath_score, read_graph,
                             read_metapaths)
from oerrec.rankfeatures import RankFeatureExtractor, build_query_features
from oracles import oracle_bm25, oracle_lm, oracle_walk


@pytest.fixture
def corpus_graph(toy_corpus):
    """A graph over the toy corpus OERs: t1 covers graphs, t2 hashing."""
    g = HetGraph()
    g.add_vertex("p1", "paper")
    g.add_vertex("p2", "paper")
    g.add_vertex("t1", "topic", "graph")
    g.add_vertex("t2", "topic", "hash")
    for oer in toy_corpus.oers.values():
        g.add_vertex(oer.oer_id, "oer", oer.oer_type.value)
    g.add_edge("p1", "about", "t1")
    g.add_edge("p1", "about", "t2")
    g.add_edge("p2", "about", "t1")
    g.add_edge("t1", "covers", "p1")
    g.add_edge("t2", "covers", "p1")
    g.add_edge("t1", "covers", "p2")
    g.add_edge("t1", "related", "c1")
    g.add_edge("t2", "related", "v1")
    g.add_edge("t2", "related", "s1")
    g.add_edge("p1", "resource", "v1")
    g.add_edge("p2", "resource", "w1")
    return g


@pytest.fixture
def extractor(corpus_graph, toy_corpus):
    return RankFeatureExtractor(corpus_graph, default_metapaths(), toy_corpus.oers)


class TestFeatureNames:
    def test_names_fixed_order(self, extractor):
        names = extractor.feature_names
        assert len(names) == 12 + 2 + 4
        assert all(n.startswith("walk:") for n in names[:12])
        assert names[12:14] == ("lm", "bm25")
        assert names[14:] == ("type:video", "type:slides", "type:wiki", "type:code")


class TestStartVertices:
    def test_paper_always_included(self, extractor):
        assert extractor.start_vertices("p2", "") == ["p2"]

    def test_topic_included_when_label_tokens_in_quote(self, extractor):
        starts = extractor.start_vertices("p1", "a graph walk example")
        assert starts == ["p1", "t1"]
        both = extractor.start_vertices("p1", "graph hash")
        assert both == ["p1", "t1", "t2"]

    def test_unknown_paper_rejected(self, extractor):
        with pytest.raises(KeyError):
            extractor.start_vertices("p9", "graph")


class TestExtract:
    def test_unreachable_candidate_only_type_indicator(self, corpus_graph, toy_corpus):
        # z1 is a vertex with no edges and the quote's terms appear in no
        # OER body, so every graph and text feature is zero.
        oers = dict(toy_corpus.oers)
        base = oers["w1"]
        oers["z1"] = base.__class__("z1", base.oer_type, "Orphan", "orphan words")
        corpus_graph.add_vertex("z1", "oer", "wiki")
        ex = RankFeatureExtractor(corpus_graph, default_metapaths(), oers)
        (row,) = ex.extract("p1", "zzz qqq", ["z1"])
        named = dict(zip(ex.feature_names, row))
        assert named["type:wiki"] == 1.0
        named.pop("type:wiki")
        assert all(v == 0.0 for v in named.values())

    def test_walk_features_match_tour_oracle(self, extractor, corpus_graph):
        candidates = ["v1", "s1", "c1", "w1"]
        X = extractor.extract("p1", "graph hash", candidates)
        adj, payload = graph_as_dicts(corpus_graph)
        starts_by_type = {"paper": ["p1"], "topic": ["t1", "t2"]}
        for j, path in enumerate(extractor.metapaths):
            steps = [(s.edge, s.oer_type) for s in path.steps]
            scores, _ = oracle_walk(
                adj, payload, steps, starts_by_type[path.source_type]
            )
            for oer_id, row in zip(candidates, X):
                assert row[j] == pytest.approx(scores.get(oer_id, 0.0), abs=1e-12)

    def test_text_features_match_oracles(self, extractor, toy_corpus):
        quote = "hash table"
        candidates = ["v1", "s1"]
        X = extractor.extract("p1", quote, candidates)
        stats = extractor.stats
        for oer_id, row in zip(candidates, X):
            doc = extractor.doc_tokens[oer_id]
            lm_expected, _, _ = oracle_lm(
                ["hash", "table"], doc, 2000.0, stats.term_counts, stats.total_terms
            )
            bm_expected = oracle_bm25(
                ["hash", "table"], doc, 1.2, 0.75,
                stats.doc_freq, stats.n_docs, stats.avg_doc_len,
            )
            named = dict(zip(extractor.feature_names, row))
            assert named["lm"] == pytest.approx(lm_expected, abs=1e-12)
            assert named["bm25"] == pytest.approx(bm_expected, abs=1e-12)

    def test_identical_candidates_identical_vectors(self, toy_corpus, corpus_graph):
        # s2 mirrors s1 exactly: same body, same type, same edges.
        corpus_oers = dict(toy_corpus.oers)
        twin = corpus_oers["s1"].__class__(
            "s2", corpus_oers["s1"].oer_type, corpus_oers["s1"].title,
            corpus_oers["s1"].body_text,
        )
        corpus_oers["s2"] = twin
        corpus_graph.add_vertex("s2", "oer", "slides")
        corpus_graph.add_edge("t2", "related", "s2")
        ex = RankFeatureExtractor(corpus_graph, default_metapaths(), corpus_oers)
        s1, s2 = ex.extract("p1", "hash", ["s1", "s2"])
        # Walk features differ (the twin halves t2's fan-out is shared
        # equally), so compare only where connectivity is truly identical.
        assert np.array_equal(s1, s2)

    def test_unknown_candidate_rejected(self, extractor):
        with pytest.raises(KeyError):
            extractor.extract("p1", "graph", ["ghost"])

    def test_all_values_finite(self, extractor, toy_corpus):
        X = extractor.extract("p1", "graph hash table walk", list(toy_corpus.oers))
        assert X.shape == (len(toy_corpus.oers), len(extractor.feature_names))
        assert np.all(np.isfinite(X))


class TestBuildQueryFeatures:
    def test_orders_queries_and_drops_not_sure(self, extractor, toy_corpus):
        qfs = build_query_features(toy_corpus, extractor)
        # q2 keeps only its Bad judgment (w1 was NotSure); zero-gain queries
        # stay here and are skipped later by the metric layer.
        assert [q.query_id for q in qfs] == ["q1", "q2", "q3"]
        q1 = qfs[0]
        assert q1.reader_id == "r2"
        assert q1.candidates == ("v1", "c1", "s1")
        assert q1.gains.tolist() == [2, 0, 1]
        assert q1.X.shape == (3, len(extractor.feature_names))
        assert qfs[1].candidates == ("v1",)
        assert qfs[1].gains.tolist() == [0]

    def test_query_with_only_not_sure_judgments_dropped(self, extractor, toy_corpus):
        from oerrec.corpus import Corpus, Grade, JudgedQuery

        queries = dict(toy_corpus.queries)
        queries["q9"] = JudgedQuery(
            "q9", "r1", "p1", "graph", (("v1", Grade.NOT_SURE),)
        )
        corpus = Corpus(
            dict(toy_corpus.readers), dict(toy_corpus.events),
            dict(toy_corpus.oers), queries,
        )
        qfs = build_query_features(corpus, extractor)
        assert [q.query_id for q in qfs] == ["q1", "q2", "q3"]

    def test_feature_rows_match_direct_extract(self, extractor, toy_corpus):
        qfs = build_query_features(toy_corpus, extractor)
        q1 = qfs[0]
        direct = extractor.extract("p1", "hash table", list(q1.candidates))
        assert np.array_equal(q1.X, direct)


def test_rankfeat_file_round_trip(extractor, toy_corpus, tmp_path):
    queries = build_query_features(toy_corpus, extractor)
    path = tmp_path / "rankfeat.json"
    rankfeatures.write_rankfeat(path, extractor.feature_names, queries, {"seed": 1})
    names, got = rankfeatures.read_rankfeat(path)
    assert names == extractor.feature_names
    assert [(q.query_id, q.reader_id, q.candidates) for q in got] == \
        [(q.query_id, q.reader_id, q.candidates) for q in queries]
    for a, b in zip(got, queries):
        assert a.gains.dtype == np.int64 and np.array_equal(a.gains, b.gains)
        assert a.X.dtype == np.float64 and np.array_equal(a.X, b.X)


def test_each_start_set_is_walked_once(tmp_path, monkeypatch, capsys):
    """build_query_features walks each distinct (start set, meta-path) once,
    and every query's rows equal those of an extractor that has walked
    nothing before."""
    assert cli_main(["simulate", "--out", str(tmp_path), "--seed", "5",
                     "--readers", "12"]) == 0
    capsys.readouterr()
    corpus = read_streams(tmp_path, "oers.jsonl", "judgments.tsv")
    graph = read_graph(tmp_path / "vertices.tsv", tmp_path / "edges.tsv")
    paths = read_metapaths(tmp_path / "metapaths.json")
    walks = []

    def counted(graph, starts, path):
        walks.append((tuple(starts), paths.index(path)))
        return metapath_score(graph, starts, path)

    monkeypatch.setattr(rankfeatures, "metapath_score", counted)
    extractor = RankFeatureExtractor(graph, paths, corpus.oers)
    queries = build_query_features(corpus, extractor)
    assert len(walks) == len(set(walks)) < len(queries) * len(paths)

    distinct = set()
    for q in queries:
        query = corpus.queries[q.query_id]
        starts = extractor.start_vertices(query.paper_id, query.quote_text)
        for p, path in enumerate(paths):
            compatible = tuple(v for v in starts if graph.vertex_type[v] == path.source_type)
            if compatible:
                distinct.add((compatible, p))
        fresh = RankFeatureExtractor(graph, paths, corpus.oers)
        assert fresh.extract(query.paper_id, query.quote_text, q.candidates).tobytes() \
            == q.X.tobytes()
    assert set(walks) == distinct
