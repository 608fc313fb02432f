"""Typed graph construction and meta-path walk propagation."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import graph_as_dicts
from oerrec.hetgraph import (
    GraphSchemaError,
    HetGraph,
    MetaPath,
    PathStep,
    default_metapaths,
    metapath_score,
    read_graph,
    read_metapaths,
    write_graph,
    write_metapaths,
)
from oracles import oracle_walk


class TestGraphConstruction:
    def test_oer_requires_type_payload(self):
        g = HetGraph()
        with pytest.raises(GraphSchemaError):
            g.add_vertex("o1", "oer")
        g.add_vertex("o1", "oer", "video")
        assert g.payload["o1"] == "video"

    def test_unknown_vertex_type_rejected(self):
        with pytest.raises(GraphSchemaError):
            HetGraph().add_vertex("x", "author")

    def test_redeclaration_must_be_consistent(self):
        g = HetGraph()
        g.add_vertex("p1", "paper")
        g.add_vertex("p1", "paper")  # idempotent
        with pytest.raises(GraphSchemaError):
            g.add_vertex("p1", "topic", "outline")

    def test_edge_schema_enforced(self):
        g = HetGraph()
        g.add_vertex("p1", "paper")
        g.add_vertex("t1", "topic", "graphs")
        g.add_vertex("o1", "oer", "video")
        g.add_edge("p1", "about", "t1")
        with pytest.raises(GraphSchemaError):
            g.add_edge("t1", "about", "p1")  # about goes paper -> topic
        with pytest.raises(GraphSchemaError):
            g.add_edge("p1", "related", "o1")  # related goes topic -> oer
        with pytest.raises(GraphSchemaError):
            g.add_edge("p1", "cites", "t1")

    def test_endpoints_must_exist(self):
        g = HetGraph()
        g.add_vertex("p1", "paper")
        with pytest.raises(GraphSchemaError):
            g.add_edge("p1", "about", "ghost")

    def test_out_and_vertices_sorted(self, toy_graph):
        assert toy_graph.out("t1", "related") == ["o1", "o2"]
        assert toy_graph.vertices("oer") == ["o1", "o2", "o3"]
        assert toy_graph.vertices() == sorted(toy_graph.vertex_type)


class TestMetaPathValidation:
    def test_steps_must_chain_types(self):
        with pytest.raises(GraphSchemaError):
            # about ends on a topic; resource starts from a paper.
            MetaPath((PathStep("about", "topic"), PathStep("resource", "oer")))

    def test_to_must_match_schema(self):
        with pytest.raises(GraphSchemaError):
            MetaPath((PathStep("about", "paper"),))

    def test_unknown_edge_rejected(self):
        with pytest.raises(GraphSchemaError):
            MetaPath((PathStep("links", "topic"),))

    def test_type_filter_only_on_oer_step(self):
        with pytest.raises(GraphSchemaError):
            MetaPath((PathStep("about", "topic", oer_type="video"),))
        with pytest.raises(GraphSchemaError):
            MetaPath(
                (PathStep("about", "topic"),
                 PathStep("related", "oer", oer_type="video"),
                 PathStep("covers", "paper"))
            )

    def test_signature_and_source(self):
        mp = MetaPath(
            (PathStep("about", "topic"), PathStep("related", "oer", "video"))
        )
        assert mp.signature() == "about>topic,related>oer:video"
        assert mp.source_type == "paper"
        assert MetaPath(()).signature() == "identity"

    def test_json_round_trip(self):
        for mp in default_metapaths():
            assert MetaPath.from_json(mp.to_json()) == mp


class TestWalks:
    def test_empty_path_uniform_over_starts(self, toy_graph):
        result = metapath_score(toy_graph, ["p1", "p2"], MetaPath(()))
        assert result.scores == {"p1": 0.5, "p2": 0.5}
        assert result.absorbed == 0.0

    def test_star_splits_uniformly(self):
        g = HetGraph()
        g.add_vertex("t1", "topic", "x")
        for i in range(3):
            g.add_vertex(f"o{i}", "oer", "video")
            g.add_edge("t1", "related", f"o{i}")
        result = metapath_score(g, ["t1"], MetaPath((PathStep("related", "oer"),)))
        assert result.scores == pytest.approx({f"o{i}": 1 / 3 for i in range(3)})
        assert result.total() == pytest.approx(1.0, abs=1e-12)

    def test_two_hop_matches_tour_enumeration(self, toy_graph):
        mp = MetaPath((PathStep("about", "topic"), PathStep("related", "oer")))
        result = metapath_score(toy_graph, ["p1"], mp)
        adj, payload = graph_as_dicts(toy_graph)
        scores, absorbed = oracle_walk(
            adj, payload, [("about", None), ("related", None)], ["p1"]
        )
        assert result.scores == pytest.approx(scores, abs=1e-12)
        assert result.absorbed == pytest.approx(absorbed, abs=1e-12)
        # Hand values: p1 -> {t1, t2} (1/2 each); t1 -> {o1, o2} (1/4 each);
        # t2 -> {o2, o3} (1/4 each), so o2 accumulates from both topics.
        assert result.scores == pytest.approx(
            {"o1": 0.25, "o2": 0.5, "o3": 0.25}, abs=1e-12
        )

    def test_type_filter_redirects_mass(self, toy_graph):
        mp = MetaPath(
            (PathStep("about", "topic"), PathStep("related", "oer", "video"))
        )
        result = metapath_score(toy_graph, ["p1"], mp)
        # t1's only video is o1; t2's only video is o3.
        assert result.scores == pytest.approx({"o1": 0.5, "o3": 0.5}, abs=1e-12)

    def test_dead_end_mass_absorbed(self, toy_graph):
        mp = MetaPath(
            (PathStep("about", "topic"), PathStep("related", "oer", "wiki"))
        )
        result = metapath_score(toy_graph, ["p1"], mp)
        assert result.scores == {}
        assert result.absorbed == pytest.approx(1.0, abs=1e-12)

    def test_start_vertices_deduplicated(self, toy_graph):
        mp = MetaPath((PathStep("about", "topic"),))
        a = metapath_score(toy_graph, ["p1", "p1"], mp)
        b = metapath_score(toy_graph, ["p1"], mp)
        assert a.scores == b.scores

    def test_incompatible_start_type_rejected(self, toy_graph):
        mp = MetaPath((PathStep("related", "oer"),))  # starts from a topic
        with pytest.raises(GraphSchemaError):
            metapath_score(toy_graph, ["p1"], mp)

    def test_empty_starts_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            metapath_score(toy_graph, [], MetaPath(()))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mass_conservation_on_random_graphs(self, seed):
        import random

        g = random.Random(seed)
        graph = HetGraph()
        papers = [f"p{i}" for i in range(g.randint(1, 4))]
        topics = [f"t{i}" for i in range(g.randint(1, 4))]
        oers = [f"o{i}" for i in range(g.randint(1, 6))]
        types = ["video", "slides", "wiki", "code"]
        for p in papers:
            graph.add_vertex(p, "paper")
        for t in topics:
            graph.add_vertex(t, "topic", "tok")
        for o in oers:
            graph.add_vertex(o, "oer", g.choice(types))
        for p in papers:
            for t in topics:
                if g.random() < 0.5:
                    graph.add_edge(p, "about", t)
                if g.random() < 0.5:
                    graph.add_edge(t, "covers", p)
            for o in oers:
                if g.random() < 0.3:
                    graph.add_edge(p, "resource", o)
        for t in topics:
            for o in oers:
                if g.random() < 0.4:
                    graph.add_edge(t, "related", o)
        mp = g.choice(default_metapaths())
        starts = papers if mp.source_type == "paper" else topics
        result = metapath_score(graph, starts, mp)
        assert result.total() == pytest.approx(1.0, abs=1e-12)
        assert all(v > 0 for v in result.scores.values())


class TestDefaultMetapaths:
    def test_twelve_unique_templates(self):
        paths = default_metapaths()
        assert len(paths) == 12
        sigs = [p.signature() for p in paths]
        assert len(set(sigs)) == 12
        # Every OER type appears with every template family.
        for t in ("video", "slides", "wiki", "code"):
            assert sum(1 for s in sigs if s.endswith(f":{t}")) == 3


class TestGraphIO:
    def test_graph_round_trip_with_comment(self, toy_graph, tmp_path):
        vp, ep = tmp_path / "vertices.tsv", tmp_path / "edges.tsv"
        write_graph(toy_graph, vp, ep, meta={"config_hash": "x", "seed": 0, "stage": "s"})
        for path in (vp, ep):
            assert path.read_text().splitlines()[1] == "# config_hash=x seed=0 stage=s"
        again = read_graph(vp, ep)
        assert again.vertex_type == toy_graph.vertex_type
        assert again.payload == toy_graph.payload
        assert graph_as_dicts(again) == graph_as_dicts(toy_graph)

    def test_metapaths_round_trip_bare_and_wrapped(self, tmp_path):
        """write_metapaths writes the object form; a hand-written bare list
        stays an accepted input."""
        paths = default_metapaths()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([p.to_json() for p in paths]))
        assert read_metapaths(bare) == paths
        wrapped = tmp_path / "wrapped.json"
        meta = {"config_hash": "x", "seed": 0, "stage": "graph-build"}
        write_metapaths(paths, wrapped, meta)
        assert read_metapaths(wrapped) == paths
        written = json.loads(wrapped.read_text())
        assert list(written) == ["_meta", "metapaths"]
        assert written["_meta"] == meta
