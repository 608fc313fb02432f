"""Synthetic corpus generator: determinism, planted structure, artifacts."""

import itertools
import json

import pytest

from oerrec.corpus import (
    serialize_events,
    serialize_judgments,
    serialize_oers,
    serialize_readers,
    validate_corpus,
)
from oerrec.features import combine_groups, extract_features, RPF_GROUPS
from oerrec.community import cluster_readers, pairwise_cluster_eval
from oerrec.simgen import (
    SimConfig,
    generate,
    write_simulation,
)

SMALL = SimConfig(n_readers=12, n_communities=3, events_per_reader=4.0,
                  queries_per_reader=2.0, seed=2)
META = {"config_hash": "abc", "seed": 2, "stage": "simulate", "overrides": {}}


def corpus_bytes(corpus):
    return {
        "readers.jsonl": serialize_readers(corpus).encode(),
        "events.jsonl": serialize_events(corpus).encode(),
        "oers.jsonl": serialize_oers(corpus).encode(),
        "judgments.tsv": serialize_judgments(corpus).encode(),
    }


class TestSimConfig:
    def test_defaults_are_valid(self):
        SimConfig().validate()

    @pytest.mark.parametrize("bad", [
        {"n_readers": -1},
        {"n_communities": 0},
        {"alpha": 1.5},
        {"grade_noise": -0.1},
        {"events_per_reader": 0.0},
        {"oers_per_type": {"video": 0}},
        {"oers_per_type": {"movie": 3}},
        {"preferred_types": ("movie",)},
        {"n_readers": 2, "n_communities": 3},
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            SimConfig(**bad).validate()

    def test_dict_round_trip(self):
        cfg = SimConfig(n_readers=7, alpha=0.5, preferred_types=("code",))
        assert SimConfig.from_dict(cfg.to_dict()) == cfg


class TestDeterminism:
    def test_same_seed_gives_byte_identical_corpus(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert corpus_bytes(a.corpus) == corpus_bytes(b.corpus)
        assert a.latent == b.latent

    def test_different_seed_changes_the_corpus(self):
        a = generate(SMALL)
        b = generate(SimConfig(**{**SMALL.__dict__, "seed": 3}))
        assert corpus_bytes(a.corpus) != corpus_bytes(b.corpus)

    def test_graph_is_seed_stable(self):
        a, b = generate(SMALL), generate(SMALL)
        assert a.graph.vertex_type == b.graph.vertex_type
        for v in a.graph.vertex_type:
            for edge in ("about", "covers", "related", "resource"):
                try:
                    outs_a = a.graph.out(v, edge)
                except Exception:
                    continue
                assert outs_a == b.graph.out(v, edge)


class TestGeneratedStructure:
    def test_empty_when_no_readers(self):
        result = generate(SimConfig(n_readers=0))
        assert not result.corpus.readers
        assert not result.corpus.events
        assert not result.corpus.queries
        assert result.latent == {}
        assert list(result.graph.vertices()) == []

    def test_latent_labels_cycle_over_communities(self):
        result = generate(SMALL)
        assert result.latent == {f"r{i:03d}": i % 3 for i in range(12)}

    def test_corpus_passes_validation(self):
        result = generate(SMALL)
        report = validate_corpus(result.corpus)
        assert report["consistent"], [i["message"] for i in report["issues"]]

    def test_all_readers_have_profiles(self):
        result = generate(SMALL)
        assert set(result.corpus.readers) == set(result.latent)
        assert all(p.has_rpf for p in result.corpus.readers.values())

    def test_oer_counts_match_config(self):
        result = generate(SMALL)
        by_type = {}
        for oer in result.corpus.oers.values():
            by_type[oer.oer_type.value] = by_type.get(oer.oer_type.value, 0) + 1
        assert by_type == dict(SMALL.oers_per_type)

    def test_graph_covers_papers_topics_and_oers(self):
        result = generate(SMALL)
        types = {}
        for v in result.graph.vertices():
            t = result.graph.vertex_type[v]
            types[t] = types.get(t, 0) + 1
        assert types["paper"] == SMALL.n_papers
        assert types["topic"] == SMALL.n_topics
        assert types["oer"] == sum(SMALL.oers_per_type.values())

    def test_queries_have_judged_candidates(self):
        result = generate(SMALL)
        assert result.corpus.queries
        for q in result.corpus.queries.values():
            assert q.reader_id in result.corpus.readers
            assert 1 <= len(q.judgments) <= SMALL.candidates_per_query
            for oer_id, _ in q.judgments:
                assert oer_id in result.corpus.oers


class TestSeparationAtAlphaOne:
    CFG = SimConfig(n_readers=12, n_communities=3, alpha=1.0, grade_noise=0.0,
                    events_per_reader=4.0, queries_per_reader=2.0, seed=0)

    def test_replies_never_cross_communities(self):
        result = generate(self.CFG)
        assert result.corpus.reply_pairs()
        for pair in result.corpus.reply_pairs():
            a, b = sorted(pair)
            assert result.latent[a] == result.latent[b]

    def test_reply_components_equal_community_count(self):
        result = generate(self.CFG)
        parent = {r: r for r in result.corpus.readers}  # union-find

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for pair in result.corpus.reply_pairs():
            a, b = sorted(pair)
            parent[find(a)] = find(b)
        assert len({find(r) for r in parent}) == 3

    def test_profile_clustering_recovers_planted_labels(self):
        result = generate(self.CFG)
        fm = extract_features(result.corpus)
        clustering = cluster_readers(fm.reader_ids, combine_groups(fm, RPF_GROUPS),
                                     k=3, seed=0)
        truth = {
            frozenset((a, b))
            for a, b in itertools.combinations(sorted(result.latent), 2)
            if result.latent[a] == result.latent[b]
        }
        scores = pairwise_cluster_eval(clustering.assignment, truth)
        assert scores["f1"] == pytest.approx(1.0, abs=1e-12)


class TestArtifacts:
    def test_write_simulation_emits_all_files(self, tmp_path):
        write_simulation(SMALL, generate(SMALL), tmp_path, META)
        expected = {"readers.jsonl", "events.jsonl", "oers.jsonl",
                    "judgments.tsv", "latent.tsv", "vertices.tsv",
                    "edges.tsv", "metapaths.json", "sim_config.json"}
        names = {p.name for p in tmp_path.iterdir()}
        assert expected <= names

    def test_latent_file_round_trips(self, tmp_path):
        write_simulation(SMALL, generate(SMALL), tmp_path, META)
        lines = (tmp_path / "latent.tsv").read_text().splitlines()
        assert lines[0] == "# reader_id\tcommunity"
        assert lines[1] == "# config_hash=abc seed=2 stage=simulate"
        rows = [line.split("\t") for line in lines[2:]]
        assert {r: int(c) for r, c in rows} == generate(SMALL).latent

    def test_corpus_streams_byte_match_in_memory_serialization(self, tmp_path):
        write_simulation(SMALL, generate(SMALL), tmp_path, META)
        expected = corpus_bytes(generate(SMALL).corpus)
        for name, blob in expected.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_sim_config_echo_carries_meta(self, tmp_path):
        """sim_config.json holds the full SimConfig under the run's record,
        and so does every other file but the corpus streams."""
        write_simulation(SMALL, generate(SMALL), tmp_path, META)
        echo = json.loads((tmp_path / "sim_config.json").read_text())
        assert echo == {"_meta": META, **json.loads(json.dumps(SMALL.to_dict()))}
        assert json.loads((tmp_path / "metapaths.json").read_text())["_meta"] == META
        for name in ("vertices.tsv", "edges.tsv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[1] == "# config_hash=abc seed=2 stage=simulate"
