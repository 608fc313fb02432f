"""Reader clustering, pairwise evaluation, and the CLI's two-step
assignment of readers without a profile."""

import json
import random
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from oerrec.community import (
    cluster_profiles,
    cluster_readers,
    pairwise_cluster_eval,
    read_communities,
    write_communities,
)
from oerrec.cli import main as cli_main
from oerrec.config import PipelineConfig
from oerrec.corpus import Corpus, ReaderProfile, parse_corpus, write_corpus
from oerrec.features import (RPF_GROUPS, FeatureGroup, FeatureMatrix, combine_groups,
                             extract_features, features_from_dict)
from oerrec.simgen import SimConfig, generate
from oerrec.util import fork_seed, load_json
from oracles import oracle_kmedoids_best, oracle_pairwise_eval


class TestClusterReaders:
    @pytest.fixture
    def toy_vectors(self, toy_corpus):
        fm = extract_features(toy_corpus, k_loc=2)
        return fm.reader_ids, combine_groups(fm, RPF_GROUPS)

    def test_k1_medoid_is_exhaustive_minimum(self, toy_vectors):
        model = cluster_readers(*toy_vectors, 1, seed=0)
        readers, X = toy_vectors
        best_cost, best_set = oracle_kmedoids_best(X.tolist(), 1)
        assert model.cost == pytest.approx(best_cost, abs=1e-12)
        assert model.medoid_reader_ids == (readers[best_set[0]],)
        assert set(model.assignment.values()) == {0}

    def test_k_equals_n(self, toy_vectors):
        model = cluster_readers(*toy_vectors, 3, seed=0)
        assert model.cost == pytest.approx(0.0, abs=1e-12)
        assert sorted(model.assignment.values()) == [0, 1, 2]

    def test_medoids_belong_to_their_clusters(self, toy_vectors):
        model = cluster_readers(*toy_vectors, 2, seed=1)
        for c, reader in enumerate(model.medoid_reader_ids):
            assert model.assignment[reader] == c

    def test_invariant_to_corpus_stream_order(self, toy_streams):
        def assignment(event_lines):
            corpus = parse_corpus(
                event_lines, toy_streams["readers"], toy_streams["oers"],
                toy_streams["judgments"],
            )
            fm = extract_features(corpus, k_loc=2, seed=4)
            return cluster_readers(fm.reader_ids, combine_groups(fm, RPF_GROUPS), 2,
                                   seed=9).assignment

        shuffled = list(toy_streams["events"])
        random.Random(3).shuffle(shuffled)
        assert assignment(shuffled) == assignment(toy_streams["events"])

    def test_deterministic_for_seed(self, toy_vectors):
        a = cluster_readers(*toy_vectors, 2, seed=5)
        b = cluster_readers(*toy_vectors, 2, seed=5)
        assert a.assignment == b.assignment
        assert a.medoid_reader_ids == b.medoid_reader_ids


class TestPairwiseEval:
    def test_components_as_cliques_perfect(self):
        assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
        pairs = {frozenset(p) for p in (("a", "b"), ("c", "d"))}
        result = pairwise_cluster_eval(assignment, pairs)
        assert result == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_hand_case_half_precision_half_recall(self):
        assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
        pairs = {frozenset(p) for p in (("a", "b"), ("a", "c"))}
        result = pairwise_cluster_eval(assignment, pairs)
        assert result["precision"] == 0.5
        assert result["recall"] == 0.5
        assert result["f1"] == 0.5

    def test_single_community_recall_one(self):
        assignment = {r: 0 for r in "abcde"}
        pairs = {frozenset(p) for p in (("a", "b"), ("c", "d"), ("a", "e"))}
        result = pairwise_cluster_eval(assignment, pairs)
        assert result["recall"] == 1.0
        assert result["precision"] == pytest.approx(3 / 10)

    def test_empty_denominators_are_zero(self):
        assert pairwise_cluster_eval({"a": 0, "b": 1}, set()) == {
            "precision": 0.0, "recall": 0.0, "f1": 0.0
        }

    def test_unclustered_reader_in_pair_rejected(self):
        with pytest.raises(ValueError, match="unclustered"):
            pairwise_cluster_eval({"a": 0}, {frozenset(("a", "zz"))})

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_enumeration(self, seed):
        g = random.Random(seed)
        n = g.randint(2, 20)
        readers = [f"r{i}" for i in range(n)]
        assignment = {r: g.randint(0, 3) for r in readers}
        pairs = {
            frozenset(g.sample(readers, 2)) for _ in range(g.randint(0, 12))
        }
        assert pairwise_cluster_eval(assignment, pairs) == pytest.approx(
            oracle_pairwise_eval(assignment, pairs)
        )


def strip_profiles(corpus: Corpus, readers_to_strip) -> Corpus:
    readers = dict(corpus.readers)
    for r in readers_to_strip:
        readers[r] = ReaderProfile(r, frozenset(), {}, has_rpf=False)
    return Corpus(readers, dict(corpus.events), dict(corpus.oers), dict(corpus.queries))


TWO_STEP_STAGES = ("ingest", "featurize", "cluster",
                   "train-community-classifier", "assign")
TWO_STEP_SEED = 1  # a seed at which the RPF-TB weight moves the clustering


def run_two_step(corpus_dir, out, *extra):
    """The CLI's two-step chain; only ingest and featurize read --in."""
    for stage in TWO_STEP_STAGES:
        src = ["--in", str(corpus_dir)] if stage in ("ingest", "featurize") else []
        argv = [stage, *src, "--out", str(out), "--seed", str(TWO_STEP_SEED), *extra]
        assert cli_main(argv) == 0, stage
    return read_communities(out / "communities.tsv",
                            load_json(out / "cluster_eval.json")["k"])


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    """A corpus with every fourth reader's profile stripped, written to disk
    and run through the chain; yields the generator result, the stripped
    corpus, the chain's features and its communities.tsv."""
    result = generate(SimConfig(n_readers=18, seed=4))
    stripped = strip_profiles(result.corpus, sorted(result.latent)[::4])
    corpus_dir = tmp_path_factory.mktemp("stripped")
    write_corpus(stripped, corpus_dir)
    out = tmp_path_factory.mktemp("two-step")
    assignment, source = run_two_step(corpus_dir, out)
    d = load_json(out / "features.json")
    d.pop("_meta")
    return result, stripped, features_from_dict(d), assignment, source, corpus_dir


class TestTwoStep:
    def test_every_reader_assigned_with_source(self, sim):
        _, stripped, _, assignment, source, _ = sim
        assert set(assignment) == set(stripped.readers)
        clustered = {r for r, p in stripped.readers.items() if p.has_rpf}
        assert {r for r, s in source.items() if s == "clustered"} == clustered
        assert {r for r, s in source.items() if s == "predicted"} == (
            set(stripped.readers) - clustered
        )
        assert all(0 <= c < 3 for c in assignment.values())

    def test_clustered_part_matches_plain_clustering(self, sim):
        _, stripped, fm, assignment, _, _ = sim
        with_rpf = sorted(r for r, p in stripped.readers.items() if p.has_rpf)
        # the profile-bearing readers' features alone, built by hand
        rows = [fm.reader_ids.index(r) for r in with_rpf]
        alone = FeatureMatrix(
            tuple(with_rpf),
            {n: FeatureGroup(g.labels, g.matrix[rows]) for n, g in fm.groups.items()},
            {r: True for r in with_rpf})
        direct = cluster_readers(
            alone.reader_ids, combine_groups(alone, RPF_GROUPS), 3,
            seed=fork_seed(TWO_STEP_SEED, "cluster"),
        )
        assert {r: assignment[r] for r in with_rpf} == direct.assignment

    def test_group_weights_reach_the_clustering(self, sim, tmp_path):
        _, _, fm, _, _, corpus_dir = sim
        weights = {"RPF-TB": 5.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"group_weights": weights}))
        assignment, source = run_two_step(
            corpus_dir, tmp_path / "out", "--config", str(config))
        seed = fork_seed(TWO_STEP_SEED, "cluster")
        weighted = cluster_profiles(
            fm, PipelineConfig(cluster_k=3, group_weights=weights), seed).assignment
        assert {r: c for r, c in assignment.items()
                if source[r] == "clustered"} == weighted
        assert weighted != cluster_profiles(fm, PipelineConfig(cluster_k=3), seed).assignment

    def test_deterministic(self, sim, tmp_path):
        *_, corpus_dir = sim
        a, b = tmp_path / "a", tmp_path / "b"
        run_two_step(corpus_dir, a)
        run_two_step(corpus_dir, b)
        assert ((a / "communities.tsv").read_bytes()
                == (b / "communities.tsv").read_bytes())

    def test_rerun_assign_matches_a_fresh_chain(self, sim, tmp_path):
        # A second assign labels with the clustered rows only, so predictions
        # of an earlier assign do not stay on as labels.
        *_, assignment, source, corpus_dir = sim
        stale, fresh = tmp_path / "stale", tmp_path / "fresh"
        run_two_step(corpus_dir, stale)
        shutil.copytree(stale, fresh)
        seed = ["--seed", str(TWO_STEP_SEED)]
        assert cli_main(["cluster", "--out", str(fresh), *seed]) == 0
        for out in (stale, fresh):
            assert cli_main(["train-community-classifier", "--out", str(out), *seed,
                             "--lambda", "500"]) == 0
            assert cli_main(["assign", "--out", str(out), *seed]) == 0
        assert ((stale / "communities.tsv").read_bytes()
                == (fresh / "communities.tsv").read_bytes())
        moved, _ = read_communities(fresh / "communities.tsv", 3)
        assert any(moved[r] != assignment[r] for r, s in source.items() if s == "predicted")

    def test_predictions_recover_latent_structure(self, sim):
        # The classifier should map most held-out readers to the community
        # that holds the rest of their latent group.
        result, _, _, assignment, source, _ = sim
        agree = 0
        predicted = [r for r, s in source.items() if s == "predicted"]
        for r in predicted:
            mates = [
                x for x in assignment
                if x != r and result.latent[x] == result.latent[r]
                and source[x] == "clustered"
            ]
            votes = [assignment[x] for x in mates]
            majority = max(set(votes), key=votes.count)
            agree += assignment[r] == majority
        assert agree / len(predicted) >= 0.8


class TestCommunitiesFile:
    def test_round_trip_with_comment(self, tmp_path):
        path = tmp_path / "communities.tsv"
        assignment = {"r2": 1, "r1": 0}
        source = {"r2": "predicted", "r1": "clustered"}
        write_communities(path, assignment, source,
                          meta={"config_hash": "abc", "seed": 1, "stage": "assign"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# reader_id\tcommunity\tsource"
        assert lines[1] == "# config_hash=abc seed=1 stage=assign"
        got_assignment, got_source = read_communities(
            path, k=max(assignment.values()) + 1)
        assert got_assignment == assignment
        assert got_source == source

    @pytest.mark.parametrize("community", [-1, 2])
    def test_community_outside_k_rejected(self, tmp_path, community):
        path = tmp_path / "communities.tsv"
        write_communities(path, {"r1": 0, "r2": community}, {},
                          {"config_hash": "abc", "seed": 1, "stage": "cluster"})
        with pytest.raises(ValueError, match=(
                rf"^communities.tsv:4: community {community} of reader 'r2' "
                rf"is outside \[0, 2\)$")):
            read_communities(path, k=2)
