"""Cross-validated ranking evaluation and the missing-profile simulation."""

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from oerrec import ranker
from oerrec.community import cluster_profiles
from oerrec.config import PipelineConfig
from oerrec.evaluation import (
    METRIC_NAMES,
    MetricReport,
    cross_validate_ranking,
    make_folds,
    query_metrics,
    simulate_missing_rpf,
)
from oerrec.features import extract_features
from oerrec.hetgraph import default_metapaths
from oerrec.rankfeatures import (
    QueryFeatures,
    RankFeatureExtractor,
    build_query_features,
)
from oerrec.simgen import SimConfig, generate
from oerrec.util import dump_json, fork_seed, load_json
from oracles import oracle_ap, oracle_mrr, oracle_ndcg, oracle_sign_test


def make_query(qid, reader, gains, X):
    gains = np.asarray(gains, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    candidates = tuple(f"{qid}-c{i}" for i in range(len(gains)))
    return QueryFeatures(qid, reader, candidates, gains, X)


def opposed_community_queries(seed=7, per_community=12):
    """Community 0 prefers feature 0, community 1 prefers feature 1."""
    g = np.random.default_rng(seed)
    queries = []
    for c, fav in ((0, 0), (1, 1)):
        for i in range(per_community):
            gains = g.integers(0, 3, 4)
            X = g.uniform(0, 1, (4, 2))
            X[:, fav] = gains / 2.0
            X[:, 1 - fav] = (2 - gains) / 2.0
            queries.append(make_query(f"c{c}-q{i:02d}", f"r{c}", gains, X))
    return queries, {"r0": 0, "r1": 1}


class TestQueryMetrics:
    def test_no_positive_gain_is_skipped(self):
        assert query_metrics([0, 0, 0]) is None
        assert query_metrics([0]) is None

    def test_hand_case_matches_oracles(self):
        gains = [0, 2, 1, 0, 1]
        m = query_metrics(gains)
        assert m["map@3"] == pytest.approx(oracle_ap(gains, 3), abs=1e-12)
        assert m["map@5"] == pytest.approx(oracle_ap(gains, 5), abs=1e-12)
        assert m["map@all"] == pytest.approx(oracle_ap(gains, len(gains)), abs=1e-12)
        assert m["ndcg@3"] == pytest.approx(oracle_ndcg(gains, 3), abs=1e-12)
        assert m["ndcg@5"] == pytest.approx(oracle_ndcg(gains, 5), abs=1e-12)
        assert m["ndcg@all"] == pytest.approx(oracle_ndcg(gains, len(gains)), abs=1e-12)
        assert m["mrr"] == pytest.approx(oracle_mrr(gains), abs=1e-12)

    def test_reports_every_metric_once(self):
        assert tuple(query_metrics([1, 0])) == METRIC_NAMES


def report_from_gains(gain_lists):
    """Two-system report over hand-chosen ranked gain lists."""
    per_query = {"communitized": {}, "global": {}}
    for qid, (comm, glob) in gain_lists.items():
        per_query["communitized"][qid] = query_metrics(comm)
        per_query["global"][qid] = query_metrics(glob)
    fold_assignment = {qid: i % 2 for i, qid in enumerate(sorted(gain_lists))}
    return MetricReport(per_query, (), fold_assignment, folds=2)


class TestMetricReport:
    GAINS = {
        "q1": ([2, 1, 0], [0, 1, 2]),
        "q2": ([1, 0, 0], [1, 0, 0]),
        "q3": ([0, 0, 2], [2, 0, 0]),
        "q4": ([2, 2, 1], [1, 2, 2]),
    }

    def test_means_are_per_query_averages(self):
        report = report_from_gains(self.GAINS)
        expect = np.mean([oracle_ndcg(comm, 3) for comm, _ in self.GAINS.values()])
        assert report.means("communitized")["ndcg@3"] == pytest.approx(expect, abs=1e-12)

    def test_counts(self):
        report = report_from_gains(self.GAINS)
        assert tuple(report.per_query) == ("communitized", "global")
        assert report.n_evaluated == 4
        assert report.n_total == 4
        report.skipped = ("qz",)
        assert report.n_total == 5

    def test_fold_means_partition_queries(self):
        report = report_from_gains(self.GAINS)
        per_fold = report.fold_means("global")
        assert len(per_fold) == 2
        # Fold 0 holds q1 and q3, fold 1 holds q2 and q4.
        f0 = np.mean([oracle_ndcg(self.GAINS[q][1], 3) for q in ("q1", "q3")])
        assert per_fold[0]["ndcg@3"] == pytest.approx(f0, abs=1e-12)
        weighted = (2 * per_fold[0]["ndcg@3"] + 2 * per_fold[1]["ndcg@3"]) / 4
        assert report.means("global")["ndcg@3"] == pytest.approx(weighted, abs=1e-12)

    def test_empty_fold_reports_none(self):
        report = report_from_gains(self.GAINS)
        report.folds = 3  # fold 2 has no queries
        assert report.fold_means("global")[2] is None

    def test_paired_differences_follow_sorted_query_ids(self):
        report = report_from_gains(self.GAINS)
        diffs = report.paired_differences("ndcg@3", "communitized", "global")
        expect = [
            oracle_ndcg(comm, 3) - oracle_ndcg(glob, 3)
            for _, (comm, glob) in sorted(self.GAINS.items())
        ]
        assert diffs == pytest.approx(expect, abs=1e-12)

    def test_sign_test_p_matches_oracle(self):
        report = report_from_gains(self.GAINS)
        diffs = report.paired_differences("ndcg@3", "communitized", "global")
        assert report.sign_test_p("ndcg@3") == pytest.approx(
            oracle_sign_test(diffs), abs=1e-12
        )

    def test_report_file_round_trip(self, tmp_path):
        report = report_from_gains(self.GAINS)
        report.extras = {"note": [1, 2]}
        report.settings = {"folds": 2}
        path = tmp_path / "report.json"
        dump_json(path, report.to_dict(), {"config_hash": "h", "seed": 0})
        again = load_json(path)
        assert again.pop("_meta") == {"config_hash": "h", "seed": 0}
        assert again == json.loads(json.dumps(report.to_dict()))

    def test_report_bytes_are_stable(self, tmp_path):
        report = report_from_gains(self.GAINS)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(a, report.to_dict(), {"config_hash": "h", "seed": 0})
        dump_json(b, report.to_dict(), {"config_hash": "h", "seed": 0})
        assert a.read_bytes() == b.read_bytes()


class TestMakeFolds:
    def queries(self, n, readers=("r0", "r1")):
        return [
            make_query(f"q{i:02d}", readers[i % len(readers)], [1, 0], [[1, 0], [0, 1]])
            for i in range(n)
        ]

    def test_requires_at_least_two_folds(self):
        with pytest.raises(ValueError, match="folds"):
            make_folds(self.queries(4), {"r0": 0, "r1": 0}, 1, 0)

    def test_rejects_more_folds_than_queries(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_folds(self.queries(4), {"r0": 0, "r1": 0}, 5, 0)

    def test_equal_counts_give_one_query_per_fold(self):
        fold_of = make_folds(self.queries(10), {"r0": 0, "r1": 0}, 10, 3)
        assert sorted(fold_of.values()) == list(range(10))

    def test_fold_sizes_balanced(self):
        fold_of = make_folds(self.queries(23), {"r0": 0, "r1": 1}, 5, 1)
        sizes = [list(fold_of.values()).count(f) for f in range(5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_each_community_spread_across_folds(self):
        queries = self.queries(20)
        assignment = {"r0": 0, "r1": 1}
        fold_of = make_folds(queries, assignment, 5, 2)
        for community in (0, 1):
            ids = [q.query_id for q in queries if assignment[q.reader_id] == community]
            sizes = [sum(1 for q in ids if fold_of[q] == f) for f in range(5)]
            assert max(sizes) - min(sizes) <= 1

    def test_covers_every_query(self):
        queries = self.queries(13)
        fold_of = make_folds(queries, {"r0": 0, "r1": 0}, 4, 0)
        assert set(fold_of) == {q.query_id for q in queries}
        assert set(fold_of.values()) <= set(range(4))

    def test_seeded_and_seed_sensitive(self):
        queries = self.queries(30)
        assignment = {"r0": 0, "r1": 0}
        base = make_folds(queries, assignment, 5, 0)
        assert base == make_folds(queries, assignment, 5, 0)
        assert any(
            make_folds(queries, assignment, 5, s) != base for s in range(1, 6)
        )


@pytest.fixture(scope="module")
def run():
    queries, assignment = opposed_community_queries()
    report = cross_validate_ranking(
        queries, ("f0", "f1"), assignment,
        PipelineConfig(folds=4, restarts=2, threshold=5), 0,
    )
    return queries, report


class TestCrossValidateRanking:
    def test_both_systems_scored_on_same_queries(self, run):
        queries, report = run
        assert set(report.per_query["communitized"]) == set(report.per_query["global"])
        evaluated = set(report.per_query["global"])
        assert evaluated.isdisjoint(report.skipped)
        assert report.n_total == len(queries)

    def test_fold_assignment_matches_make_folds(self, run):
        queries, report = run
        _, assignment = opposed_community_queries()
        assert report.fold_assignment == make_folds(queries, assignment, 4, 0)

    def test_deterministic_for_seed(self, run):
        queries, report = run
        _, assignment = opposed_community_queries()
        again = cross_validate_ranking(
            queries, ("f0", "f1"), assignment,
            PipelineConfig(folds=4, restarts=2, threshold=5), 0,
        )
        assert again.to_dict() == report.to_dict()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
    def test_pooled_report_equals_serial(self, monkeypatch):
        # patching the CPU count picks the pooled (2) or in-process (1) path;
        # on random features each fold's models rank differently
        g = np.random.default_rng(5)
        queries = [make_query(f"q{i:02d}", f"r{i % 3}", g.integers(0, 3, 5),
                              g.uniform(0, 1, (5, 3))) for i in range(30)]
        assignment = {"r0": 0, "r1": 1, "r2": 1}
        reports = []
        for cpus in (2, 1):
            monkeypatch.setattr(ranker, "usable_cpus", lambda: cpus)
            reports.append(cross_validate_ranking(
                queries, ("f0", "f1", "f2"), assignment,
                PipelineConfig(folds=4, restarts=2, threshold=5), 0,
            ).to_dict())
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []

    def test_means_recomputable_from_per_query(self, run):
        _, report = run
        for system in report.per_query:
            rows = report.per_query[system].values()
            assert report.means(system)["map@5"] == pytest.approx(
                np.mean([r["map@5"] for r in rows]), abs=1e-12
            )

    def test_communitized_beats_global_on_opposed_communities(self, run):
        _, report = run
        comm = report.means("communitized")["ndcg@3"]
        glob = report.means("global")["ndcg@3"]
        assert comm > glob + 0.05

    def test_settings_recorded(self, run):
        _, report = run
        assert report.settings["folds"] == 4
        assert report.settings["restarts"] == 2


@pytest.fixture(scope="module")
def clean_sim():
    """Noise-free two-community corpus where behavior mirrors the profile
    split, so community prediction from behavior should be perfect."""
    cfg = SimConfig(
        n_readers=16, n_communities=2, alpha=1.0, grade_noise=0.0,
        events_per_reader=8.0, queries_per_reader=3.0, seed=5,
    )
    result = generate(cfg)
    fm = extract_features(result.corpus)
    extractor = RankFeatureExtractor(
        result.graph, default_metapaths(), result.corpus.oers
    )
    queries = build_query_features(result.corpus, extractor)
    return fm, queries, extractor.feature_names


def default_sim(seed, n_readers):
    """Features and judged queries of a small default corpus."""
    result = generate(SimConfig(seed=seed, n_readers=n_readers))
    extractor = RankFeatureExtractor(
        result.graph, default_metapaths(), result.corpus.oers
    )
    return (extract_features(result.corpus),
            build_query_features(result.corpus, extractor),
            extractor.feature_names)


class TestSimulateMissingRpf:
    def test_fraction_validation(self, clean_sim):
        fm, queries, names = clean_sim
        with pytest.raises(ValueError, match="fraction"):
            simulate_missing_rpf(fm, queries, names, PipelineConfig(fraction=-0.1), 0)
        with pytest.raises(ValueError, match="fraction"):
            simulate_missing_rpf(fm, queries, names, PipelineConfig(fraction=1.5), 0)
        with pytest.raises(ValueError, match="folds"):
            simulate_missing_rpf(fm, queries, names, PipelineConfig(sim_folds=0), 0)
        with pytest.raises(ValueError, match="exceeds"):
            simulate_missing_rpf(fm, queries, names,
                                 PipelineConfig(fraction=0.25, sim_folds=5), 0)

    def test_requires_full_profiles(self, clean_sim):
        fm, queries, names = clean_sim
        stripped = dataclasses.replace(
            fm, has_rpf={**fm.has_rpf, fm.reader_ids[0]: False}
        )
        with pytest.raises(ValueError, match=fm.reader_ids[0]):
            simulate_missing_rpf(stripped, queries, names, PipelineConfig(), 0)

    def test_perfect_prediction_reproduces_full_profile_run(self, clean_sim):
        fm, queries, names = clean_sim
        report = simulate_missing_rpf(
            fm, queries, names, PipelineConfig(
                fraction=0.25, sim_folds=2, cluster_k=2, folds=4, restarts=2, threshold=5), 7,
        )
        extras = report.extras
        assert extras["community_prediction_accuracy"] == 1.0
        assert extras["predicted_assignment"] == extras["reference_assignment"]

        reference = {r: int(c) for r, c in extras["reference_assignment"].items()}
        direct = cross_validate_ranking(
            queries, names, reference,
            PipelineConfig(folds=4, restarts=2, threshold=5), fork_seed(7, "sim-cv"),
        )
        assert report.per_query == direct.per_query
        assert report.skipped == direct.skipped

    def test_reference_clustering_honours_group_weights(self, clean_sim):
        # With weights set, a perfect classifier must reproduce the weighted
        # clustering the pipeline's cluster stage makes, not the unweighted one.
        fm, queries, names = clean_sim
        weights = {"RPF-TB": 5.0}
        cfg = PipelineConfig(fraction=0.25, sim_folds=2, cluster_k=3, folds=4,
                             restarts=2, threshold=5, group_weights=weights)
        report = simulate_missing_rpf(fm, queries, names, cfg, 3)
        reference = report.extras["reference_assignment"]
        seed = fork_seed(3, "sim-reference")
        assert reference == cluster_profiles(fm, cfg, seed).assignment
        assert reference != cluster_profiles(
            fm, dataclasses.replace(cfg, group_weights={}), seed).assignment

    def test_confusion_matrix_accounts_for_every_prediction(self, clean_sim):
        fm, queries, names = clean_sim
        report = simulate_missing_rpf(
            fm, queries, names, PipelineConfig(
                fraction=0.25, sim_folds=2, cluster_k=2, folds=4, restarts=2, threshold=5), 3,
        )
        confusion = np.asarray(report.extras["confusion"])
        assert confusion.shape == (2, 2)
        # folds=2 at fraction 0.25 of 16 readers: two held-out groups of 4.
        assert confusion.sum() == report.extras["n_predicted"] == 8
        accuracy = np.trace(confusion) / confusion.sum()
        assert report.extras["community_prediction_accuracy"] == pytest.approx(accuracy)

    def test_zero_fraction_predicts_nothing(self, clean_sim):
        fm, queries, names = clean_sim
        report = simulate_missing_rpf(
            fm, queries, names, PipelineConfig(
                fraction=0.0, sim_folds=1, cluster_k=2, folds=4, restarts=2, threshold=5), 1,
        )
        assert report.extras["n_predicted"] == 0
        assert report.extras["community_prediction_accuracy"] is None
        assert (
            report.extras["predicted_assignment"]
            == report.extras["reference_assignment"]
        )

    # Seed 3: fold 0 holds all of community 0, which the classifier could
    # only report as "classes without examples: [0]". Seed 16: fold 1 holds
    # all of community 2, the highest index, so a classifier fitted without
    # it would silently know two classes, not three.
    @pytest.mark.parametrize("seed, fold, community", [(3, 0, 0), (16, 1, 2)])
    def test_fold_holding_a_whole_community_is_named(self, seed, fold, community):
        fm, queries, names = default_sim(seed=seed, n_readers=12)
        match = rf"reader fold {fold} .* community {community};"
        with pytest.raises(ValueError, match=match):
            simulate_missing_rpf(fm, queries, names, PipelineConfig(
                fraction=0.5, sim_folds=2, folds=2, restarts=1), seed)
