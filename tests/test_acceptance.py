"""Release acceptance gate: nine checks, one pass/fail line each under -v.

Every check is self-contained: it builds its own seeded instances, computes
the reference answer with the independent oracles in ``oracles.py`` (never
with the library under test), and asserts the pinned tolerance. Budgets are
wall-clock seconds measured inside the test.
"""

import time

import numpy as np
import pytest

from oerrec.cli import main as cli_main
from oerrec.community import (DEFAULT_CLASSIFIER_GROUPS, cluster_profiles,
                              pairwise_cluster_eval)
from oerrec.config import PipelineConfig
from oerrec.evaluation import cross_validate_ranking, simulate_missing_rpf
from oerrec.features import RPF_GROUPS, extract_features
from oerrec.hetgraph import (
    EDGE_SCHEMA,
    HetGraph,
    MetaPath,
    PathStep,
    default_metapaths,
    metapath_score,
)
from oerrec.kmedoids import kmedoids
from oerrec.maxent import predict_batch, train_maxent
from oerrec.metrics import average_precision_at_k, mrr, ndcg_at_k
from oerrec.rankfeatures import QueryFeatures, RankFeatureExtractor, build_query_features
from oerrec.ranker import coordinate_ascent_train
from oerrec.simgen import SimConfig, generate
from oerrec.util import rng_for
from oracles import (
    finite_diff_maxent_grad,
    oracle_ap,
    oracle_best_direction_ndcg3,
    oracle_kmedoids_best,
    oracle_mrr,
    oracle_ndcg,
    oracle_walk,
)

EXACT = 1e-12          # oracle-equivalence tolerance (checks 1-2)
COST_TOL = 1e-9        # float-accumulation allowance on clustering cost (check 3)
GRAD_REL_TOL = 1e-6    # gradient vs finite differences (check 4)
PRIOR_TOL = 1e-6       # recovered class priors (check 4)
GRID_TOL = 0.01        # coordinate ascent vs direction grid (check 5)
NDCG_GAP = 0.03        # communitized minus global nDCG@3 (check 6)
P_THRESHOLD = 0.05     # paired sign test (check 6)
ACCURACY_FLOOR = 0.8   # community prediction accuracy (check 7)
SEEDS = (0, 1, 2, 3, 4)
MIN_WINS = 4           # "holds for >= 4 of 5 seeds" (checks 6-8)


# -- 1: ranking metrics vs brute force ----------------------------------------

def test_c1_metrics_match_bruteforce_oracles():
    t0 = time.perf_counter()

    hand = ndcg_at_k([0, 2, 1], 3)
    assert hand == pytest.approx(0.66975, abs=1e-3)
    assert abs(hand - oracle_ndcg([0, 2, 1], 3)) <= EXACT

    g = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(g.integers(1, 11))
        gains = [int(v) for v in g.integers(0, 3, n)]
        for k in sorted({1, 3, 5, n}):
            want = oracle_ndcg(gains, k)
            have = ndcg_at_k(gains, k)
            if want is None:
                assert have is None
            else:
                assert abs(have - want) <= EXACT
            assert abs(average_precision_at_k(gains, k) - oracle_ap(gains, k)) <= EXACT
        assert abs(mrr(gains) - oracle_mrr(gains)) <= EXACT

    assert time.perf_counter() - t0 < 5.0


# -- 2: meta-path walks vs exhaustive tour enumeration ------------------------

OER_TYPES = ("video", "slides", "wiki", "code")


def random_typed_graph(seed):
    """Random schema-conforming graph (<= 50 vertices), a compatible meta-path
    of length <= 4 starting at a paper, and a nonempty paper start set."""
    g = np.random.default_rng(seed)
    papers = [f"p{i}" for i in range(int(g.integers(1, 6)))]
    topics = [f"t{i}" for i in range(int(g.integers(1, 6)))]
    oers = [f"o{i}" for i in range(int(g.integers(1, 41)))]

    graph = HetGraph()
    adj: dict = {}
    payload: dict = {}
    for p in papers:
        graph.add_vertex(p, "paper")
        payload[p] = ""
    for t in topics:
        graph.add_vertex(t, "topic")
        payload[t] = ""
    for o in oers:
        otype = OER_TYPES[int(g.integers(len(OER_TYPES)))]
        graph.add_vertex(o, "oer", otype)
        payload[o] = otype

    pools = {"paper": papers, "topic": topics, "oer": oers}
    p_edge = float(g.uniform(0.1, 0.5))
    for edge, (src_type, dst_type) in sorted(EDGE_SCHEMA.items()):
        for src in pools[src_type]:
            for dst in pools[dst_type]:
                if g.uniform() < p_edge:
                    graph.add_edge(src, edge, dst)
                    adj.setdefault((src, edge), []).append(dst)

    steps = []
    cur = "paper"
    for _ in range(int(g.integers(1, 5))):
        options = sorted(e for e, (s, _) in EDGE_SCHEMA.items() if s == cur)
        edge = options[int(g.integers(len(options)))]
        dst_type = EDGE_SCHEMA[edge][1]
        oer_filter = None
        if dst_type == "oer" and g.uniform() < 0.5:
            oer_filter = OER_TYPES[int(g.integers(len(OER_TYPES)))]
        steps.append(PathStep(edge, dst_type, oer_filter))
        cur = dst_type
        if cur == "oer":
            break

    n_starts = int(g.integers(1, len(papers) + 1))
    starts = [papers[i] for i in sorted(g.choice(len(papers), n_starts, replace=False))]
    return graph, adj, payload, MetaPath(tuple(steps)), starts


def test_c2_walk_scores_match_tour_enumeration():
    t0 = time.perf_counter()
    for seed in range(100):
        graph, adj, payload, path, starts = random_typed_graph(seed)
        result = metapath_score(graph, starts, path)
        want_scores, want_absorbed = oracle_walk(
            adj, payload, [(s.edge, s.oer_type) for s in path.steps], starts)
        assert set(result.scores) == set(want_scores)
        for v, score in want_scores.items():
            assert abs(result.scores[v] - score) <= EXACT
        assert abs(result.absorbed - want_absorbed) <= EXACT
        assert abs(result.total() - 1.0) <= EXACT
    assert time.perf_counter() - t0 < 10.0


# -- 3: K-medoids vs exhaustive medoid-set search ------------------------------

def blob_instance(seed):
    """k well-separated Gaussian blobs (k in 1..3) over 5..9 points; at this
    separation the seeded single-run swap search reaches the global optimum."""
    g = np.random.default_rng(seed)
    k = int(g.integers(1, 4))
    n = int(g.integers(max(k + 2, 5), 10))
    centers = g.uniform(-10, 10, size=(k, 2))
    while k > 1 and min(
        float(np.linalg.norm(a - b))
        for i, a in enumerate(centers)
        for b in centers[:i]
    ) < 6.0:
        centers = g.uniform(-10, 10, size=(k, 2))
    labels = np.sort(np.concatenate([np.arange(k), g.integers(0, k, n - k)]))
    X = centers[labels] + g.normal(0, 0.5, size=(n, 2))
    return X, k


def test_c3_kmedoids_attains_exhaustive_optimum():
    t0 = time.perf_counter()
    for seed in range(50):
        X, k = blob_instance(seed)
        result = kmedoids(X, k, rng_for(seed, "acceptance-kmedoids"))
        best_cost, _ = oracle_kmedoids_best(X, k)
        assert abs(result.cost - best_cost) <= COST_TOL, (seed, result.cost, best_cost)
    assert time.perf_counter() - t0 < 5.0


# -- 4: MaxEnt gradient and prior recovery ------------------------------------

def analytic_grad(X, y, W, b, lam):
    """Closed-form gradient of the penalized log-likelihood."""
    scores = X @ W.T + b
    scores -= scores.max(axis=1, keepdims=True)
    P = np.exp(scores)
    P /= P.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(P)
    onehot[np.arange(len(y)), y] = 1.0
    R = onehot - P
    return R.T @ X - lam * W, R.sum(axis=0)


def test_c4_maxent_gradient_and_priors():
    worst = 0.0
    for seed in range(20):
        g = np.random.default_rng(seed)
        n, d, k = int(g.integers(5, 31)), int(g.integers(2, 7)), int(g.integers(2, 5))
        X = g.normal(size=(n, d))
        y = np.concatenate([np.arange(k), g.integers(0, k, n - k)])
        W = g.normal(size=(k, d))
        b = g.normal(size=k)
        lam = float(g.uniform(0.0, 2.0))
        gW, gb = analytic_grad(X, y, W, b, lam)
        fW, fb = finite_diff_maxent_grad(X.tolist(), y.tolist(), W.tolist(),
                                         b.tolist(), lam)
        rel_W = np.abs(gW - fW) / np.maximum(1.0, np.abs(gW))
        rel_b = np.abs(gb - fb) / np.maximum(1.0, np.abs(gb))
        worst = max(worst, float(rel_W.max()), float(rel_b.max()))
    assert worst < GRAD_REL_TOL

    # identical feature rows leave only the intercepts: predicted class
    # probabilities must equal the empirical label frequencies
    y = np.array([0] * 22 + [1] * 12 + [2] * 6)
    X = np.full((len(y), 3), 0.5)
    model = train_maxent(X, y, lam=1.0)
    _, probs = predict_batch(model, X[:1])
    priors = np.bincount(y) / len(y)
    assert np.abs(probs[0] - priors).max() < PRIOR_TOL


# -- 5: coordinate ascent vs direction grid search ----------------------------

def two_feature_problem(seed, n_queries=6, n_candidates=5):
    g = np.random.default_rng(seed)
    queries = []
    for qi in range(n_queries):
        gains = g.integers(0, 3, n_candidates)
        gains[int(g.integers(n_candidates))] = 2
        X = g.uniform(0, 1, (n_candidates, 2))
        X[:, 0] = 0.6 * gains / 2.0 + 0.4 * X[:, 0]
        candidates = tuple(f"q{qi}-c{i}" for i in range(n_candidates))
        queries.append(QueryFeatures(
            f"q{qi}", "r0", candidates, gains.astype(np.int64), X))
    return queries


def test_c5_coordinate_ascent_matches_grid_oracle():
    for seed in range(20):
        queries = two_feature_problem(seed)
        model = coordinate_ascent_train(queries, ("f0", "f1"), seed=seed)
        grid_best = oracle_best_direction_ndcg3(
            [(q.candidates, q.gains.tolist(), q.X.tolist()) for q in queries])
        assert model.metric_value >= grid_best - GRID_TOL, (seed, model.metric_value,
                                                            grid_best)
        assert all(b >= a for a, b in zip(model.trace, model.trace[1:])), seed


# -- 6 & 7: synthetic replication family ---------------------------------------

_FAMILY: dict = {}


def sim_family():
    """Five seeded default corpora (60 readers, 3 communities, alpha 0.9,
    noise 0.2) with features, judged queries, and profile clustering."""
    if _FAMILY:
        return _FAMILY
    t0 = time.perf_counter()
    per_seed = []
    for seed in SEEDS:
        result = generate(SimConfig(seed=seed))
        fm = extract_features(result.corpus)
        extractor = RankFeatureExtractor(
            result.graph, default_metapaths(), result.corpus.oers)
        queries = build_query_features(result.corpus, extractor)
        assignment = cluster_profiles(fm, PipelineConfig(cluster_k=3), seed).assignment
        per_seed.append({"seed": seed, "fm": fm, "queries": queries,
                         "names": extractor.feature_names,
                         "assignment": assignment})
    _FAMILY["per_seed"] = per_seed
    _FAMILY["build_seconds"] = time.perf_counter() - t0
    return _FAMILY


def test_c6_communitized_ranking_beats_global_baseline():
    family = sim_family()
    t0 = time.perf_counter()
    wins = 0
    for entry in family["per_seed"]:
        assert len(entry["queries"]) >= 400
        report = cross_validate_ranking(
            entry["queries"], entry["names"], entry["assignment"],
            PipelineConfig(folds=10), entry["seed"])
        gap = (report.means("communitized")["ndcg@3"]
               - report.means("global")["ndcg@3"])
        p = report.sign_test_p("ndcg@3")
        if gap >= NDCG_GAP and p < P_THRESHOLD:
            wins += 1
    elapsed = family["build_seconds"] + (time.perf_counter() - t0)
    assert wins >= MIN_WINS, wins
    assert elapsed < 120.0, elapsed


def test_c7_predicted_communities_preserve_the_ranking_win():
    family = sim_family()
    wins = 0
    for entry in family["per_seed"]:
        report = simulate_missing_rpf(
            entry["fm"], entry["queries"], entry["names"],
            PipelineConfig(fraction=0.25, sim_folds=4), entry["seed"])
        accuracy = report.extras["community_prediction_accuracy"]
        beats = (report.means("communitized")["ndcg@3"]
                 > report.means("global")["ndcg@3"])
        if accuracy >= ACCURACY_FLOOR and beats:
            wins += 1
    assert wins >= MIN_WINS, wins


# -- 8: profile features beat behavior features on reply ground truth ----------

SPARSE_BEHAVIOR = {"events_per_reader": 3.0, "queries_per_reader": 2.0}


def reply_f1(corpus, fm, groups, seed):
    assignment = cluster_profiles(
        fm, PipelineConfig(cluster_k=3, cluster_groups=groups), seed).assignment
    return pairwise_cluster_eval(assignment, corpus.reply_pairs())["f1"]


def test_c8_profile_clusters_beat_behavior_clusters_on_reply_pairs():
    wins = 0
    for seed in SEEDS:
        result = generate(SimConfig(seed=seed, **SPARSE_BEHAVIOR))
        fm = extract_features(result.corpus)
        f1_profile = reply_f1(result.corpus, fm, RPF_GROUPS, seed)
        f1_behavior = reply_f1(result.corpus, fm, DEFAULT_CLASSIFIER_GROUPS, seed)
        if f1_profile > f1_behavior:
            wins += 1
    assert wins >= MIN_WINS, wins

    # fully separated, noise-free: profile clustering matches reply pairs exactly
    clean = generate(SimConfig(seed=0, alpha=1.0, grade_noise=0.0, **SPARSE_BEHAVIOR))
    fm = extract_features(clean.corpus)
    assert reply_f1(clean.corpus, fm, RPF_GROUPS, 0) == pytest.approx(1.0, abs=EXACT)


# -- 9: end-to-end pipeline determinism ----------------------------------------

def test_c9_pipeline_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["pipeline", "--out", str(out), "--seed", "3",
            "--readers", "24", "--folds", "4", "--restarts", "2"]
    assert cli_main(args) == 0
    first = (out / "report.json").read_bytes()
    assert cli_main(args) == 0
    capsys.readouterr()
    assert (out / "report.json").read_bytes() == first
