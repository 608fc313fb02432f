"""Coordinate-ascent ranker training and model application."""

import hashlib
import multiprocessing
import os
import select
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oerrec import ranker
from oerrec.cli import main as cli_main
from oerrec.config import PipelineConfig
from oerrec.metrics import RankingKernel
from oerrec.rankfeatures import QueryFeatures
from oerrec.ranker import (
    MAX_SWEEPS,
    STEP_GRID,
    SWEEP_TOL,
    NormRecord,
    RankingModel,
    TrainJob,
    coordinate_ascent_train,
    rank,
    rank_query,
    read_model,
    read_rankerset,
    train_communitized,
    train_models,
    write_rankerset,
)
from oerrec.util import dump_json, rng_for
from oracles import oracle_best_direction_ndcg3, oracle_rank_order


def make_query(qid, reader, gains, X):
    gains = np.asarray(gains, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    candidates = tuple(f"{qid}-c{i}" for i in range(len(gains)))
    return QueryFeatures(qid, reader, candidates, gains, X)


def random_problem(seed, n_queries=8, n_candidates=5, d=2, informative=0.8):
    """Random 2-feature queries where feature 0 weakly tracks the gain."""
    g = np.random.default_rng(seed)
    queries = []
    for qi in range(n_queries):
        gains = g.integers(0, 3, n_candidates)
        X = g.uniform(0, 1, (n_candidates, d))
        X[:, 0] = informative * gains / 2.0 + (1 - informative) * X[:, 0]
        queries.append(make_query(f"q{qi}", "r0", gains, X))
    return queries


class TestNormRecord:
    def test_apply_scales_and_clamps(self):
        norm = NormRecord(np.array([0.0, 10.0]), np.array([2.0, 10.0]))
        X = np.array([[1.0, 10.0], [4.0, 11.0], [-2.0, 9.0]])
        out = norm.apply(X)
        # Column 1 has zero span and maps to 0; column 0 clamps to [0, 1].
        assert out[:, 0].tolist() == [0.5, 1.0, 0.0]
        assert out[:, 1].tolist() == [0.0, 0.0, 0.0]

    def test_round_trip_dict(self):
        norm = NormRecord(np.array([0.0]), np.array([1.5]))
        again = NormRecord.from_dict(norm.to_dict())
        assert np.array_equal(again.mins, norm.mins)
        assert np.array_equal(again.maxs, norm.maxs)


class TestCoordinateAscent:
    def test_feature_equal_to_grade_reaches_perfect_metric(self):
        g = np.random.default_rng(0)
        queries = [
            make_query(f"q{i}", "r0", gains, np.column_stack([
                np.asarray(gains, dtype=float), g.uniform(0, 1, len(gains))
            ]))
            for i, gains in enumerate([[2, 1, 0, 0], [0, 0, 1, 2], [1, 0, 2, 0]])
        ]
        model = coordinate_ascent_train(queries, ("exact", "noise"), seed=0)
        assert model.metric_value == pytest.approx(1.0, abs=1e-12)
        assert model.weights[0] > 0

    def test_constant_features_return_initial_weights(self):
        queries = [make_query("q0", "r0", [2, 0], [[0.4, 0.7], [0.4, 0.7]])]
        model = coordinate_ascent_train(queries, ("a", "b"), restarts=1, seed=0)
        # Nothing can improve, so the uniform init survives L1-normalized.
        assert model.weights.tolist() == [0.5, 0.5]
        assert len(model.trace) == 1

    def test_trace_is_non_decreasing_accepted_steps(self):
        for seed in range(6):
            queries = random_problem(seed, informative=0.5)
            model = coordinate_ascent_train(queries, ("f0", "f1"), seed=seed)
            assert all(
                b >= a - 1e-12 for a, b in zip(model.trace, model.trace[1:])
            )
            assert model.metric_value == pytest.approx(model.trace[-1], abs=1e-12)

    def test_close_to_grid_search_oracle(self):
        queries = random_problem(3, informative=0.6)
        model = coordinate_ascent_train(queries, ("f0", "f1"), seed=1)
        oracle_best = oracle_best_direction_ndcg3(
            [(q.candidates, q.gains.tolist(), q.X.tolist()) for q in queries]
        )
        assert model.metric_value >= oracle_best - 0.01

    def test_weights_l1_normalized(self):
        queries = random_problem(5)
        model = coordinate_ascent_train(queries, ("f0", "f1"), seed=2)
        assert np.abs(model.weights).sum() == pytest.approx(1.0, abs=1e-12)

    def test_untrainable_without_positive_gain(self):
        queries = [make_query("q0", "r0", [0, 0], [[0.1, 0.2], [0.3, 0.4]])]
        with pytest.raises(ValueError, match="untrainable"):
            coordinate_ascent_train(queries, ("a", "b"))

    def test_deterministic_for_seed(self):
        queries = random_problem(9)
        a = coordinate_ascent_train(queries, ("f0", "f1"), seed=4)
        b = coordinate_ascent_train(queries, ("f0", "f1"), seed=4)
        assert np.array_equal(a.weights, b.weights)
        assert a.trace == b.trace

    def test_zero_gain_queries_ignored_for_training(self):
        queries = random_problem(11) + [
            make_query("qz", "r0", [0, 0, 0], np.full((3, 2), 0.5))
        ]
        with_zero = coordinate_ascent_train(queries, ("f0", "f1"), seed=0)
        without = coordinate_ascent_train(queries[:-1], ("f0", "f1"), seed=0)
        assert np.array_equal(with_zero.weights, without.weights)


def reference_train(queries, d, metric_spec, restarts, seed, log=None):
    """Coordinate ascent with every query re-ranked at every candidate weight
    of every coordinate on every turn: candidates in list order, ordered by
    a two-key lexsort (descending score, ascending oer_id), metrics written
    out in numpy. Returns (weights, trace, metric_value); `log`, if given,
    gets (restart, coordinate, accepted) for each evaluation."""
    kind, _, at = metric_spec.partition("@")
    rows = np.concatenate([q.X for q in queries])
    mins, span = rows.min(axis=0), rows.max(axis=0) - rows.min(axis=0)
    trainable = [q for q in queries if (q.gains > 0).any()]
    Q, C = len(trainable), max(len(q.candidates) for q in trainable)
    col = C if at in ("", "all") else min(int(at), C)
    gains, X = np.zeros((Q, C)), np.zeros((Q, C, d))
    tie, pad = np.full((Q, C), C), np.ones((Q, C), dtype=bool)
    for qi, q in enumerate(trainable):
        n = len(q.candidates)
        gains[qi, :n] = q.gains
        tie[qi, :n][sorted(range(n), key=q.candidates.__getitem__)] = np.arange(n)
        pad[qi, :n] = False
        scaled = np.zeros_like(q.X)
        np.divide(q.X - mins, span, out=scaled, where=span > 0)
        X[qi, :n] = np.clip(scaled, 0.0, 1.0)
    ranks = np.arange(1.0, C + 1.0)
    discounts = 1.0 / np.log2(ranks + 1.0)

    def dcg(g):
        total = g[..., 0] * discounts[0]
        for j in range(1, col):
            total = total + g[..., j] * discounts[j]
        return total

    ideal = dcg(-np.sort(-gains, axis=-1))
    n_relevant = np.maximum((gains >= 1).sum(axis=-1), 1)
    denom = n_relevant if at in ("", "all") else np.minimum(n_relevant, int(at))

    def mean_metric(scores):
        keyed = -np.where(pad, -np.inf, scores)
        order = np.lexsort((np.broadcast_to(tie, scores.shape), keyed), axis=-1)
        g = np.take_along_axis(np.broadcast_to(gains, scores.shape), order, axis=-1)
        rel = g >= 1
        if kind == "ndcg":
            values = dcg(g) / ideal
        elif kind == "mrr":
            values = (rel / ranks).max(axis=-1)
        else:
            precision = np.cumsum(rel[..., :col], axis=-1) / ranks[:col]
            values = np.cumsum(precision * rel[..., :col], axis=-1)[..., -1] / denom
        return values.mean(axis=-1)

    best = None
    for r in range(restarts):
        w = (np.full(d, 1.0 / d) if r == 0
             else rng_for(seed, f"restart:{r}").uniform(-1.0, 1.0, d))
        scores = X @ w
        current = float(mean_metric(scores))
        trace = [current]
        for _ in range(MAX_SWEEPS):
            sweep_gain = 0.0
            for j in range(d):
                base = w[j] if w[j] != 0.0 else 1.0
                values = np.array([m * base for m in STEP_GRID]
                                  + [-m * base for m in STEP_GRID] + [0.0])
                batch = scores[None] + (values - w[j])[:, None, None] * X[:, :, j][None]
                metrics = mean_metric(batch)
                bi = int(np.argmax(metrics))
                gain = float(metrics[bi]) - current
                if log is not None:
                    log.append((r, j, gain > 0.0))
                if gain > 0.0:
                    w[j], scores, current = values[bi], batch[bi], float(metrics[bi])
                    trace.append(current)
                    sweep_gain = max(sweep_gain, gain)
            if sweep_gain <= SWEEP_TOL:
                break
        if best is None or current > best[0]:
            best = (current, w.copy(), trace)
    value, w, trace = best
    l1 = np.abs(w).sum()
    return (w / l1 if l1 > 0 else w), trace, value


# Feature values whose weighted sums round: 0.1 + 0.2 != 0.3, so scores hold
# near-ties that a constant shift can break or create.
FEATURE_VALUES = (0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 1.0)


@st.composite
def training_problems(draw):
    """1-6 queries of 1-8 candidates over 3 features, ids in random order.
    Each query's feature column is all zero, constant nonzero or free;
    a query may repeat its first row exactly."""
    d = 3
    queries = []
    for qi in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 8))
        ids = draw(st.permutations([f"oer{i}" for i in range(8)]))[:n]
        gains = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        X = np.zeros((n, d))
        for j in range(d):
            mode = draw(st.sampled_from(("zero", "constant", "free")))
            if mode == "constant":
                X[:, j] = draw(st.sampled_from(FEATURE_VALUES))
            elif mode == "free":
                X[:, j] = draw(st.lists(st.sampled_from((0.0,) + FEATURE_VALUES),
                                        min_size=n, max_size=n))
        if n > 1 and draw(st.booleans()):
            X[1], gains[1] = X[0], gains[0]
        queries.append(QueryFeatures(f"q{qi}", "r0", tuple(ids),
                                     np.asarray(gains, dtype=np.int64), X))
    if not any((q.gains > 0).any() for q in queries):
        queries[0].gains[0] = 2
    return queries


# Three queries on which treating the constant columns (the last two
# queries' f0) as unable to move a ranking changes the ndcg@3 trace: a
# constant shift reorders a near-tie through rounding.
CONSTANT_COLUMN_NEAR_TIE = [
    QueryFeatures("q0", "r0", ("oer2", "oer0", "oer1"), np.array([0, 1, 0]),
                  np.array([[0.0, 1.0], [0.0, 0.2], [0.0, 0.0]])),
    QueryFeatures("q1", "r0", ("oer1", "oer0"), np.array([0, 2]),
                  np.array([[0.7, 1.0 / 3.0], [0.7, 0.3]])),
    QueryFeatures("q2", "r0", ("oer2", "oer1", "oer0", "oer3"), np.array([2, 2, 0, 1]),
                  np.array([[0.3, 1.0], [0.3, 0.7], [0.3, 0.1], [0.3, 0.3]])),
]


# Two queries (q0 has no positive gain, so it only sets the normalization)
# on which f1 gains on two turns in a row: skipping a coordinate right after
# its own accepted step, as if its grid had not moved with its weight, drops
# the trace's last step under every spec but ndcg@1.
SECOND_STEP_ON_ONE_COORDINATE = [
    QueryFeatures("q0", "r0", ("oer0",), np.array([0]), np.zeros((1, 3))),
    QueryFeatures("q1", "r0", ("oer1", "oer0", "oer2", "oer3"), np.array([0, 1, 0, 0]),
                  np.array([[0.1, 0.0, 0.0], [0.1, 0.1, 0.0], [0.1, 0.7, 0.0],
                            [0.1, 1.0, 0.0]])),
]


class TestBitIdentity:
    @pytest.mark.parametrize("spec", ["ndcg@1", "ndcg@3", "ndcg@all", "map@3", "mrr"])
    @settings(max_examples=60, deadline=None)
    @given(problem=training_problems(), seed=st.integers(0, 3), restarts=st.integers(1, 2))
    @example(problem=CONSTANT_COLUMN_NEAR_TIE, seed=0, restarts=1)
    @example(problem=SECOND_STEP_ON_ONE_COORDINATE, seed=0, restarts=1)
    def test_training_matches_full_batch_reference(self, spec, problem, seed, restarts):
        d = problem[0].X.shape[1]
        model = coordinate_ascent_train(problem, tuple(f"f{j}" for j in range(d)), spec,
                                        restarts=restarts, seed=seed)
        weights, trace, value = reference_train(problem, d, spec, restarts, seed)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.trace == trace
        assert model.metric_value == value


# Four queries over three features; f_j is zero in the first j queries, so
# a batch's row count (4 - j queries re-ranked) names its coordinate.
NESTED_COLUMNS = [
    QueryFeatures("q0", "r0", ("oer1", "oer0", "oer2"), np.array([0, 2, 1]),
                  np.array([[0.5, 0.0, 0.0], [0.1, 0.0, 0.0], [0.3, 0.0, 0.0]])),
    QueryFeatures("q1", "r0", ("oer0", "oer4", "oer3", "oer2", "oer1"),
                  np.array([2, 2, 1, 2, 1]),
                  np.array([[0.1, 0.5, 0.0], [0.5, 1.0, 0.0], [1.0, 0.1, 0.0],
                            [0.7, 0.2, 0.0], [0.3, 0.5, 0.0]])),
    QueryFeatures("q2", "r0", ("oer2", "oer0", "oer4", "oer3", "oer1"),
                  np.array([0, 0, 0, 1, 2]),
                  np.array([[0.3, 1.0, 0.3], [1.0, 0.5, 0.7], [0.2, 0.5, 0.7],
                            [1.0, 1.0, 1.0], [0.1, 0.7, 0.3]])),
    QueryFeatures("q3", "r0", ("oer2", "oer1", "oer0"), np.array([1, 0, 0]),
                  np.array([[1.0, 0.7, 0.1], [0.2, 0.5, 1.0], [1.0, 0.2, 0.5]])),
]


def test_training_skips_only_evaluations_that_can_only_reject(monkeypatch):
    """No batch holds the step to the current weight, and a coordinate
    rejected with no step accepted since is not evaluated again: the sweep
    that ends a restart stops at the coordinate accepted last."""
    batches = []
    ranked_gains = RankingKernel.ranked_gains

    def spy(self, scores, width=None):
        batches.append(scores.shape)
        return ranked_gains(self, scores, width)

    monkeypatch.setattr(RankingKernel, "ranked_gains", spy)
    model = coordinate_ascent_train(NESTED_COLUMNS, ("f0", "f1", "f2"), restarts=2, seed=0)
    log = []
    assert reference_train(NESTED_COLUMNS, 3, "ndcg@3", 2, 0, log)[1] == model.trace

    evaluated = []  # per restart, the coordinate of each batch
    for shape in batches:
        if len(shape) == 2:  # a restart's first ranking
            evaluated.append([])
        else:
            assert shape[0] == 2 * len(STEP_GRID)
            evaluated[-1].append(len(NESTED_COLUMNS) - shape[1])
    assert evaluated == [[0, 1, 2, 0, 1, 2, 0, 1], [0, 1, 2, 0]]
    for r, coordinates in enumerate(evaluated):
        last = [j for rr, j, accepted in log if rr == r and accepted][-1]
        # a full sweep, then the one that ends the restart at `last`
        assert coordinates[-last - 2:] == [2, *range(last + 1)]
    # Evaluating every coordinate on every turn, as training did before it
    # skipped, takes 15 batches of 19 rows: 3 coordinates in each of the
    # 3 sweeps of restart 0 and the 2 of restart 1.
    assert len(log) == 15
    assert sum(map(len, evaluated)) == 12


class TestRank:
    def model(self, weights, names=("a", "b")):
        d = len(weights)
        return RankingModel(
            feature_names=tuple(names),
            weights=np.asarray(weights, dtype=float),
            metric_name="ndcg@3",
            metric_value=0.0,
            community="global",
            norm=NormRecord(np.zeros(d), np.ones(d)),
        )

    def test_zero_weights_rank_by_ascending_id(self):
        model = self.model([0.0, 0.0])
        ranked = rank(model, ["z", "a"], np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert [oer for oer, _ in ranked] == ["a", "z"]

    def test_single_candidate_score_is_dot_product(self):
        model = self.model([0.25, 0.75])
        ranked = rank(model, ["x"], np.array([[0.4, 0.8]]))
        assert ranked == [("x", pytest.approx(0.25 * 0.4 + 0.75 * 0.8))]

    def test_three_candidates_match_hand_dot_products(self):
        model = self.model([0.5, 0.5])
        X = np.array([[0.2, 0.2], [0.9, 0.1], [0.6, 0.8]])
        ranked = rank(model, ["a", "b", "c"], X)
        scores = [0.5 * row[0] + 0.5 * row[1] for row in X]
        order = oracle_rank_order(["a", "b", "c"], scores)
        assert [oer for oer, _ in ranked] == [["a", "b", "c"][i] for i in order]

    def test_no_candidates_rank_empty(self):
        assert rank(self.model([1.0, 0.0]), [], np.zeros((0, 2))) == []

    def test_rank_query_returns_gains_in_rank_order(self):
        queries = random_problem(2)
        model = coordinate_ascent_train(queries, ("f0", "f1"), seed=0)
        q = queries[0]
        ranked_gains = rank_query(model, q)
        norm_X = model.norm.apply(q.X)
        scores = norm_X @ model.weights
        order = oracle_rank_order(list(q.candidates), list(scores))
        assert ranked_gains == [int(q.gains[i]) for i in order]

    @pytest.mark.parametrize("seed", [2, 5, 9])
    def test_cv_layout_ranks_as_rank_query(self, seed):
        """The gains cross-validation ranks, through `RankingKernel.layout`,
        are `rank_query`'s for every query: ragged lists, ids out of
        position order, and exactly tied candidates among them."""
        g = np.random.default_rng(seed)
        queries = []
        for q in random_problem(seed, n_queries=10, n_candidates=6, d=3):
            n = int(g.integers(1, 7))
            X = q.X[:n].copy()
            if n > 2:
                X[2] = X[0]  # a tie, whatever the weights
            ids = tuple(f"oer{j:02d}" for j in g.permutation(n))
            queries.append(QueryFeatures(q.query_id, q.reader_id, ids, q.gains[:n], X))
        model = coordinate_ascent_train(queries, ("f0", "f1", "f2"), restarts=2, seed=seed)
        kernel = RankingKernel([q.gains for q in queries], [q.candidates for q in queries])
        ranked = kernel.ranked_gains(kernel.layout([model.score(q.X) for q in queries]))
        for qi, q in enumerate(queries):
            assert ranked[qi, :len(q.candidates)].tolist() == rank_query(model, q)


class TestTrainCommunitized:
    def queries_for(self, readers, seed=0, per_reader=4):
        g = np.random.default_rng(seed)
        out = []
        for r in readers:
            for i in range(per_reader):
                gains = g.integers(0, 3, 4)
                X = g.uniform(0, 1, (4, 2))
                X[:, 0] = gains / 2.0
                out.append(make_query(f"{r}-q{i}", r, gains, X))
        return out

    def test_single_community_model_equals_global(self):
        queries = self.queries_for(["r1", "r2", "r3"])
        assignment = {"r1": 0, "r2": 0, "r3": 0}
        rset = train_communitized(
            queries, assignment, ("f0", "f1"), PipelineConfig(threshold=5), 3
        )
        assert set(rset.models) == {0}
        assert np.array_equal(rset.models[0].weights, rset.global_model.weights)
        assert rset.models[0].community == "0"
        assert rset.global_model.community == "global"

    def test_small_community_falls_back_to_global(self):
        queries = self.queries_for(["r1", "r2"]) + self.queries_for(["r9"], per_reader=1)
        assignment = {"r1": 0, "r2": 0, "r9": 1}
        rset = train_communitized(
            queries, assignment, ("f0", "f1"), PipelineConfig(threshold=5), 3
        )
        assert 1 not in rset.models
        assert rset.resolve(1) is rset.global_model
        assert rset.resolve(0) is rset.models[0]
        assert rset.resolve(None) is rset.global_model

    def test_missing_assignment_rejected(self):
        queries = self.queries_for(["r1"])
        with pytest.raises(ValueError, match="r1"):
            train_communitized(queries, {}, ("f0", "f1"), PipelineConfig(), 0)

    def test_no_judgments_rejected(self):
        with pytest.raises(ValueError):
            train_communitized([], {}, ("f0", "f1"), PipelineConfig(), 0)

    def test_opposite_preferences_get_opposite_weights(self):
        # Community 0 likes feature 0, community 1 likes feature 1.
        g = np.random.default_rng(7)
        queries = []
        for c, fav in ((0, 0), (1, 1)):
            for i in range(12):
                gains = g.integers(0, 3, 4)
                X = g.uniform(0, 1, (4, 2))
                X[:, fav] = gains / 2.0
                X[:, 1 - fav] = (2 - gains) / 2.0
                queries.append(make_query(f"c{c}-q{i}", f"r{c}", gains, X))
        assignment = {"r0": 0, "r1": 1}
        rset = train_communitized(queries, assignment, ("f0", "f1"), PipelineConfig(), 0)
        w0, w1 = rset.models[0].weights, rset.models[1].weights
        assert w0[0] > w0[1]
        assert w1[1] > w1[0]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")


class TestTrainModels:
    """`train_models` runs jobs in forked workers when more than one CPU is
    usable; `usable_cpus` is patched to pick the pooled or the serial path."""

    @needs_fork
    def test_pooled_models_equal_serial_bit_for_bit(self, monkeypatch):
        queries = TestTrainCommunitized().queries_for(["r1", "r2", "r3", "r4"], per_reader=6)
        assignment = {"r1": 0, "r2": 0, "r3": 1, "r4": 2}
        sets = []
        for cpus in (2, 1):
            monkeypatch.setattr(ranker, "usable_cpus", lambda: cpus)
            sets.append(train_communitized(queries, assignment, ("f0", "f1"),
                                           PipelineConfig(threshold=5), 3))
        pooled, serial = sets
        assert set(pooled.models) == set(serial.models) == {0, 1, 2}
        for a, b in zip([pooled.global_model, *pooled.models.values()],
                        [serial.global_model, *serial.models.values()]):
            assert a.community == b.community
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.trace == b.trace
            assert a.metric_value == b.metric_value
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ranker, "usable_cpus", lambda: 2)
        untrainable = [make_query("q0", "r0", [0, 0, 0], np.zeros((3, 2)))]
        jobs = [TrainJob(random_problem(1), ("f0", "f1"), "ndcg@3", 1, 0, "global"),
                TrainJob(untrainable, ("f0", "f1"), "ndcg@3", 1, 0, "0")]
        with pytest.raises(ValueError) as exc:
            train_models(jobs)
        assert str(exc.value) == "untrainable: no query with a positive gain"
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_workers_exit_when_the_caller_is_killed(self):
        # The caller and its workers hold the pipe's write end: each job
        # writes one byte to it and then sleeps. Once every one of them
        # has exited, the read end sees end of file.
        code = (
            "import os, sys, time\n"
            "from oerrec import ranker\n"
            "def stuck():\n"
            "    os.write(int(sys.argv[1]), b'x')\n"
            "    time.sleep(60)\n"
            "ranker.coordinate_ascent_train = stuck\n"
            "ranker.usable_cpus = lambda: 2\n"
            "ranker.train_models([(), ()])\n")
        r, w = os.pipe()
        proc = subprocess.Popen([sys.executable, "-c", code, str(w)], pass_fds=(w,))
        os.close(w)
        try:
            started = b""
            while len(started) < 2 and select.select([r], [], [], 30)[0]:
                chunk = os.read(r, 2)
                if not chunk:
                    break
                started += chunk
            assert started == b"xx"
            proc.kill()
            proc.wait(timeout=10)
            assert select.select([r], [], [], 10)[0], "a worker outlived its caller"
            assert os.read(r, 1) == b""
        finally:
            proc.kill()
            proc.wait(timeout=10)
            os.close(r)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_multiprocessing_imported_only_for_a_pool(self, cpus):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from oerrec import ranker\n"
            "from oerrec.config import PipelineConfig\n"
            "from oerrec.rankfeatures import QueryFeatures\n"
            f"ranker.usable_cpus = lambda: {cpus}\n"
            "g = np.random.default_rng(0)\n"
            "qs = [QueryFeatures(f'q{i}', f'r{i % 2}', ('a', 'b', 'c'), np.array([2, 1, 0]),\n"
            "                    g.uniform(0, 1, (3, 2))) for i in range(8)]\n"
            "rset = ranker.train_communitized(qs, {'r0': 0, 'r1': 1}, ('f0', 'f1'),\n"
            "                                 PipelineConfig(restarts=1, threshold=2), 0)\n"
            "print(len(rset.models), 'multiprocessing' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        pooled = cpus > 1 and hasattr(os, "fork")
        assert proc.stdout == f"2 {pooled}\n"


class TestModelIO:
    def test_model_round_trip(self, tmp_path):
        queries = random_problem(1)
        model = coordinate_ascent_train(queries, ("f0", "f1"), seed=5)
        path = tmp_path / "model.json"
        dump_json(path, model.to_dict(), {"config_hash": "x", "seed": 5})
        again = read_model(path)
        assert again.feature_names == model.feature_names
        assert np.array_equal(again.weights, model.weights)
        assert again.metric_value == model.metric_value
        assert np.array_equal(again.norm.mins, model.norm.mins)
        assert '"_meta"' in path.read_text()

    def test_rankerset_round_trip(self, tmp_path):
        queries = TestTrainCommunitized().queries_for(["r1", "r2"])
        assignment = {"r1": 0, "r2": 1}
        rset = train_communitized(
            queries, assignment, ("f0", "f1"), PipelineConfig(threshold=2), 1
        )
        write_rankerset(rset, tmp_path, {"config_hash": "x", "seed": 1})
        again = read_rankerset(tmp_path)
        assert set(again.models) == set(rset.models)
        assert again.threshold == rset.threshold
        for c in rset.models:
            assert np.array_equal(again.models[c].weights, rset.models[c].weights)
        assert np.array_equal(
            again.global_model.weights, rset.global_model.weights
        )


# sha256 of the float64 bytes of each model's weights and trace, as
# `train-ranker` wrote them for the acceptance gate's c9 configuration
# (`--seed 3 --readers 24 --restarts 2`) before training was made faster.
# A speedup that moves any bit of any model fails here.
PINNED_C9 = {
    "global": ("9dd3296399544c309378eb0c1bdec610c55197c977daac947efc8178acbfeebd",
               "29da70ce42a68a29feccd773dd25c7965be7d23e197b13ccb1ef179b3d26de25"),
    "c0": ("6862eb7ce10ca9632b7329d466c30dd8bfe7c32e6d3b28ec60bd898978489691",
           "5b89f8aba0b68a6592ad5a9831b9feacdfbd7926cdae00c6bce02e2d00bc2339"),
    "c1": ("ad29420d2e0c7bf7e7836510a1bb2a0e6e508002f898494a2c9a3a0c07c1b16a",
           "709c6cead755f3276cc298a75ef0d768c44601eec553698e01a548ddda8c0f56"),
    "c2": ("adbee2003559e22506402c7878be647874ebafcd1642c2b363b35968c003eaf3",
           "b9eb7766230d97e4fea02a30de59576168dd1f5d12ad4633aedb526e0356a64f"),
}


def test_c9_models_keep_their_pinned_bits(tmp_path, capsys):
    run = ["--in", str(tmp_path), "--out", str(tmp_path), "--seed", "3"]
    assert cli_main(["simulate", *run[2:], "--readers", "24"]) == 0  # reads no --in
    for stage in ("ingest", "featurize", "cluster", "train-community-classifier",
                  "assign", "graph-build", "rankfeat"):
        assert cli_main([stage, *run]) == 0
    assert cli_main(["train-ranker", *run, "--restarts", "2"]) == 0
    capsys.readouterr()
    rset = read_rankerset(tmp_path)
    models = {"global": rset.global_model,
              **{f"c{c}": m for c, m in sorted(rset.models.items())}}
    digests = {name: (hashlib.sha256(m.weights.tobytes()).hexdigest(),
                      hashlib.sha256(np.asarray(m.trace, dtype=np.float64).tobytes()).hexdigest())
               for name, m in models.items()}
    assert digests == PINNED_C9


# sha256 of `report.json` from `evaluate --mode cv` on the c9 configuration
# (`--seed 3 --readers 24 --folds 4 --restarts 2`, `--in corpus --out run`),
# taken before training skipped the evaluations that can only reject. It
# holds every query's metrics under the models of each CV fold.
PINNED_C9_REPORT = "3c91f5c2d6d5b0cc761dc4e3b94a68a3ed015b5cf3662343b9ab0c44430bee18"


def test_c9_cv_report_keeps_its_pinned_bytes(tmp_path, monkeypatch, capsys):
    """Paths are relative, so the `_meta` overrides are the same in any
    directory."""
    monkeypatch.chdir(tmp_path)
    run = ["--in", "corpus", "--out", "run", "--seed", "3"]
    assert cli_main(["simulate", "--out", "corpus", "--seed", "3", "--readers", "24"]) == 0
    for stage in ("ingest", "featurize", "cluster", "train-community-classifier",
                  "assign", "graph-build", "rankfeat"):
        assert cli_main([stage, *run]) == 0
    assert cli_main(["evaluate", *run, "--mode", "cv", "--folds", "4",
                     "--restarts", "2"]) == 0
    capsys.readouterr()
    report = (tmp_path / "run" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == PINNED_C9_REPORT
