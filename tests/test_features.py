"""Feature extraction: location clusters, TF groups, ratings, replies."""

import json

import numpy as np
import pytest

from oerrec.corpus import LOCATED_KINDS, EventKind, parse_corpus
from oerrec.features import (
    GROUP_ORDER,
    RBF_GROUPS,
    RPF_GROUPS,
    FeatureGroup,
    FeatureMatrix,
    build_location_clusters,
    combine_groups,
    extract_features,
    features_from_dict,
    features_to_dict,
    location_point,
)
from oerrec.simgen import SimConfig, generate
from oracles import oracle_kmedoids_best


def quote_line(event_id, reader, paper, page, bbox, text, ts):
    return json.dumps(
        {"event": event_id, "kind": "quote", "reader": reader, "paper": paper,
         "page": page, "bbox": list(bbox), "quote_text": text,
         "content_text": "", "target": None, "oer": None, "grade": None,
         "ts": ts}
    )


class TestLocationClusters:
    def test_location_point_embedding(self):
        # Page offsets dominate the vertical axis; x is the box center.
        assert location_point(2, (0.2, 0.4, 0.4, 0.6)) == pytest.approx((2.5, 0.3))

    def test_identical_bboxes_collapse_to_one_cluster(self):
        lines = [
            quote_line(f"e{i}", "r1", "p1", 3, (0.1, 0.1, 0.3, 0.2), "x", i)
            for i in range(5)
        ]
        model = build_location_clusters(parse_corpus(lines), k_loc=4)
        assert len(model.centers["p1"]) == 1

    def test_zero_events_empty_model(self):
        model = build_location_clusters(parse_corpus([]), k_loc=3)
        assert model.centers == {}

    def test_two_tight_groups_found_by_k2(self):
        # Three quotes at the top of page 0, three at the bottom of page 9.
        bbs = [(x, 0.0, x + 0.1, 0.1) for x in (0.1, 0.2, 0.3)]
        bbs += [(x, 0.85, x + 0.1, 0.95) for x in (0.1, 0.2, 0.3)]
        lines = [
            quote_line(f"e{i}", "r1", "p1", 0 if i < 3 else 9, bb, "x", i)
            for i, bb in enumerate(bbs)
        ]
        corpus = parse_corpus(lines)
        model = build_location_clusters(corpus, k_loc=2)
        assert len(model.centers["p1"]) == 2
        assigned = [model.cluster[f"e{i}"] for i in range(len(bbs))]
        assert len(set(assigned[:3])) == 1
        assert len(set(assigned[3:])) == 1
        assert assigned[0] != assigned[3]
        # The chosen centers are optimal under exhaustive medoid-pair search.
        pts = [
            location_point(0 if i < 3 else 9, bb) for i, bb in enumerate(bbs)
        ]
        best_cost, _ = oracle_kmedoids_best([list(p) for p in pts], 2)
        embedded_centers = [
            location_point(p, (cx, cy, cx, cy)) for p, cx, cy in model.centers["p1"]
        ]
        cost = sum(
            min(np.hypot(p[0] - c[0], p[1] - c[1]) for c in embedded_centers)
            for p in pts
        )
        assert cost == pytest.approx(best_cost, abs=1e-9)

    def test_equidistant_event_goes_to_the_lower_center(self):
        # Three quotes centered at x = 0.25, three at x = 0.75 and one at
        # x = 0.5: every coordinate is a sum of powers of two, so the middle
        # quote is exactly 0.25 from both centers.
        xs = [0.25] * 3 + [0.75] * 3 + [0.5]
        lines = [quote_line(f"e{i}", "r1", "p1", 0, (x - 0.125, 0.25, x + 0.125, 0.75), "x", i)
                 for i, x in enumerate(xs)]
        model = build_location_clusters(parse_corpus(lines), k_loc=2)
        centers = model.centers["p1"]
        assert sorted(cx for _, cx, _ in centers) == [0.25, 0.75]
        mid = location_point(0, (0.375, 0.25, 0.625, 0.75))
        d = [np.hypot(c[0] - mid[0], c[1] - mid[1])
             for c in (location_point(p, (cx, cy, cx, cy)) for p, cx, cy in centers)]
        assert d[0] == d[1] == 0.25
        assert model.cluster["e6"] == 0
        assert [model.cluster[f"e{i}"] for i in range(6)] == [
            [cx for _, cx, _ in centers].index(x) for x in xs[:6]]

    @pytest.mark.parametrize("seed", range(3))
    def test_cluster_is_the_nearest_embedded_center(self, seed):
        corpus = generate(SimConfig(n_readers=12, n_communities=3,
                                    events_per_reader=6.0, seed=seed)).corpus
        model = build_location_clusters(corpus, k_loc=3, seed=seed)
        located = [e for e in corpus.events.values() if e.kind in LOCATED_KINDS]
        assert located and set(model.cluster) == {e.event_id for e in located}
        for e in located:
            v, x = location_point(e.page, e.bbox)
            best, best_d = None, None
            for ci, (p, cx, cy) in enumerate(model.centers[e.paper_id]):
                cv, cxx = location_point(p, (cx, cy, cx, cy))
                d = np.hypot(cv - v, cxx - x)
                if best_d is None or d < best_d:  # ties keep the lower index
                    best, best_d = ci, d
            assert model.cluster[e.event_id] == best, e.event_id

    def test_cluster_count_capped_by_distinct_points(self, toy_corpus):
        model = build_location_clusters(toy_corpus, k_loc=10)
        assert len(model.centers["p1"]) == 3  # three distinct quote locations
        assert len(model.centers["p2"]) == 1

    def test_deterministic_for_seed(self, toy_corpus):
        a = build_location_clusters(toy_corpus, k_loc=2, seed=5)
        b = build_location_clusters(toy_corpus, k_loc=2, seed=5)
        assert a.centers == b.centers

    def test_round_trip_dict(self, toy_corpus):
        # features.json carries the model as its settings["location_model"]
        model = build_location_clusters(toy_corpus, k_loc=2)
        d = json.loads(json.dumps(model.to_dict()))
        assert d["k_loc"] == model.k_loc
        assert {p: [tuple(c) for c in cs] for p, cs in d["centers"].items()} == model.centers


class TestExtractFeatures:
    @pytest.fixture
    def fm(self, toy_corpus):
        return extract_features(toy_corpus, k_loc=2, seed=0)

    def test_reader_order_and_groups(self, fm):
        assert fm.reader_ids == ("r1", "r2", "r3")
        assert tuple(fm.groups) == GROUP_ORDER
        assert fm.has_rpf == {"r1": True, "r2": True, "r3": False}

    def test_rpf_hand_enumeration(self, fm):
        # Courses: {cs101, ml201}; skills: {prog, stats} scaled by /4.
        C = fm.group("RPF-C")
        assert C.labels == ("cs101", "ml201")
        assert np.array_equal(C.matrix, [[1, 1], [1, 0], [0, 0]])
        TB = fm.group("RPF-TB")
        assert TB.labels == ("prog", "stats")
        assert np.array_equal(TB.matrix, [[1.0, 0.5], [0.25, 0.0], [0.0, 0.0]])

    def test_quote_location_counts(self, fm, toy_corpus):
        model_labels = fm.group("QuoteLocation").labels
        assert fm.group("CQLocation").labels == model_labels
        QL = fm.group("QuoteLocation").matrix
        # r1 made two page-0 quotes on p1 (one cluster at k_loc=2), r2 one
        # page-4 quote; r3 none.
        assert QL.sum() == 3
        assert QL[0].sum() == 2
        assert len(np.flatnonzero(QL[0])) == 1
        assert QL[1].sum() == 1
        assert np.flatnonzero(QL[0])[0] != np.flatnonzero(QL[1])[0]
        assert QL[2].sum() == 0

    def test_cq_location_counts(self, fm):
        CQL = fm.group("CQLocation").matrix
        assert CQL[0].sum() == 0  # r1: no comments or questions
        assert CQL[1].sum() == 1  # r2: the page-4 question
        assert CQL[2].sum() == 1  # r3: the p2 comment

    def test_quote_text_hand_enumeration(self, fm):
        g = fm.group("QuoteText")
        assert g.labels == ("graph", "hash", "index", "table", "walk")
        assert np.array_equal(
            g.matrix,
            [[3, 0, 0, 0, 2], [0, 1, 1, 1, 0], [0, 0, 0, 0, 0]],
        )

    def test_question_text_hand_enumeration(self, fm):
        g = fm.group("QuestionText")
        assert g.labels == ("so", "sparse", "why")
        assert np.array_equal(g.matrix, [[0, 0, 0], [1, 1, 1], [0, 0, 0]])

    def test_cq_text_groups_hand_enumeration(self, fm):
        gq = fm.group("CQQuoteText")
        assert gq.labels == ("hash", "net", "neural", "table")
        assert np.array_equal(gq.matrix, [[0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0]])
        gc = fm.group("CQContentText")
        assert gc.labels == ("figure", "neural", "nice", "so", "sparse", "why")
        assert np.array_equal(
            gc.matrix,
            [[0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]],
        )

    def test_oer_rating_not_sure_absent(self, fm):
        g = fm.group("OerRating")
        assert g.labels == ("c1", "s1", "v1", "w1")
        # r2 rated v1 Good (2) and c1 Bad (0); r3's NotSure leaves zero.
        assert np.array_equal(
            g.matrix, [[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]]
        )

    def test_latest_rating_wins(self, toy_streams):
        extra = {"event": "e10", "kind": "rating", "reader": "r2",
                 "paper": "p1", "page": 4, "bbox": [0.5, 0.8, 0.9, 0.95],
                 "quote_text": "", "content_text": "", "target": None,
                 "oer": "v1", "grade": "OK", "ts": 99}
        corpus = parse_corpus(
            toy_streams["events"] + [json.dumps(extra)],
            toy_streams["readers"], toy_streams["oers"], toy_streams["judgments"],
        )
        fm = extract_features(corpus, k_loc=2)
        v1_col = fm.group("OerRating").labels.index("v1")
        assert fm.group("OerRating").matrix[1, v1_col] == 1.0

    def test_reply_relation_symmetric(self, fm):
        g = fm.group("ReplyRelation")
        assert g.labels == ("r1", "r2", "r3")
        assert np.array_equal(g.matrix, g.matrix.T)
        assert np.array_equal(g.matrix, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    def test_reader_with_no_events_all_zero_rbf(self, toy_streams):
        profile = {"reader": "r4", "courses": ["cs101"], "skills": {"prog": 2}}
        corpus = parse_corpus(
            toy_streams["events"],
            toy_streams["readers"] + [json.dumps(profile)],
            toy_streams["oers"], toy_streams["judgments"],
        )
        fm = extract_features(corpus, k_loc=2)
        i = fm.reader_ids.index("r4")
        for name in RBF_GROUPS:
            assert not fm.group(name).matrix[i].any()

    def test_extraction_is_pure(self, toy_corpus):
        a = features_to_dict(extract_features(toy_corpus, k_loc=2, seed=3))
        b = features_to_dict(extract_features(toy_corpus, k_loc=2, seed=3))
        assert a == b

    def test_round_trip_dict(self, fm):
        again = features_from_dict(features_to_dict(fm))
        assert again.reader_ids == fm.reader_ids
        assert again.has_rpf == fm.has_rpf
        for name in GROUP_ORDER:
            assert again.group(name).labels == fm.group(name).labels
            assert np.array_equal(again.group(name).matrix, fm.group(name).matrix)


class TestReplyRelation:
    @pytest.mark.parametrize("seed", range(5))
    def test_upper_triangle_equals_corpus_reply_pairs(self, seed):
        corpus = generate(SimConfig(n_readers=12, n_communities=3,
                                    events_per_reader=4.0,
                                    queries_per_reader=1.0, seed=seed)).corpus
        # a self-reply and a dangling reply count in neither
        first = next(iter(corpus.events.values()))
        for event_id, target in (("x-self", first.event_id), ("x-dangling", "gone")):
            corpus.events[event_id] = first._replace(
                event_id=event_id, kind=EventKind.REPLY,
                target_event_id=target, oer_id=None, grade=None)
        fm = extract_features(corpus, k_loc=2, seed=0)
        rows, cols = np.nonzero(np.triu(fm.group("ReplyRelation").matrix, 1))
        cells = {frozenset((fm.reader_ids[i], fm.reader_ids[j]))
                 for i, j in zip(rows, cols)}
        assert cells and cells == corpus.reply_pairs()
        # what the cluster stage reads back from features.json
        assert features_from_dict(features_to_dict(fm)).reply_pairs() == cells


def two_group_matrix():
    a = FeatureGroup(("a",), np.array([[3.0]]))
    b = FeatureGroup(("b",), np.array([[4.0]]))
    return FeatureMatrix(("r1",), {"RPF-C": a, "RPF-TB": b}, {"r1": True})


class TestCombineGroups:
    def test_single_group_unit_weight_is_l2_normalized(self, toy_corpus):
        fm = extract_features(toy_corpus, k_loc=2)
        X = combine_groups(fm, ("QuoteText",))
        M = fm.group("QuoteText").matrix
        for i in range(3):
            norm = np.linalg.norm(M[i])
            expected = M[i] / norm if norm else M[i]
            assert np.allclose(X[i], expected)

    def test_weighted_two_groups_hand_case(self):
        # Raw values (3,) and (4,) L2-normalize to 1 each; weights (1, 2)
        # then scale the concatenated vector to (1, 2).
        X = combine_groups(
            two_group_matrix(), ("RPF-C", "RPF-TB"),
            weights={"RPF-C": 1.0, "RPF-TB": 2.0},
        )
        assert np.allclose(X, [[1.0, 2.0]])

    def test_zero_rows_stay_zero(self, toy_corpus):
        fm = extract_features(toy_corpus, k_loc=2)
        X = combine_groups(fm, ("QuestionText",))
        assert not X[0].any()  # r1 asked no questions

    def test_identical_readers_identical_vectors(self, toy_streams):
        twin = {"reader": "r9", "courses": ["cs101"], "skills": {"prog": 1}}
        corpus = parse_corpus(
            toy_streams["events"],
            toy_streams["readers"] + [json.dumps(twin)],
            toy_streams["oers"], toy_streams["judgments"],
        )
        fm = extract_features(corpus, k_loc=2)
        X = combine_groups(fm, RPF_GROUPS)
        i, j = fm.reader_ids.index("r2"), fm.reader_ids.index("r9")
        assert np.array_equal(X[i], X[j])

    def test_missing_rpf_readers_keep_zero_rpf_cells(self, toy_corpus):
        fm = extract_features(toy_corpus, k_loc=2)
        X = combine_groups(fm, RPF_GROUPS)
        assert not fm.has_rpf["r3"]
        assert not X[fm.reader_ids.index("r3")].any()

    def test_groups_concatenate_in_canonical_order(self, toy_corpus):
        fm = extract_features(toy_corpus, k_loc=2)
        X = combine_groups(fm, ("QuoteText", "RPF-C"))
        expected = [combine_groups(fm, (g,)) for g in ("RPF-C", "QuoteText")]
        assert np.array_equal(X, np.concatenate(expected, axis=1))

    @pytest.mark.parametrize("groups, weights", [
        (RPF_GROUPS, None),
        (RPF_GROUPS, {"RPF-TB": 5.0}),
        (RBF_GROUPS, {"QuoteText": 0.5, "ReplyRelation": 3.0}),
        (GROUP_ORDER, None),
    ])
    def test_row_subset_equals_combining_the_subset(self, groups, weights):
        # what cluster_profiles relies on when it slices the profile-bearing rows
        fm = extract_features(generate(SimConfig(
            n_readers=24, n_communities=3, events_per_reader=4.0,
            queries_per_reader=1.0, seed=2)).corpus, k_loc=3, seed=0)
        X = combine_groups(fm, groups, weights)
        for rows in ([5], list(range(0, 24, 2)), [i for i in range(24) if i % 4 != 3]):
            # those readers' features alone, built by hand
            readers = tuple(fm.reader_ids[i] for i in rows)
            alone = FeatureMatrix(
                readers,
                {n: FeatureGroup(g.labels, g.matrix[rows]) for n, g in fm.groups.items()},
                {r: fm.has_rpf[r] for r in readers})
            assert X[rows].tobytes() == combine_groups(alone, groups, weights).tobytes()

    def test_rejects_empty_or_unknown_groups(self, toy_corpus):
        fm = extract_features(toy_corpus, k_loc=2)
        with pytest.raises(ValueError):
            combine_groups(fm, ())
        with pytest.raises(KeyError):
            combine_groups(fm, ("NoSuchGroup",))

    def test_rejects_weight_of_a_group_not_combined(self):
        with pytest.raises(ValueError, match=r"'RPF-TB'.*\['RPF-C'\]"):
            combine_groups(
                two_group_matrix(), ("RPF-C",), weights={"RPF-TB": 2.0}
            )

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            combine_groups(
                two_group_matrix(), ("RPF-C",), weights={"RPF-C": 0.0}
            )
