"""Reader feature groups: profile features (courses, skill ordinals) and the
eight behavior groups (quote/comment locations, term frequencies, OER
ratings, reply adjacency), assembled into per-reader unified vectors.

Everything here is a pure function of (corpus, k_loc, seed); re-running
yields bit-identical matrices. Reader rows are always ordered by sorted
reader id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, EventKind, Grade, LOCATED_KINDS
from .kmedoids import kmedoids
from .text import TOKENIZER_RECORD, term_counts
from .util import fork_seed, rng_for

# Group order is fixed; serialized artifacts and unified vectors follow it.
GROUP_ORDER = (
    "RPF-C", "RPF-TB",
    "QuoteLocation", "QuoteText", "QuestionText", "OerRating",
    "CQLocation", "CQQuoteText", "CQContentText", "ReplyRelation",
)
RPF_GROUPS = ("RPF-C", "RPF-TB")
RBF_GROUPS = tuple(g for g in GROUP_ORDER if g not in RPF_GROUPS)

# Vertical page flow dominates reading position: one page of vertical extent
# counts as much as the full page height.
PAGE_SCALE = 1.0


def location_point(page: int, bbox: tuple[float, float, float, float]) -> tuple[float, float]:
    """Embed (page, bbox) into the 2-d space the location clustering uses."""
    x0, y0, x1, y1 = bbox
    return (PAGE_SCALE * page + (y0 + y1) / 2.0, (x0 + x1) / 2.0)


@dataclass
class LocationClusterModel:
    """Per-paper clustering of event locations.

    centers[paper_id] is an ordered list of raw (page, x_center, y_center)
    medoid locations; cluster[event_id] is the index of the center nearest
    to that located event in the embedded (page + y_center, x_center)
    space, ties to the lower index.
    """

    k_loc: int
    centers: dict[str, list[tuple[int, float, float]]] = field(default_factory=dict)
    cluster: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "k_loc": self.k_loc,
            "centers": {p: [list(c) for c in cs] for p, cs in sorted(self.centers.items())},
        }


def build_location_clusters(corpus: Corpus, k_loc: int = 10, seed: int = 0) -> LocationClusterModel:
    """Cluster located events (quotes, comments, questions) per paper.

    Papers with fewer distinct embedded locations than k_loc get one cluster
    per distinct location. Zero located events yield an empty model.
    """
    if k_loc < 1:
        raise ValueError(f"k_loc must be >= 1, got {k_loc}")
    by_paper: dict[str, list] = {}
    for event in corpus.events.values():
        if event.kind in LOCATED_KINDS:
            by_paper.setdefault(event.paper_id, []).append(event)

    model = LocationClusterModel(k_loc=k_loc)
    for paper_id in sorted(by_paper):
        events = sorted(by_paper[paper_id], key=lambda e: e.event_id)
        pts = np.array([location_point(e.page, e.bbox) for e in events])
        k = min(k_loc, len({tuple(p) for p in pts}))
        rng = rng_for(seed, f"loc:{paper_id}")
        medoids = list(kmedoids(pts, k, rng, metric="euclidean").medoid_indices)
        model.centers[paper_id] = [
            (events[m].page,
             (events[m].bbox[0] + events[m].bbox[2]) / 2.0,
             (events[m].bbox[1] + events[m].bbox[3]) / 2.0)
            for m in medoids
        ]
        # A medoid's point is its center's embedding, as (c + c) / 2 == c, so
        # these are exact distances to the centers; argmin ties to the lower
        # index. The kmedoids assignment is not reused: it comes from
        # Gram-trick distances (pairwise_distances), whose rounding may split
        # exact ties, such as those of quantized bboxes, the other way.
        nearest = np.argmin(np.hypot(pts[:, None, 0] - pts[medoids, 0],
                                     pts[:, None, 1] - pts[medoids, 1]), axis=1)
        model.cluster.update(zip((e.event_id for e in events), nearest.tolist()))
    return model


@dataclass
class FeatureGroup:
    labels: tuple[str, ...]
    matrix: np.ndarray  # (n_readers, len(labels))

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass
class FeatureMatrix:
    reader_ids: tuple[str, ...]  # sorted
    groups: dict[str, FeatureGroup]
    has_rpf: dict[str, bool]
    settings: dict = field(default_factory=dict)

    def group(self, name: str) -> FeatureGroup:
        if name not in self.groups:
            raise KeyError(f"unknown feature group {name!r}; have {sorted(self.groups)}")
        return self.groups[name]

    def reply_pairs(self) -> set[frozenset[str]]:
        """Reader pairs with a nonzero ReplyRelation cell: the `reply_pairs()`
        of the corpus these features were extracted from."""
        rows, cols = np.nonzero(np.triu(self.group("ReplyRelation").matrix, 1))
        return {frozenset((self.reader_ids[i], self.reader_ids[j]))
                for i, j in zip(rows, cols)}


def extract_rpf(corpus: Corpus) -> dict[str, FeatureGroup]:
    """Profile groups: course membership (boolean) and skill ordinals in [0,1].

    Skill level v in 1..4 maps to v/4 so that an absent skill (0) stays
    distinct from every declared level.
    """
    readers = tuple(sorted(corpus.readers))
    courses = sorted({c for r in corpus.readers.values() for c in r.courses})
    skills = sorted({s for r in corpus.readers.values() for s in r.skills})
    C = np.zeros((len(readers), len(courses)))
    T = np.zeros((len(readers), len(skills)))
    course_idx = {c: j for j, c in enumerate(courses)}
    skill_idx = {s: j for j, s in enumerate(skills)}
    for i, rid in enumerate(readers):
        profile = corpus.readers[rid]
        for c in profile.courses:
            C[i, course_idx[c]] = 1.0
        for s, level in profile.skills.items():
            T[i, skill_idx[s]] = level / 4.0
    return {"RPF-C": FeatureGroup(tuple(courses), C),
            "RPF-TB": FeatureGroup(tuple(skills), T)}


def extract_rbf(corpus: Corpus, loc_model: LocationClusterModel) -> dict[str, FeatureGroup]:
    """The eight behavior groups of the feature table, one row per reader."""
    readers = tuple(sorted(corpus.readers))
    ridx = {r: i for i, r in enumerate(readers)}
    by_kind: dict[EventKind, list] = {kind: [] for kind in EventKind}
    for event in corpus.events.values():
        by_kind[event.kind].append(event)
    quotes, questions = by_kind[EventKind.QUOTE], by_kind[EventKind.QUESTION]
    cq = by_kind[EventKind.COMMENT] + questions

    # Each paper's location columns follow those of the papers sorted before it.
    first_col: dict[str, int] = {}
    loc_labels: list[str] = []
    for paper_id in sorted(loc_model.centers):
        first_col[paper_id] = len(loc_labels)
        loc_labels.extend(f"{paper_id}:{ci}" for ci in range(len(loc_model.centers[paper_id])))

    def location_group(events) -> FeatureGroup:
        M = np.zeros((len(readers), len(loc_labels)))
        for e in events:
            M[ridx[e.reader_id], first_col[e.paper_id] + loc_model.cluster[e.event_id]] += 1.0
        return FeatureGroup(tuple(loc_labels), M)

    def text_group(events, attr: str) -> FeatureGroup:
        return FeatureGroup(*term_counts(((ridx[e.reader_id], getattr(e, attr)) for e in events),
                                         len(readers)))

    # Latest rating wins per (reader, oer), later events breaking timestamp
    # ties; NotSure leaves the cell absent.
    oer_ids = tuple(sorted(corpus.oers))
    oer_col = {o: j for j, o in enumerate(oer_ids)}
    latest: dict[tuple[str, str], tuple[tuple[int, int], Grade]] = {}
    for order, event in enumerate(by_kind[EventKind.RATING]):
        if event.oer_id not in oer_col:
            continue
        key = (event.reader_id, event.oer_id)
        stamp = (event.timestamp, order)
        if key not in latest or stamp >= latest[key][0]:
            latest[key] = (stamp, event.grade)
    R = np.zeros((len(readers), len(oer_ids)))
    for (reader_id, oer_id), (_, grade) in latest.items():
        if (gain := grade.gain) is not None:
            R[ridx[reader_id], oer_col[oer_id]] = float(gain)

    # Undirected reply-exchange counts, hence a symmetric block.
    A = np.zeros((len(readers), len(readers)))
    for replier, replied_to in corpus.reply_exchanges():
        i, j = ridx[replier], ridx[replied_to]
        A[i, j] += 1.0
        A[j, i] += 1.0

    return {
        "QuoteLocation": location_group(quotes),
        "QuoteText": text_group(quotes, "quote_text"),
        "QuestionText": text_group(questions, "content_text"),
        "OerRating": FeatureGroup(oer_ids, R),
        "CQLocation": location_group(cq),
        "CQQuoteText": text_group(cq, "quote_text"),
        "CQContentText": text_group(cq, "content_text"),
        "ReplyRelation": FeatureGroup(readers, A),
    }


def extract_features(corpus: Corpus, k_loc: int = 10, seed: int = 0) -> FeatureMatrix:
    """All ten groups in canonical order, plus the location model echo."""
    loc_model = build_location_clusters(corpus, k_loc, fork_seed(seed, "locclust"))
    groups = {**extract_rpf(corpus), **extract_rbf(corpus, loc_model)}
    readers = tuple(sorted(corpus.readers))
    return FeatureMatrix(
        readers, {name: groups[name] for name in GROUP_ORDER},
        {r: corpus.readers[r].has_rpf for r in readers},
        {"tokenizer": TOKENIZER_RECORD, "k_loc": loc_model.k_loc,
         "location_model": loc_model.to_dict()},
    )


def combine_groups(
    fm: FeatureMatrix,
    included_groups: tuple[str, ...],
    weights: dict[str, float] | None = None,
) -> np.ndarray:
    """The unified reader vectors, one row per reader in `fm.reader_ids`
    order: L2-normalize each group row-wise (zero rows stay zero), scale by
    the group weight, and concatenate in GROUP_ORDER. Readers with has_rpf
    False keep zero RPF cells. Each row is computed from that reader's cells
    alone, so a row subset of the result is the result over those readers.
    """
    if not included_groups:
        raise ValueError("included_groups must be nonempty")
    unknown = [g for g in included_groups if g not in fm.groups]
    if unknown:
        raise KeyError(f"unknown feature groups {unknown}")
    weights = weights or {}
    for g, w in weights.items():
        if g not in included_groups:
            raise ValueError(f"group weight for {g!r}, which is not among the "
                             f"groups combined: {list(included_groups)}")
        if w <= 0:
            raise ValueError(f"group weight for {g!r} must be positive, got {w}")

    ordered = [g for g in GROUP_ORDER if g in included_groups]
    blocks = []
    for name in ordered:
        M = fm.groups[name].matrix.astype(np.float64)
        norms = np.linalg.norm(M, axis=1, keepdims=True)
        normalized = np.divide(M, norms, out=np.zeros_like(M), where=norms > 0)
        blocks.append(normalized * weights.get(name, 1.0))
    return np.concatenate(blocks, axis=1)


# -- features.json --------------------------------------------------------

def features_to_dict(fm: FeatureMatrix) -> dict:
    groups = []
    for name, g in fm.groups.items():
        rows = {}
        for i, rid in enumerate(fm.reader_ids):
            nz = np.flatnonzero(g.matrix[i])
            if nz.size:
                rows[rid] = {"i": nz.tolist(), "v": g.matrix[i, nz].tolist()}
        groups.append({"name": name, "dim": g.dim, "labels": list(g.labels), "rows": rows})
    return {
        "reader_ids": list(fm.reader_ids),
        "has_rpf": {r: fm.has_rpf[r] for r in fm.reader_ids},
        "groups": groups,
        "settings": fm.settings,
    }


def features_from_dict(d: dict) -> FeatureMatrix:
    readers = tuple(d["reader_ids"])
    groups: dict[str, FeatureGroup] = {}
    for gd in d["groups"]:
        M = np.zeros((len(readers), gd["dim"]))
        for i, rid in enumerate(readers):
            row = gd["rows"].get(rid)
            if row:
                M[i, row["i"]] = row["v"]
        groups[gd["name"]] = FeatureGroup(tuple(gd["labels"]), M)
    return FeatureMatrix(readers, groups, dict(d["has_rpf"]), d.get("settings", {}))
