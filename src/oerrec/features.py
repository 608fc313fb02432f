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
    medoid locations; assignment maps a bbox to the nearest center in the
    embedded (page + y_center, x_center) space, ties to the lower index.
    """

    k_loc: int
    centers: dict[str, list[tuple[int, float, float]]] = field(default_factory=dict)

    def assign(self, paper_id: str, page: int, bbox: tuple[float, float, float, float]) -> int:
        clusters = self.centers.get(paper_id)
        if not clusters:
            raise KeyError(f"no location clusters fitted for paper {paper_id!r}")
        v, x = location_point(page, bbox)
        embedded = np.array([location_point(p, (cx, cy, cx, cy)) for p, cx, cy in clusters])
        d = np.hypot(embedded[:, 0] - v, embedded[:, 1] - x)
        return int(np.argmin(d))

    def column_labels(self) -> list[str]:
        labels = []
        for paper_id in sorted(self.centers):
            labels.extend(f"{paper_id}:{ci}" for ci in range(len(self.centers[paper_id])))
        return labels

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
        result = kmedoids(pts, k, rng, metric="euclidean")
        model.centers[paper_id] = [
            (events[m].page,
             (events[m].bbox[0] + events[m].bbox[2]) / 2.0,
             (events[m].bbox[1] + events[m].bbox[3]) / 2.0)
            for m in result.medoid_indices
        ]
    return model


@dataclass
class FeatureGroup:
    name: str
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

    def __post_init__(self):
        self._row = {r: i for i, r in enumerate(self.reader_ids)}

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

    def subset_readers(self, reader_ids) -> "FeatureMatrix":
        keep = sorted(reader_ids)
        idx = [self._row[r] for r in keep]
        return FeatureMatrix(
            tuple(keep),
            {n: FeatureGroup(g.name, g.labels, g.matrix[idx]) for n, g in self.groups.items()},
            {r: self.has_rpf[r] for r in keep},
            dict(self.settings),
        )


_QUOTE = frozenset({EventKind.QUOTE})
_QUESTION = frozenset({EventKind.QUESTION})
_CQ = frozenset({EventKind.COMMENT, EventKind.QUESTION})


def extract_rpf(corpus: Corpus) -> FeatureMatrix:
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
    return FeatureMatrix(
        readers,
        {"RPF-C": FeatureGroup("RPF-C", tuple(courses), C),
         "RPF-TB": FeatureGroup("RPF-TB", tuple(skills), T)},
        {r: corpus.readers[r].has_rpf for r in readers},
    )


def extract_rbf(corpus: Corpus, loc_model: LocationClusterModel) -> FeatureMatrix:
    """The eight behavior groups of the feature table, one row per reader."""
    readers = tuple(sorted(corpus.readers))
    ridx = {r: i for i, r in enumerate(readers)}
    groups: dict[str, FeatureGroup] = {}

    loc_labels = tuple(loc_model.column_labels())
    loc_col = {label: j for j, label in enumerate(loc_labels)}
    QL = np.zeros((len(readers), len(loc_labels)))
    CQL = np.zeros((len(readers), len(loc_labels)))
    for event in corpus.events.values():
        if event.kind not in LOCATED_KINDS:
            continue
        ci = loc_model.assign(event.paper_id, event.page, event.bbox)
        col = loc_col[f"{event.paper_id}:{ci}"]
        if event.kind is EventKind.QUOTE:
            QL[ridx[event.reader_id], col] += 1.0
        else:
            CQL[ridx[event.reader_id], col] += 1.0
    groups["QuoteLocation"] = FeatureGroup("QuoteLocation", loc_labels, QL)
    groups["CQLocation"] = FeatureGroup("CQLocation", loc_labels, CQL)

    for name, kinds, attr in (
        ("QuoteText", _QUOTE, "quote_text"),
        ("QuestionText", _QUESTION, "content_text"),
        ("CQQuoteText", _CQ, "quote_text"),
        ("CQContentText", _CQ, "content_text"),
    ):
        terms, M = term_counts(((ridx[e.reader_id], getattr(e, attr))
                                for e in corpus.events.values() if e.kind in kinds),
                               len(readers))
        groups[name] = FeatureGroup(name, terms, M)

    # Latest rating wins per (reader, oer); NotSure leaves the cell absent.
    oer_ids = tuple(sorted(corpus.oers))
    oer_col = {o: j for j, o in enumerate(oer_ids)}
    latest: dict[tuple[str, str], tuple[tuple[int, int], Grade]] = {}
    for order, event in enumerate(corpus.events.values()):
        if event.kind is not EventKind.RATING or event.oer_id not in oer_col:
            continue
        key = (event.reader_id, event.oer_id)
        stamp = (event.timestamp, order)
        if key not in latest or stamp >= latest[key][0]:
            latest[key] = (stamp, event.grade)
    R = np.zeros((len(readers), len(oer_ids)))
    for (reader_id, oer_id), (_, grade) in latest.items():
        if grade.gain is not None:
            R[ridx[reader_id], oer_col[oer_id]] = float(grade.gain)
    groups["OerRating"] = FeatureGroup("OerRating", oer_ids, R)

    # Undirected reply-exchange counts, hence a symmetric block.
    A = np.zeros((len(readers), len(readers)))
    for replier, replied_to in corpus.reply_exchanges():
        i, j = ridx[replier], ridx[replied_to]
        A[i, j] += 1.0
        A[j, i] += 1.0
    groups["ReplyRelation"] = FeatureGroup("ReplyRelation", readers, A)

    ordered = {name: groups[name] for name in GROUP_ORDER if name in groups}
    return FeatureMatrix(
        readers, ordered, {r: corpus.readers[r].has_rpf for r in readers},
        {"tokenizer": TOKENIZER_RECORD, "k_loc": loc_model.k_loc},
    )


def extract_features(corpus: Corpus, k_loc: int = 10, seed: int = 0) -> FeatureMatrix:
    """All ten groups in canonical order, plus the location model echo."""
    loc_model = build_location_clusters(corpus, k_loc, fork_seed(seed, "locclust"))
    rpf = extract_rpf(corpus)
    rbf = extract_rbf(corpus, loc_model)
    groups = dict(rpf.groups)
    groups.update(rbf.groups)
    ordered = {name: groups[name] for name in GROUP_ORDER}
    settings = dict(rbf.settings)
    settings["location_model"] = loc_model.to_dict()
    return FeatureMatrix(rpf.reader_ids, ordered, rpf.has_rpf, settings)


@dataclass
class UnifiedVectors:
    """Concatenation of L2-normalized, weighted groups; one row per reader."""

    reader_ids: tuple[str, ...]
    X: np.ndarray


def combine_groups(
    fm: FeatureMatrix,
    included_groups: tuple[str, ...],
    weights: dict[str, float] | None = None,
) -> UnifiedVectors:
    """L2-normalize each group row-wise (zero rows stay zero), scale by the
    group weight, and concatenate in GROUP_ORDER. Readers with has_rpf
    False keep zero RPF cells.
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
    X = np.concatenate(blocks, axis=1) if blocks else np.zeros((len(fm.reader_ids), 0))
    return UnifiedVectors(fm.reader_ids, X)


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
        groups[gd["name"]] = FeatureGroup(gd["name"], tuple(gd["labels"]), M)
    return FeatureMatrix(readers, groups, dict(d["has_rpf"]), d.get("settings", {}))
