"""Reader communities: K-medoids clustering of profile-bearing readers,
pairwise evaluation against reply ground truth, and the Maximum-Entropy
behavior classifier that places readers without a profile. The CLI's
`cluster` -> `train-community-classifier` -> `assign` chain and the
missing-profile simulation compose these steps.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix, RBF_GROUPS, RPF_GROUPS, UnifiedVectors, combine_groups
from .kmedoids import kmedoids
from .maxent import MaxEntModel, predict_batch, train_maxent
from .util import read_tsv, rng_for, write_tsv

log = logging.getLogger(__name__)

# Reply exchanges double as evaluation ground truth, so the behavior groups
# fed to the classifier exclude them by default.
DEFAULT_CLASSIFIER_GROUPS = tuple(g for g in RBF_GROUPS if g != "ReplyRelation")


@dataclass
class CommunityModel:
    k: int
    medoid_reader_ids: tuple[str, ...]
    assignment: dict[str, int]  # reader_id -> community index in [0, k)
    metric: str = "euclidean"
    cost: float = 0.0


def cluster_readers(
    vectors: UnifiedVectors,
    k: int,
    metric: str = "euclidean",
    seed: int = 0,
) -> CommunityModel:
    """K-medoids over the unified vectors; rows arrive in sorted-reader order,
    so the result is invariant to how the corpus streams were ordered."""
    result = kmedoids(vectors.X, k, rng_for(seed, "kmedoids"), metric)
    readers = vectors.reader_ids
    return CommunityModel(
        k=k,
        medoid_reader_ids=tuple(readers[m] for m in result.medoid_indices),
        assignment={r: int(c) for r, c in zip(readers, result.assignment)},
        metric=metric,
        cost=result.cost,
    )


def pairwise_cluster_eval(
    assignment: dict[str, int],
    reply_pairs: set[frozenset],
) -> dict[str, float]:
    """Precision/recall/F1 of same-community pairs against reply pairs.

    Empty denominators yield 0 by convention.
    """
    for pair in reply_pairs:
        for reader in pair:
            if reader not in assignment:
                raise ValueError(f"reply pair names unclustered reader {reader!r}")
    readers = sorted(assignment)
    same = {frozenset((a, b))
            for a, b in itertools.combinations(readers, 2)
            if assignment[a] == assignment[b]}
    hit = len(same & reply_pairs)
    precision = hit / len(same) if same else 0.0
    recall = hit / len(reply_pairs) if reply_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def cluster_profiles(
    fm: FeatureMatrix, k: int, metric: str = "euclidean", seed: int = 0,
    groups: tuple[str, ...] = RPF_GROUPS, weights: dict[str, float] | None = None,
) -> CommunityModel:
    """The one clustering of profile-bearing readers: their `groups`
    vectors, each group scaled by its weight (unit when absent)."""
    with_rpf = [r for r in fm.reader_ids if fm.has_rpf[r]]
    if len(with_rpf) < k:
        raise ValueError(f"only {len(with_rpf)} profile-bearing readers for k={k}")
    vectors = combine_groups(fm.subset_readers(with_rpf), groups, weights or None)
    return cluster_readers(vectors, k, metric, seed)


def fit_behavior_classifier(
    fm: FeatureMatrix, labels: dict[str, int],
    groups: tuple[str, ...] = DEFAULT_CLASSIFIER_GROUPS, lam: float = 1.0,
) -> MaxEntModel:
    """MaxEnt classifier from the labelled readers' `groups` vectors to
    their communities, rows in sorted-reader order."""
    behavior = combine_groups(fm, groups)
    rows = [i for i, r in enumerate(behavior.reader_ids) if r in labels]
    y = np.array([labels[behavior.reader_ids[i]] for i in rows])
    model = train_maxent(behavior.X[rows], y, lam)
    model.feature_space = {"groups": list(groups), "dim": behavior.X.shape[1]}
    return model


def predict_behavior(
    fm: FeatureMatrix, model: MaxEntModel, labels: dict[str, int],
    groups: tuple[str, ...] = DEFAULT_CLASSIFIER_GROUPS,
) -> dict[str, int]:
    """Predicted community of every reader of fm that `labels` lacks."""
    behavior = combine_groups(fm, groups)
    rest = [i for i, r in enumerate(behavior.reader_ids) if r not in labels]
    silent = [behavior.reader_ids[i] for i in rest if not behavior.X[i].any()]
    if silent:
        log.info("readers %s have no behavior signal; prediction falls back "
                 "to intercept-only scores", silent)
    predicted, _ = predict_batch(model, behavior.X[rest])
    return {behavior.reader_ids[i]: int(c) for i, c in zip(rest, predicted)}


# -- communities.tsv ------------------------------------------------------

def write_communities(path, assignment: dict[str, int], source: dict[str, str],
                      comment: str | None = None) -> None:
    write_tsv(path, ("reader_id", "community", "source"),
              ((r, assignment[r], source.get(r, "clustered")) for r in sorted(assignment)),
              comment)


def read_communities(path, k: int) -> tuple[dict[str, int], dict[str, str]]:
    """Community and source per reader; a community outside [0, k) fails
    with the file and line."""
    assignment: dict[str, int] = {}
    source: dict[str, str] = {}

    def row(reader: str, community: str, src: str) -> None:
        if reader in assignment:
            raise ValueError(f"reader {reader!r} listed twice")
        c = int(community)
        if not 0 <= c < k:
            raise ValueError(f"community {c} of reader {reader!r} is outside [0, {k})")
        assignment[reader], source[reader] = c, src

    read_tsv(path, 3, row)
    return assignment, source
