"""Reader communities: K-medoids clustering of profile-bearing readers,
pairwise evaluation against reply ground truth, and the Maximum-Entropy
behavior classifier that places readers without a profile. The CLI's
`cluster` -> `train-community-classifier` -> `assign` chain and the
missing-profile simulation compose these steps.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .features import FeatureMatrix, RBF_GROUPS, combine_groups
from .kmedoids import kmedoids
from .maxent import MaxEntModel, predict_batch, train_maxent
from .util import read_tsv, rng_for, write_tsv

if TYPE_CHECKING:  # config imports this module
    from .config import PipelineConfig

log = logging.getLogger(__name__)

# Reply exchanges double as evaluation ground truth, so the behavior groups
# fed to the classifier exclude them by default.
DEFAULT_CLASSIFIER_GROUPS = tuple(g for g in RBF_GROUPS if g != "ReplyRelation")


@dataclass
class CommunityModel:
    k: int
    medoid_reader_ids: tuple[str, ...]
    assignment: dict[str, int]  # reader_id -> community index in [0, k)
    metric: str
    cost: float


def cluster_readers(
    readers: tuple[str, ...],
    X: np.ndarray,
    k: int,
    metric: str = "euclidean",
    seed: int = 0,
) -> CommunityModel:
    """K-medoids over the reader vectors X, row i being readers[i]; rows
    arrive in sorted-reader order, so the result is invariant to how the
    corpus streams were ordered."""
    result = kmedoids(X, k, rng_for(seed, "kmedoids"), metric)
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
    same = sum(n * (n - 1) // 2 for n in Counter(assignment.values()).values())
    hit = sum(assignment[a] == assignment[b] for a, b in reply_pairs)
    precision = hit / same if same else 0.0
    recall = hit / len(reply_pairs) if reply_pairs else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def cluster_profiles(fm: FeatureMatrix, cfg: PipelineConfig, seed: int) -> CommunityModel:
    """The one clustering of profile-bearing readers: `cfg.cluster_k`
    communities by `cfg.distance` over their `cfg.cluster_groups` vectors,
    each group scaled by its `cfg.group_weights` weight (unit when absent)."""
    k = cfg.cluster_k
    rows = [i for i, r in enumerate(fm.reader_ids) if fm.has_rpf[r]]
    if len(rows) < k:
        raise ValueError(f"only {len(rows)} profile-bearing readers for k={k}")
    # combine_groups normalizes each row by its own norm, so its rows for
    # these readers equal, bit for bit, the vectors combined over them alone
    X = combine_groups(fm, cfg.cluster_groups, cfg.group_weights)[rows]
    return cluster_readers(tuple(fm.reader_ids[i] for i in rows), X, k, cfg.distance, seed)


def fit_behavior_classifier(fm: FeatureMatrix, labels: dict[str, int],
                            cfg: PipelineConfig) -> MaxEntModel:
    """MaxEnt classifier (`cfg.lam`) from the labelled readers'
    `cfg.classifier_groups` vectors to their communities, rows in sorted-reader order."""
    X = combine_groups(fm, cfg.classifier_groups)
    rows = [i for i, r in enumerate(fm.reader_ids) if r in labels]
    y = np.array([labels[fm.reader_ids[i]] for i in rows])
    model = train_maxent(X[rows], y, cfg.lam)
    model.feature_space = {"groups": list(cfg.classifier_groups), "dim": X.shape[1]}
    return model


def predict_behavior(fm: FeatureMatrix, model: MaxEntModel, labels: dict[str, int],
                     cfg: PipelineConfig) -> dict[str, int]:
    """Predicted community of every reader of fm that `labels` lacks, from
    their `cfg.classifier_groups` vectors."""
    X = combine_groups(fm, cfg.classifier_groups)
    rest = [i for i, r in enumerate(fm.reader_ids) if r not in labels]
    silent = [fm.reader_ids[i] for i in rest if not X[i].any()]
    if silent:
        log.info("readers %s have no behavior signal; prediction falls back "
                 "to intercept-only scores", silent)
    predicted, _ = predict_batch(model, X[rest])
    return {fm.reader_ids[i]: int(c) for i, c in zip(rest, predicted)}


# -- communities.tsv ------------------------------------------------------

def write_communities(path, assignment: dict[str, int], source: dict[str, str],
                      meta: dict) -> None:
    write_tsv(path, ("reader_id", "community", "source"),
              ((r, assignment[r], source.get(r, "clustered")) for r in sorted(assignment)),
              meta)


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
