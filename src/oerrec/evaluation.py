"""Offline evaluation: per-query ranking metrics aggregated over seeded
cross-validation folds, paired system comparison, and the missing-profile
simulation, which predicts held-out readers' communities from behavior and
reruns the ranking comparison on that assignment."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .community import cluster_profiles, fit_behavior_classifier, predict_behavior
from .features import FeatureMatrix
from .metrics import RankingKernel, list_metrics, sign_test
from .rankfeatures import QueryFeatures
from .ranker import CommunityRankerSet, community_jobs, require_assignment, train_models
from .util import fork_seed, rng_for

if TYPE_CHECKING:
    from .config import PipelineConfig

log = logging.getLogger(__name__)

METRIC_NAMES = ("map@3", "map@5", "map@all", "ndcg@3", "ndcg@5", "ndcg@all", "mrr")


def query_metrics(ranked_gains: list[int]) -> dict[str, float] | None:
    """All report metrics for one ranked gain list; None marks a skipped
    query (no positive gain anywhere, so nDCG normalization is undefined)."""
    if not any(g > 0 for g in ranked_gains):
        return None
    return list_metrics(ranked_gains, METRIC_NAMES)


def _means(rows: list[dict[str, float]]) -> dict[str, float] | None:
    if not rows:
        return None
    return {m: float(np.mean([r[m] for r in rows])) for m in METRIC_NAMES}


@dataclass
class MetricReport:
    """Evaluated-query metrics for each system plus the paired raw values.

    Skipping is a property of the judgment list, not the system, so the
    skipped set is shared and evaluated + skipped = total for both systems.
    """

    per_query: dict[str, dict[str, dict[str, float]]]  # system -> qid -> metrics
    skipped: tuple[str, ...]
    fold_assignment: dict[str, int]
    folds: int
    extras: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)

    @property
    def n_evaluated(self) -> int:
        first = next(iter(self.per_query.values()), {})
        return len(first)

    @property
    def n_total(self) -> int:
        return self.n_evaluated + len(self.skipped)

    def means(self, system: str) -> dict[str, float]:
        result = _means(list(self.per_query[system].values()))
        return result or {m: 0.0 for m in METRIC_NAMES}

    def fold_means(self, system: str) -> list[dict[str, float] | None]:
        out = []
        for f in range(self.folds):
            rows = [v for q, v in self.per_query[system].items()
                    if self.fold_assignment[q] == f]
            out.append(_means(rows))
        return out

    def paired_differences(self, metric: str, system_a: str, system_b: str) -> list[float]:
        a, b = self.per_query[system_a], self.per_query[system_b]
        return [a[q][metric] - b[q][metric] for q in sorted(a)]

    def sign_test_p(self, metric: str = "ndcg@3",
                    system_a: str = "communitized", system_b: str = "global") -> float:
        return sign_test(self.paired_differences(metric, system_a, system_b))

    def to_dict(self) -> dict:
        return {
            "systems": {
                s: {
                    "means": self.means(s),
                    "fold_means": self.fold_means(s),
                    "per_query": {q: self.per_query[s][q] for q in sorted(self.per_query[s])},
                }
                for s in self.per_query
            },
            "skipped_queries": sorted(self.skipped),
            "counts": {"total": self.n_total, "evaluated": self.n_evaluated,
                       "skipped": len(self.skipped)},
            "fold_assignment": dict(sorted(self.fold_assignment.items())),
            "folds": self.folds,
            "extras": self.extras,
            "settings": self.settings,
        }


# -- cross-validation --------------------------------------------------------

def make_folds(
    queries: list[QueryFeatures],
    assignment: dict[str, int],
    folds: int,
    seed: int,
) -> dict[str, int]:
    """Community-stratified fold assignment: shuffle each community's queries
    with the seed, then deal round-robin so fold sizes stay balanced."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if folds > len(queries):
        raise ValueError(f"folds={folds} exceeds query count {len(queries)}")
    require_assignment(queries, assignment)
    rng = rng_for(seed, "cv-folds")
    by_community: dict[int, list[str]] = {}
    for q in sorted(queries, key=lambda q: q.query_id):
        by_community.setdefault(assignment[q.reader_id], []).append(q.query_id)
    fold_of: dict[str, int] = {}
    counter = 0
    for c in sorted(by_community):
        ids = by_community[c]
        for i in rng.permutation(len(ids)):
            fold_of[ids[i]] = counter % folds
            counter += 1
    return fold_of


def cross_validate_ranking(queries: list[QueryFeatures], feature_names: tuple[str, ...],
                           assignment: dict[str, int], cfg: PipelineConfig,
                           seed: int) -> MetricReport:
    """Per fold of `cfg.folds`, train communitized and global models (`community_jobs`:
    `cfg.metric`, `cfg.restarts`, `cfg.threshold`) on the out-fold queries and score
    the in-fold ones with both, keeping per-query pairs. All folds train at once."""
    fold_of = make_folds(queries, assignment, cfg.folds, seed)
    per_query: dict[str, dict[str, dict[str, float]]] = {"communitized": {}, "global": {}}
    skipped: list[str] = []

    jobs = {f: community_jobs([q for q in queries if fold_of[q.query_id] != f],
                              assignment, feature_names, cfg, fork_seed(seed, f"fold:{f}"))
            for f in sorted(set(fold_of.values()))}
    models = iter(train_models([job for fold in jobs.values() for job in fold]))

    for f, fold_jobs in jobs.items():
        rset = CommunityRankerSet.from_models([next(models) for _ in fold_jobs], cfg.threshold)
        test = [q for q in queries if fold_of[q.query_id] == f]
        for q in test:
            if assignment[q.reader_id] not in rset.models:
                log.info("fold %d: community %s has no model; query %s uses global",
                         f, assignment[q.reader_id], q.query_id)
        skipped += [q.query_id for q in test if not (q.gains > 0).any()]
        scored = [q for q in test if (q.gains > 0).any()]
        kernel = RankingKernel([q.gains for q in scored], [q.candidates for q in scored])
        scores = np.stack([  # both systems on every scored test query, one padded call
            kernel.layout([rset.resolve(assignment[q.reader_id]).score(q.X) for q in scored]),
            kernel.layout([rset.global_model.score(q.X) for q in scored])])
        values = {m: v.tolist() for m, v in kernel(scores, METRIC_NAMES).items()}
        for si, system in enumerate(("communitized", "global")):
            for qi, q in enumerate(scored):
                per_query[system][q.query_id] = {m: values[m][si][qi] for m in METRIC_NAMES}

    return MetricReport(
        per_query=per_query,
        skipped=tuple(sorted(skipped)),
        fold_assignment=fold_of,
        folds=cfg.folds,
        settings={"folds": cfg.folds, "seed": seed, "metric": cfg.metric,
                  "restarts": cfg.restarts, "threshold": cfg.threshold},
    )


# -- missing-profile simulation ----------------------------------------------

def simulate_missing_rpf(fm: FeatureMatrix, queries: list[QueryFeatures],
                         feature_names: tuple[str, ...], cfg: PipelineConfig,
                         seed: int) -> MetricReport:
    """Strip profiles from `cfg.sim_folds` successive reader folds, each
    `cfg.fraction` of the readers, predict their communities from behavior
    alone and rerun `cross_validate_ranking` on that assignment, passing `cfg`.

    The `cfg.cluster_k` reference communities come from one `cluster_profiles` run
    over all readers, so per-fold predictions share a single label space and a perfect
    classifier reproduces the full-profile run exactly. A reader fold that holds every
    reader of a reference community raises ValueError: the classifier would have no
    example of that community. The report's extras carry the prediction accuracy and
    confusion counts, and its settings the simulation's values, `cfg.lam` among them.
    """
    fraction, folds, k = cfg.fraction, cfg.sim_folds, cfg.cluster_k
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    if folds < 1:
        raise ValueError(f"folds must be >= 1, got {folds}")
    if folds * fraction > 1.0 + 1e-9:
        raise ValueError(f"folds*fraction = {folds * fraction} exceeds the reader pool")
    lacking = sorted(r for r, has in fm.has_rpf.items() if not has)
    if lacking:
        raise ValueError(f"simulation requires profiles for all readers; missing: {lacking}")

    readers = list(fm.reader_ids)
    reference = cluster_profiles(fm, cfg, fork_seed(seed, "sim-reference")).assignment

    order = [readers[i] for i in rng_for(seed, "sim-folds").permutation(len(readers))]
    n = len(readers)
    predicted = dict(reference)
    confusion = np.zeros((k, k), dtype=np.int64)
    for f in range(folds):
        held = set(order[round(f * fraction * n):round((f + 1) * fraction * n)])
        if not held:
            continue
        known = {r: c for r, c in reference.items() if r not in held}
        emptied = sorted(set(reference.values()) - set(known.values()))
        if emptied:
            raise ValueError(f"reader fold {f} holds every reader of reference "
                             f"community {emptied[0]}; the classifier has no "
                             f"example of it")
        model = fit_behavior_classifier(fm, known, cfg)
        for r, c in predict_behavior(fm, model, known, cfg).items():
            predicted[r] = c
            confusion[reference[r], c] += 1
    n_predicted = int(confusion.sum())
    n_correct = int(np.trace(confusion))

    report = cross_validate_ranking(queries, feature_names, predicted, cfg,
                                    fork_seed(seed, "sim-cv"))
    report.extras = {
        "community_prediction_accuracy": (n_correct / n_predicted) if n_predicted else None,
        "confusion": confusion.tolist(),
        "n_predicted": n_predicted,
        "fraction": fraction,
        "reader_folds": folds,
        "reference_assignment": dict(sorted(reference.items())),
        "predicted_assignment": dict(sorted(predicted.items())),
    }
    report.settings.update({"simulation": {"fraction": fraction, "folds": folds,
                                           "k": k, "lambda": cfg.lam, "seed": seed}})
    return report
