"""Linear learning-to-rank by coordinate ascent on a list-wise metric
(default nDCG@3), one model per community plus a global fallback.

Training evaluates the mean metric over every query at once: features and
scores are padded (queries, max_candidates) arrays in the one candidate
layout, `RankingKernel.layout` (ascending oer_id order); candidate weight
values for one coordinate are batched along a leading axis, and the kernel
ranks and scores the batch (descending score, ascending oer_id as the
tie-break). Only the queries whose feature column for the coordinate is
not all zero are re-ranked; the others keep their metric values. `rank`,
which inference uses, is the layout's one-row case.

Training skips two kinds of evaluation that can only reject, so every
model keeps the bits of evaluating every grid value of every coordinate on
every turn. The grid value equal to the current weight is dropped: its row
is the current scores, whose mean is the current metric and so never a
strict gain. And a coordinate rejected with no step accepted since is not
evaluated again: its batch would be the same bits and reject again. An
accepted coordinate is evaluated on its next turn, as its grid moved with
its weight.

Every training seeds itself, so the trainings of one stage (the global and
community models, and those of every CV fold) are independent jobs:
`train_models` runs them in a pool of forked processes, one per usable CPU,
and returns the models in job order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .metrics import RankingKernel, id_order, parse_metric, rank_order
from .rankfeatures import QueryFeatures
from .util import dump_json, fork_seed, load_json, rng_for

if TYPE_CHECKING:
    from .config import PipelineConfig

STEP_GRID = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
SWEEP_TOL = 1e-5
MAX_SWEEPS = 25


@dataclass
class NormRecord:
    """Per-feature min/max captured at training time; inference clamps."""

    mins: np.ndarray
    maxs: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        out = np.zeros_like(X, dtype=np.float64)
        np.divide(X - self.mins, span, out=out, where=span > 0)
        return np.clip(out, 0.0, 1.0)

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormRecord":
        return cls(np.asarray(d["mins"], dtype=np.float64),
                   np.asarray(d["maxs"], dtype=np.float64))


@dataclass
class RankingModel:
    feature_names: tuple[str, ...]
    weights: np.ndarray  # L1-normalized unless all-zero
    metric_name: str
    metric_value: float
    community: str  # community index as string, or "global"
    norm: NormRecord
    trace: list[float] = field(default_factory=list)  # metric after each accepted step

    def score(self, X: np.ndarray) -> np.ndarray:
        """Scores of raw feature rows (n, d)."""
        return self.norm.apply(X) @ self.weights

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "weights": self.weights.tolist(),
            "metric": {"name": self.metric_name, "value": self.metric_value},
            "community": self.community,
            "normalization": self.norm.to_dict(),
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RankingModel":
        return cls(
            tuple(d["feature_names"]),
            np.asarray(d["weights"], dtype=np.float64),
            d["metric"]["name"],
            d["metric"]["value"],
            d["community"],
            NormRecord.from_dict(d["normalization"]),
            list(d.get("trace", [])),
        )


def _fit_norm(queries: list[QueryFeatures]) -> NormRecord:
    rows = np.concatenate([q.X for q in queries], axis=0)
    return NormRecord(rows.min(axis=0), rows.max(axis=0))


def coordinate_ascent_train(
    queries: list[QueryFeatures],
    feature_names: tuple[str, ...],
    metric_spec: str = "ndcg@3",
    restarts: int = 5,
    seed: int = 0,
    community: str = "global",
) -> RankingModel:
    """Cycle over coordinates; for each, probe a fixed grid of values around
    the current weight (multiplicative steps, sign flips, and zero) and keep
    the best improvement. A restart ends when no coordinate improves the
    mean metric by more than 1e-5; the best restart wins, first restart and
    uniform weights coming first.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    trainable = [q for q in queries if (q.gains > 0).any()]
    if not trainable:
        raise ValueError("untrainable: no query with a positive gain")
    kind, k = parse_metric(metric_spec)
    norm = _fit_norm(queries)
    kernel = RankingKernel([q.gains for q in trainable], [q.candidates for q in trainable])
    d = len(feature_names)
    X = kernel.layout([norm.apply(q.X) for q in trainable])  # normalized, zero padding
    width = kernel.width(kind, k)

    def per_query(kern: RankingKernel, scores: np.ndarray) -> np.ndarray:
        """Training metric per query, shaped (..., Q), for scores (..., Q, C)."""
        return kern.metric(kern.ranked_gains(scores, width), kind, k)

    # Moving coordinate j changes a query's scores by (v - w_j) * X[q, :, j],
    # which is exactly zero only when the column is; a constant nonzero
    # column can still reorder near-ties through rounding.
    movable = [np.flatnonzero((X[:, :, j] != 0.0).any(axis=-1)) for j in range(d)]

    best: tuple[float, int, np.ndarray, list[float]] | None = None
    for r in range(restarts):
        if r == 0:
            w = np.full(d, 1.0 / d)
        else:
            w = rng_for(seed, f"restart:{r}").uniform(-1.0, 1.0, d)
        scores = X @ w
        query_values = per_query(kernel, scores)
        current = float(query_values.mean(axis=-1))
        trace = [current]
        # rejected_at[j] is len(trace) when j was last rejected. While no
        # step has been accepted since, (w, scores, query_values) hold the
        # bits that rejected j, and the same batch would reject it again.
        rejected_at = [-1] * d
        for _ in range(MAX_SWEEPS):
            sweep_gain = 0.0
            for j in range(d):
                if rejected_at[j] == len(trace):
                    continue
                base = w[j] if w[j] != 0.0 else 1.0
                values = np.array(
                    [m * base for m in STEP_GRID]
                    + [-m * base for m in STEP_GRID] + [0.0])
                # one value is w[j] itself; its row is `scores` and its mean
                # `current`, which is never a strict gain
                values = values[values != w[j]]
                steps = values - w[j]
                # every query's value at every candidate weight; only the
                # movable rows are re-ranked, and the mean runs over all
                # queries in order, so each sum adds the same terms. The
                # rows are gathered per step: a copy kept per coordinate
                # raised peak memory by about 1 MB.
                rows = movable[j]
                batch = (scores.take(rows, axis=0)[None]
                         + steps[:, None, None] * X[:, :, j].take(rows, axis=0)[None])
                batch_values = np.tile(query_values, (values.size, 1))
                batch_values[:, rows] = per_query(kernel.rows(rows), batch)
                metrics = batch_values.mean(axis=-1)
                bi = int(np.argmax(metrics))
                gain = float(metrics[bi]) - current
                if gain > 0.0:
                    w[j] = values[bi]
                    scores = scores + steps[bi] * X[:, :, j]
                    query_values = batch_values[bi]
                    current = float(metrics[bi])
                    trace.append(current)
                    sweep_gain = max(sweep_gain, gain)
                else:
                    rejected_at[j] = len(trace)
            if sweep_gain <= SWEEP_TOL:
                break
        if best is None or current > best[0]:
            best = (current, r, w.copy(), trace)

    metric_value, _, weights, trace = best
    l1 = np.abs(weights).sum()
    if l1 > 0:
        weights = weights / l1
    return RankingModel(tuple(feature_names), weights, metric_spec,
                        metric_value, community, norm, trace)


# -- applying a model -------------------------------------------------------

def rank(model: RankingModel, ids: Sequence[str], X: np.ndarray) -> list[tuple[str, float]]:
    """Candidates `ids` with raw feature rows X (n, d), by descending score,
    ties by ascending oer_id."""
    scores = model.score(X)
    cols = id_order(ids)
    return [(ids[cols[i]], float(scores[cols[i]])) for i in rank_order(scores[cols])]


def rank_query(model: RankingModel, q: QueryFeatures) -> list[int]:
    """Gains of the query's candidates in the model's ranked order."""
    gain = dict(zip(q.candidates, q.gains.tolist()))  # oer_ids are unique per query
    return [int(gain[oer]) for oer, _ in rank(model, q.candidates, q.X)]


# -- independent trainings in parallel ---------------------------------------

class TrainJob(NamedTuple):
    """The arguments of one `coordinate_ascent_train` call."""

    queries: list[QueryFeatures]
    feature_names: tuple[str, ...]
    metric_spec: str
    restarts: int
    seed: int
    community: str


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker_jobs: list[TrainJob] = []  # a pool worker's copy of its call's jobs


def _start_worker(jobs: list[TrainJob]) -> None:
    global _worker_jobs
    _worker_jobs = jobs
    # A worker whose caller is killed would otherwise wait for jobs forever.
    import threading
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    import multiprocessing
    multiprocessing.parent_process().join()
    os._exit(1)


def _train_job(i: int) -> RankingModel:
    return coordinate_ascent_train(*_worker_jobs[i])


def train_models(jobs: list[TrainJob]) -> list[RankingModel]:
    """Train every job's model; the models come back in job order.

    With more than one usable CPU the jobs run in a pool of forked worker
    processes, one per CPU up to the job count. A forked worker inherits the
    job list, so only job indices and trained models cross between
    processes. A job's exception reaches the caller as raised, and the pool
    is shut down and its workers joined before this returns; a worker also
    exits when the calling process dies. With one CPU, or where processes
    cannot fork, the jobs run here, one after another.
    """
    workers = min(usable_cpus(), len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        return [coordinate_ascent_train(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(jobs,)) as pool:
        return list(pool.map(_train_job, range(len(jobs))))


# -- per-community training --------------------------------------------------

@dataclass
class CommunityRankerSet:
    models: dict[int, RankingModel]  # communities trained on their own data
    global_model: RankingModel
    threshold: int

    @classmethod
    def from_models(cls, models: list[RankingModel], threshold: int) -> "CommunityRankerSet":
        """Assemble the models trained for `community_jobs`, global first."""
        return cls({int(m.community): m for m in models[1:]}, models[0], threshold)

    def resolve(self, community: int | None) -> RankingModel:
        if community is not None and community in self.models:
            return self.models[community]
        return self.global_model


def require_assignment(queries: list[QueryFeatures], assignment: dict[str, int]) -> None:
    """Fail unless every judged reader has a community."""
    missing = sorted({q.reader_id for q in queries} - set(assignment))
    if missing:
        raise ValueError(f"readers without community assignment: {missing}")


def community_jobs(queries: list[QueryFeatures], assignment: dict[str, int],
                   feature_names: tuple[str, ...], cfg: PipelineConfig,
                   seed: int) -> list[TrainJob]:
    """The global model's job, then one for each community with >=
    `cfg.threshold` judged queries and a positive gain among them; every
    job trains on `cfg.metric` with `cfg.restarts` restarts."""
    if not queries:
        raise ValueError("zero judgments overall")
    require_assignment(queries, assignment)
    jobs = [TrainJob(queries, feature_names, cfg.metric, cfg.restarts, seed, "global")]
    for c in sorted(set(assignment.values())):
        subset = [q for q in queries if assignment[q.reader_id] == c]
        if len(subset) < cfg.threshold or not any((q.gains > 0).any() for q in subset):
            continue
        jobs.append(TrainJob(subset, feature_names, cfg.metric, cfg.restarts,
                             fork_seed(seed, f"community:{c}"), str(c)))
    return jobs


def train_communitized(queries: list[QueryFeatures], assignment: dict[str, int],
                       feature_names: tuple[str, ...], cfg: PipelineConfig,
                       seed: int) -> CommunityRankerSet:
    """The models of `community_jobs` (`cfg.metric`, `cfg.restarts`, `cfg.threshold`),
    the global one serving every small or unseen community."""
    jobs = community_jobs(queries, assignment, feature_names, cfg, seed)
    return CommunityRankerSet.from_models(train_models(jobs), cfg.threshold)


# -- serialization -----------------------------------------------------------

def read_model(path) -> RankingModel:
    return RankingModel.from_dict(load_json(Path(path)))


def write_rankerset(rset: CommunityRankerSet, out_dir, meta: dict) -> None:
    out = Path(out_dir)
    index = {"global": "model_global.json", "communities": {},
             "threshold": rset.threshold}
    dump_json(out / "model_global.json", rset.global_model.to_dict(), meta)
    for c, model in sorted(rset.models.items()):
        name = f"model_c{c}.json"
        dump_json(out / name, model.to_dict(), meta)
        index["communities"][str(c)] = name
    dump_json(out / "rankerset.json", index, meta)


def read_rankerset(in_dir) -> CommunityRankerSet:
    base = Path(in_dir)
    index = load_json(base / "rankerset.json")
    models = {int(c): read_model(base / name)
              for c, name in index["communities"].items()}
    return CommunityRankerSet(models, read_model(base / index["global"]),
                              index["threshold"])


def read_served_model(in_dir, community: int | None) -> RankingModel:
    """The model `read_rankerset(in_dir).resolve(community)` returns, read
    alone: the index, then only the model file it names."""
    base = Path(in_dir)
    index = load_json(base / "rankerset.json")
    names = index["communities"]
    name = names.get(str(community)) if community is not None else None
    return read_model(base / (name or index["global"]))
