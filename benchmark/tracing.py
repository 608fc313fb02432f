"""In-memory span tracing of oerrec's public functions, installed from outside.

The tracer replaces each target function with a wrapper in every ``oerrec``
module (and module-level dict, such as the CLI's stage table) that holds a
reference to it, so callers that imported the name directly are traced too.
Spans live in column arrays until the run ends; ``layer_metrics`` turns
them into per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter

# Hooks add layer counters from a traced call's arguments and result.


def _count_lines(counts, args, kwargs, result):
    counts["corpus.lines"] += sum(len(s) for s in args if isinstance(s, list))


def _count_kmedoids(counts, args, kwargs, result):
    n = len(args[0])
    counts["kmedoids.swaps"] += result.n_swaps
    counts["kmedoids.distance_bytes"] += n * n * 8  # the dense n x n float64 matrix


def _count_maxent(counts, args, kwargs, result):
    counts["maxent.iterations"] += result.iterations


def _count_steps(counts, args, kwargs, result):
    counts["ranker.accepted_steps"] += len(result.trace) - 1


def _count_scored(counts, args, kwargs, result):
    counts["evaluation.queries_scored"] += result.n_total


def _count_json_bytes(counts, args, kwargs, result):
    counts["util.json_bytes_written"] += os.path.getsize(args[0])


# (module, attribute, span, call counter, hook). Spans sharing a name form
# one layer; a layer's self time excludes time spent in other traced spans.
TARGETS = [
    ("oerrec.corpus", "read_corpus", "corpus.parse", None, None),
    ("oerrec.corpus", "parse_corpus", "corpus.parse", "corpus.parse_calls", _count_lines),
    ("oerrec.corpus", "validate_corpus", "corpus.validate", None, None),
    ("oerrec.simgen", "generate", "simgen.generate", "simgen.generate_calls", None),
    ("oerrec.text", "tokenize", "text.tokenize", "text.tokenize_calls", None),
    ("oerrec.features", "extract_features", "features.extract", None, None),
    ("oerrec.features", "extract_rpf", "features.extract", None, None),
    ("oerrec.features", "extract_rbf", "features.extract", None, None),
    ("oerrec.features", "build_location_clusters", "features.location_cluster", None, None),
    ("oerrec.kmedoids", "kmedoids", "kmedoids", "kmedoids.calls", _count_kmedoids),
    ("oerrec.community", "cluster_readers", "community.cluster", None, None),
    ("oerrec.community", "pairwise_cluster_eval", "community.pair_eval", None, None),
    ("oerrec.maxent", "train_maxent", "maxent.train", None, _count_maxent),
    ("oerrec.hetgraph", "metapath_score", "hetgraph.walk", "hetgraph.walk_calls", None),
    ("oerrec.hetgraph", "read_graph", "hetgraph.read", None, None),
    ("oerrec.hetgraph", "read_metapaths", "hetgraph.read", None, None),
    ("oerrec.retrieval", "lm_score", "retrieval.score", "retrieval.score_calls", None),
    ("oerrec.retrieval", "bm25_score", "retrieval.score", "retrieval.score_calls", None),
    ("oerrec.rankfeatures", "RankFeatureExtractor.__init__", "rankfeatures.extract", None, None),
    ("oerrec.rankfeatures", "RankFeatureExtractor.extract", "rankfeatures.extract",
     "rankfeatures.extract_calls", None),
    ("oerrec.rankfeatures", "build_query_features", "rankfeatures.extract", None, None),
    ("oerrec.ranker", "train_communitized", "ranker.train", None, None),
    ("oerrec.ranker", "coordinate_ascent_train", "ranker.train", "ranker.train_calls",
     _count_steps),
    ("oerrec.ranker", "rank", "ranker.rank", "ranker.rank_calls", None),
    ("oerrec.ranker", "rank_query", "ranker.rank", "ranker.rank_calls", None),
    ("oerrec.ranker", "read_rankerset", "ranker.load", None, None),
    ("oerrec.ranker", "read_model", "ranker.load", None, None),
    ("oerrec.evaluation", "cross_validate_ranking", "evaluation.cv", None, _count_scored),
    ("oerrec.evaluation", "query_metrics", "evaluation.cv", None, None),
    ("oerrec.metrics", "dcg_at_k", "metrics", "metrics.calls", None),
    ("oerrec.metrics", "ndcg_at_k", "metrics", "metrics.calls", None),
    ("oerrec.metrics", "average_precision_at_k", "metrics", "metrics.calls", None),
    ("oerrec.metrics", "mrr", "metrics", "metrics.calls", None),
    ("oerrec.metrics", "sign_test", "metrics", "metrics.calls", None),
    ("oerrec.util", "load_json", "util.json_read", None, None),
    ("oerrec.util", "dump_json", "util.json_write", None, _count_json_bytes),
] + [
    ("oerrec.cli", f"stage_{stage.replace('-', '_')}", f"cli.{stage}", None, None)
    for stage in ("simulate", "ingest", "featurize", "cluster", "train-community-classifier",
                  "assign", "graph-build", "rankfeat", "train-ranker", "recommend",
                  "evaluate", "pipeline")
]

# Per-layer self-time metrics: metric name -> span name.
SELF_TIMES = {
    "corpus.parse_s": "corpus.parse",
    "corpus.validate_s": "corpus.validate",
    "simgen.generate_s": "simgen.generate",
    "text.tokenize_s": "text.tokenize",
    "features.extract_s": "features.extract",
    "features.location_cluster_s": "features.location_cluster",
    "kmedoids.s": "kmedoids",
    "community.cluster_s": "community.cluster",
    "community.pair_eval_s": "community.pair_eval",
    "maxent.train_s": "maxent.train",
    "hetgraph.walk_s": "hetgraph.walk",
    "hetgraph.read_s": "hetgraph.read",
    "retrieval.score_s": "retrieval.score",
    "rankfeatures.extract_s": "rankfeatures.extract",
    "ranker.train_s": "ranker.train",
    "ranker.rank_s": "ranker.rank",
    "ranker.load_s": "ranker.load",
    "evaluation.cv_s": "evaluation.cv",
    "metrics.s": "metrics",
    "util.json_read_s": "util.json_read",
    "util.json_write_s": "util.json_write",
    "cli.train-community-classifier_s": "cli.train-community-classifier",
    "cli.assign_s": "cli.assign",
    "cli.graph-build_s": "cli.graph-build",
}
COUNTERS = {
    "corpus.parse_calls": "count",
    "simgen.generate_calls": "count",
    "text.tokenize_calls": "count",
    "kmedoids.calls": "count",
    "kmedoids.swaps": "count",
    "kmedoids.distance_bytes": "B",
    "maxent.iterations": "count",
    "hetgraph.walk_calls": "count",
    "retrieval.score_calls": "count",
    "rankfeatures.extract_calls": "count",
    "ranker.train_calls": "count",
    "ranker.accepted_steps": "count",
    "ranker.rank_calls": "count",
    "evaluation.queries_scored": "count",
    "metrics.calls": "count",
    "util.json_bytes_written": "B",
}
# Layers that only set-up reaches; their metrics come from the traced set-up.
SETUP_LAYERS = ("simgen.generate_s", "simgen.generate_calls")
OVERHEAD = {"trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_pct": "%",
            "trace.span_cost_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in SELF_TIMES}
    units.update(COUNTERS)
    units["corpus.lines_per_s"] = "lines/s"
    units.update(OVERHEAD)
    return units


class Tracer:
    """Records spans (name, start, end, parent, operation) while installed."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_op = -1  # index of the benchmark operation being traced
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, span: str, counter: str | None, hook):
        if span not in self._name_id:
            self._name_id[span] = len(self.span_names)
            self.span_names.append(span)
        nid = self._name_id[span]
        clock = time.perf_counter
        stack, counts = self._stack, self.counts
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "oerrec" or n.startswith("oerrec.")]
        for module_name, attr, span, counter, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, span, counter, hook)
            self._set(owner, leaf, wrapper)
            if path:
                continue  # a method: callers reach it through the class
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, v, True))
                                value[k] = wrapper

    @contextlib.contextmanager
    def installed(self, session):
        """Trace ``session``'s operations for the duration of the block."""
        session.tracer = self
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            session.tracer = None

    def _set(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed span duration minus time covered by direct child spans."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(self.span_names, 0.0)
        for i in range(n):
            totals[self.span_names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return totals

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds, measured on a function that does nothing."""
        def noop():
            return None

        traced = Tracer()._wrap(noop, "probe", None, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def layer_metrics(self) -> dict[str, float]:
        self_times = self.self_times()
        out = {metric: self_times.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        parse_s = out["corpus.parse_s"]
        out["corpus.lines_per_s"] = self.counts["corpus.lines"] / parse_s if parse_s else 0.0
        out["trace.spans"] = len(self.name)
        out["trace.span_cost_s"] = len(self.name) * self.span_cost()
        return out

    def dump(self) -> dict:
        """Every span plus its self times and counts, as one JSON-ready dict."""
        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "span_names": self.span_names,
            "columns": ["name", "parent", "op", "start_s", "end_s"],
            "spans": [[self.name[i], self.parent[i], self.op[i],
                       round(self.start[i] - t0, 7), round(self.end[i] - t0, 7)]
                      for i in range(len(self.name))],
            "self_times_s": self.self_times(),
            "counts": dict(sorted(self.counts.items())),
        }
