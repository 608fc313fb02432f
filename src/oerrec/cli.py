"""Command-line pipeline driver.

Every stage is a subcommand that reads its declared inputs, writes its
declared outputs under --out, and prints a one-line summary. One master
seed governs the whole pipeline; each stage forks it by stage name, so a
rerun with the same config and seed reproduces every artifact byte for
byte. JSON artifacts embed the config hash and seed under "_meta";
tab-separated artifacts carry them in a comment line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import community as community_mod
from . import evaluation, features, hetgraph, maxent, ranker, simgen
from .config import PipelineConfig, load_config
from .corpus import read_corpus, read_streams, validate_corpus, write_corpus
from .rankfeatures import QueryFeatures, RankFeatureExtractor, build_query_features
from .util import dump_json, fork_seed, load_json


def _comment(cfg: PipelineConfig, stage: str) -> str:
    return f"config_hash={cfg.config_hash()} seed={cfg.require_seed()} stage={stage}"


def _stage_seed(cfg: PipelineConfig, stage: str) -> int:
    return fork_seed(cfg.require_seed(), stage)


def _read_rankfeat(path) -> tuple[tuple[str, ...], list[QueryFeatures]]:
    d = load_json(path)
    names = tuple(d["feature_names"])
    queries = [
        QueryFeatures(q["query_id"], q["reader_id"], tuple(q["candidates"]),
                      np.asarray(q["gains"], dtype=np.int64),
                      np.asarray(q["X"], dtype=np.float64))
        for q in d["queries"]
    ]
    return names, queries


# -- stages ------------------------------------------------------------------
# Each reads and checks all its inputs before its first write and returns a
# one-line summary. Every write is atomic, so a failed command leaves the
# files of an earlier run as they were.

def stage_simulate(cfg: PipelineConfig) -> str:
    out = Path(cfg.out_dir)
    sim = cfg.sim_config()
    result = simgen.generate(sim)
    simgen.write_simulation(sim, result, out, _comment(cfg, "simulate"))
    return (f"simulate: {len(result.corpus.readers)} readers, "
            f"{len(result.corpus.events)} events, {len(result.corpus.oers)} oers, "
            f"{len(result.corpus.queries)} queries -> {out}")


def stage_ingest(cfg: PipelineConfig) -> str:
    corpus = read_corpus(cfg.in_dir)
    report = validate_corpus(corpus)
    out = Path(cfg.out_dir)
    # validation.json records the issues even when the corpus fails them
    dump_json(out / "validation.json", report, cfg.meta("ingest"))
    if not report["consistent"]:
        raise ValueError(f"corpus inconsistent: {len(report['issues'])} issues "
                         f"(see {out / 'validation.json'})")
    if Path(cfg.in_dir).resolve() != out.resolve():
        write_corpus(corpus, out)
    return (f"ingest: {len(corpus.readers)} readers, {len(corpus.events)} events, "
            f"{len(corpus.queries)} queries, consistent={report['consistent']}")


def stage_featurize(cfg: PipelineConfig) -> str:
    corpus = read_corpus(cfg.in_dir)
    fm = features.extract_features(corpus, cfg.k_loc, _stage_seed(cfg, "featurize"))
    out = Path(cfg.out_dir) / "features.json"
    dump_json(out, features.features_to_dict(fm), cfg.meta("featurize"))
    dims = {name: g.dim for name, g in fm.groups.items()}
    return f"featurize: {len(fm.reader_ids)} readers, group dims {dims}"


def _load_features(cfg: PipelineConfig) -> features.FeatureMatrix:
    return features.features_from_dict(load_json(Path(cfg.out_dir) / "features.json"))


def stage_cluster(cfg: PipelineConfig) -> str:
    fm = _load_features(cfg)
    model = community_mod.cluster_profiles(
        fm, cfg.cluster_k, cfg.distance, _stage_seed(cfg, "cluster"),
        cfg.cluster_groups, cfg.group_weights)
    pairs = {p for p in fm.reply_pairs()
             if all(r in model.assignment for r in p)}
    scores = community_mod.pairwise_cluster_eval(model.assignment, pairs)
    out = Path(cfg.out_dir)
    community_mod.write_communities(
        out / "communities.tsv", model.assignment,
        {r: "clustered" for r in model.assignment}, _comment(cfg, "cluster"))
    dump_json(out / "cluster_eval.json", {
        "k": model.k, "metric": model.metric, "cost": model.cost,
        "medoids": list(model.medoid_reader_ids),
        "reply_pair_eval": scores,
    }, cfg.meta("cluster"))
    return (f"cluster: k={model.k} over {len(model.assignment)} readers, "
            f"cost={model.cost:.4f}, reply-pair f1={scores['f1']:.4f}")


def stage_train_community_classifier(cfg: PipelineConfig) -> str:
    assignment, source = community_mod.read_communities(
        Path(cfg.out_dir) / "communities.tsv")
    clustered = {r: c for r, c in assignment.items() if source[r] == "clustered"}
    model = community_mod.fit_behavior_classifier(
        _load_features(cfg), clustered, cfg.classifier_groups, cfg.lam)
    out = Path(cfg.out_dir) / "maxent.json"
    dump_json(out, model.to_dict(), cfg.meta("train-community-classifier"))
    return (f"train-community-classifier: {model.n_classes} classes, "
            f"{model.n_features} features, {model.iterations} iterations, "
            f"grad norm {model.final_grad_norm:.2e}")


def stage_assign(cfg: PipelineConfig) -> str:
    fm = _load_features(cfg)
    out = Path(cfg.out_dir)
    assignment, source = community_mod.read_communities(out / "communities.tsv")
    model = maxent.MaxEntModel.from_dict(load_json(out / "maxent.json"))
    predicted = community_mod.predict_behavior(fm, model, assignment,
                                               cfg.classifier_groups)
    assignment.update(predicted)
    source.update({r: "predicted" for r in predicted})
    community_mod.write_communities(out / "communities.tsv", assignment, source,
                                    _comment(cfg, "assign"))
    return (f"assign: {len(assignment)} readers "
            f"({sum(1 for s in source.values() if s == 'predicted')} predicted)")


def stage_graph_build(cfg: PipelineConfig) -> str:
    in_dir = Path(cfg.in_dir)
    graph = hetgraph.read_graph(in_dir / "vertices.tsv", in_dir / "edges.tsv")
    mp_path = cfg.metapath_file or (in_dir / "metapaths.json")
    if Path(mp_path).exists():
        paths = hetgraph.read_metapaths(mp_path)
    else:
        paths = hetgraph.default_metapaths()
    counts = {t: len(graph.vertices(t)) for t in ("paper", "topic", "oer")}
    out = Path(cfg.out_dir)
    if in_dir.resolve() != out.resolve():
        hetgraph.write_graph(graph, out / "vertices.tsv", out / "edges.tsv",
                             _comment(cfg, "graph-build"))
    hetgraph.write_metapaths(paths, out / "metapaths.json",
                             cfg.meta("graph-build"))
    dump_json(out / "graph_stats.json", {"vertices": counts,
                                         "metapaths": len(paths)},
              cfg.meta("graph-build"))
    return f"graph-build: vertices {counts}, {len(paths)} metapaths"


def stage_rankfeat(cfg: PipelineConfig) -> str:
    corpus = read_streams(cfg.in_dir, "oers.jsonl", "judgments.tsv")
    out = Path(cfg.out_dir)
    graph = hetgraph.read_graph(out / "vertices.tsv", out / "edges.tsv")
    paths = hetgraph.read_metapaths(out / "metapaths.json")
    extractor = RankFeatureExtractor(graph, paths, corpus.oers,
                                     cfg.mu, cfg.k1, cfg.b)
    queries = build_query_features(corpus, extractor)
    payload = {
        "feature_names": list(extractor.feature_names),
        "queries": [
            {"query_id": q.query_id, "reader_id": q.reader_id,
             "candidates": list(q.candidates), "gains": q.gains.tolist(),
             "X": q.X.tolist()}
            for q in queries
        ],
    }
    dump_json(out / "rankfeat.json", payload, cfg.meta("rankfeat"))
    return (f"rankfeat: {len(queries)} queries x {len(extractor.feature_names)} "
            f"features")


def stage_train_ranker(cfg: PipelineConfig) -> str:
    out = Path(cfg.out_dir)
    names, queries = _read_rankfeat(out / "rankfeat.json")
    assignment, _ = community_mod.read_communities(out / "communities.tsv")
    rset = ranker.train_communitized(
        queries, assignment, names, cfg.metric, cfg.restarts, cfg.threshold,
        _stage_seed(cfg, "train-ranker"))
    ranker.write_rankerset(rset, out, cfg.meta("train-ranker"))
    return (f"train-ranker: global {cfg.metric}={rset.global_model.metric_value:.4f}, "
            f"{len(rset.models)} community models")


def stage_recommend(cfg: PipelineConfig,
                    paper: str, quote: str, reader: str | None, top: int) -> str:
    if top < 1:
        raise ValueError(f"--top must be at least 1, got {top}")
    out = Path(cfg.out_dir)
    oers = read_streams(cfg.in_dir, "oers.jsonl").oers
    graph = hetgraph.read_graph(out / "vertices.tsv", out / "edges.tsv")
    paths = hetgraph.read_metapaths(out / "metapaths.json")
    try:
        rset = ranker.read_rankerset(out)
    except FileNotFoundError as exc:
        raise RuntimeError(f"no model: {exc}") from exc
    community = None
    if reader is not None:
        assignment, _ = community_mod.read_communities(out / "communities.tsv")
        community = assignment.get(reader)
    model = rset.resolve(community)

    extractor = RankFeatureExtractor(graph, paths, oers, cfg.mu, cfg.k1, cfg.b)
    if extractor.feature_names != model.feature_names:
        raise ValueError(f"feature names {extractor.feature_names} do not match "
                         f"model {model.feature_names}")
    candidates = sorted(oers)
    ranked = ranker.rank(model, candidates,
                         extractor.extract(paper, quote, candidates))[:top]
    for i, (oer_id, score) in enumerate(ranked, start=1):
        print(f"{i}\t{oer_id}\t{score:.6f}\t{oers[oer_id].oer_type.value}")
    return (f"recommend: model={model.community}, paper={paper}, "
            f"{len(ranked)} results")


def stage_evaluate(cfg: PipelineConfig, mode: str = "cv") -> str:
    out = Path(cfg.out_dir)
    names, queries = _read_rankfeat(out / "rankfeat.json")
    if mode == "cv":
        assignment, _ = community_mod.read_communities(out / "communities.tsv")
        report = evaluation.cross_validate_ranking(
            queries, names, assignment, cfg.folds, _stage_seed(cfg, "evaluate"),
            cfg.metric, cfg.restarts, cfg.threshold)
        path = out / "report.json"
    elif mode == "missing-rpf":
        fm = _load_features(cfg)
        report = evaluation.simulate_missing_rpf(
            fm, queries, names, cfg.fraction, cfg.sim_folds,
            _stage_seed(cfg, "evaluate-missing-rpf"), cfg.cluster_k,
            cfg.distance, cfg.lam, cfg.folds, cfg.metric, cfg.restarts,
            cfg.threshold, cfg.cluster_groups, cfg.classifier_groups,
            cfg.group_weights)
        path = out / "report_missing_rpf.json"
    else:
        raise ValueError(f"unknown evaluate mode {mode!r}")
    evaluation.write_report(report, path, cfg.meta(f"evaluate:{mode}"))
    comm = report.means("communitized")["ndcg@3"]
    glob = report.means("global")["ndcg@3"]
    p = report.sign_test_p("ndcg@3")
    extra = ""
    if mode == "missing-rpf":
        acc = report.extras.get("community_prediction_accuracy")
        extra = f", prediction accuracy={acc:.4f}" if acc is not None else ""
    return (f"evaluate[{mode}]: ndcg@3 communitized={comm:.4f} global={glob:.4f} "
            f"(p={p:.4g}, {report.n_evaluated} evaluated, "
            f"{len(report.skipped)} skipped){extra}")


PIPELINE_STAGES = ("simulate", "ingest", "featurize", "cluster",
                   "train-community-classifier", "assign", "graph-build",
                   "rankfeat", "train-ranker", "evaluate")


def stage_pipeline(cfg: PipelineConfig) -> str:
    summaries = []
    for stage in PIPELINE_STAGES:
        if stage == "simulate":
            summaries.append(stage_simulate(cfg))
            cfg.in_dir = cfg.out_dir  # later stages read the generated corpus
        elif stage == "evaluate":
            summaries.append(stage_evaluate(cfg, "cv"))
        else:
            summaries.append(_STAGES[stage](cfg))
        print(summaries[-1])
    return f"pipeline: {len(PIPELINE_STAGES)} stages complete -> {cfg.out_dir}"


_STAGES = {
    "simulate": stage_simulate,
    "ingest": stage_ingest,
    "featurize": stage_featurize,
    "cluster": stage_cluster,
    "train-community-classifier": stage_train_community_classifier,
    "assign": stage_assign,
    "graph-build": stage_graph_build,
    "rankfeat": stage_rankfeat,
    "train-ranker": stage_train_ranker,
    "pipeline": stage_pipeline,
}


# -- argument parsing ---------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, help="master seed (mandatory here or in config)")
    sp.add_argument("--in", dest="in_dir", help="input directory")
    sp.add_argument("--out", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oerrec",
        description="Community-based OER recommendation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "ingest", "featurize", "graph-build",
                 "rankfeat", "pipeline"):
        sp = sub.add_parser(name)
        _add_common(sp)
        if name in ("simulate", "pipeline"):
            sp.add_argument("--readers", type=int, dest="sim_readers")
            sp.add_argument("--alpha", type=float, dest="sim_alpha")
            sp.add_argument("--noise", type=float, dest="sim_noise")
        if name == "featurize":
            sp.add_argument("--k-loc", type=int, dest="k_loc")
        if name in ("graph-build", "pipeline"):
            sp.add_argument("--metapaths", dest="metapath_file")
        if name == "pipeline":
            sp.add_argument("--k", type=int, dest="cluster_k")
            sp.add_argument("--folds", type=int, dest="folds")
            sp.add_argument("--restarts", type=int, dest="restarts")

    sp = sub.add_parser("cluster")
    _add_common(sp)
    sp.add_argument("--k", type=int, dest="cluster_k")
    sp.add_argument("--distance", dest="distance")

    sp = sub.add_parser("train-community-classifier")
    _add_common(sp)
    sp.add_argument("--lambda", type=float, dest="lam")

    sp = sub.add_parser("assign")
    _add_common(sp)

    sp = sub.add_parser("train-ranker")
    _add_common(sp)
    sp.add_argument("--restarts", type=int, dest="restarts")
    sp.add_argument("--threshold", type=int, dest="threshold")
    sp.add_argument("--metric", dest="metric")

    sp = sub.add_parser("recommend")
    _add_common(sp)
    sp.add_argument("--paper", required=True)
    sp.add_argument("--quote", required=True)
    sp.add_argument("--reader")
    sp.add_argument("--top", type=int, default=5)

    sp = sub.add_parser("evaluate")
    _add_common(sp)
    sp.add_argument("--mode", choices=("cv", "missing-rpf"), default="cv")
    sp.add_argument("--folds", type=int, dest="folds")
    sp.add_argument("--fraction", type=float, dest="fraction")
    sp.add_argument("--sim-folds", type=int, dest="sim_folds")
    sp.add_argument("--restarts", type=int, dest="restarts")
    return parser


_SIM_KEYS = {"sim_readers": "n_readers", "sim_alpha": "alpha",
             "sim_noise": "grade_noise"}


def _overrides(args: argparse.Namespace) -> dict:
    over = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
            if getattr(args, f.name, None) is not None}
    sim_over = {ck: getattr(args, ak) for ak, ck in _SIM_KEYS.items()
                if getattr(args, ak, None) is not None}
    if sim_over:
        over["sim"] = sim_over
    return over


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        over = _overrides(args)
        sim_over = over.pop("sim", None)
        cfg = load_config(args.config, over)
        if sim_over:
            cfg.sim = {**cfg.sim, **sim_over}
        cfg.require_seed()
        cfg.overrides_echo = {**over, **({"sim": sim_over} if sim_over else {})}
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        # snapshot before the command runs: pipeline repoints in_dir
        run_config = {"command": args.command, "config": cfg.to_dict()}

        if args.command == "recommend":
            summary = stage_recommend(cfg, args.paper, args.quote,
                                      args.reader, args.top)
        elif args.command == "evaluate":
            summary = stage_evaluate(cfg, args.mode)
        else:
            summary = _STAGES[args.command](cfg)
        # the full effective config of the last successful command rides
        # along, so a run is reconstructible from its artifacts alone; the
        # read-only recommend leaves it as is
        if args.command != "recommend":
            dump_json(Path(cfg.out_dir) / "run_config.json", run_config,
                      cfg.meta(args.command))
        print(summary)
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
