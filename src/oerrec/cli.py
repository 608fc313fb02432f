"""Command-line pipeline driver.

Every stage is a subcommand that reads its declared inputs, writes its
declared outputs under --out, and prints a one-line summary. One master
seed governs the whole pipeline; each stage forks it by stage name, so a
rerun with the same config and seed reproduces every artifact byte for
byte. Every artifact but the corpus streams carries `cfg.meta(stage)` (config
hash, seed, stage), which `util` writes as "_meta" or as a TSV comment line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

from . import community as community_mod
from . import evaluation, features, hetgraph, maxent, ranker, simgen
from .config import PipelineConfig, load_config
from .corpus import copy_streams, read_corpus, read_streams, validate_corpus
from .rankfeatures import (RankFeatureExtractor, build_query_features, read_rankfeat,
                           write_rankfeat)
from .util import dump_json, fork_seed, load_json


def _stage_seed(cfg: PipelineConfig, stage: str) -> int:
    return fork_seed(cfg.require_seed(), stage)


def _load_features(cfg: PipelineConfig) -> features.FeatureMatrix:
    return features.features_from_dict(load_json(Path(cfg.out_dir) / "features.json"))


def _read_communities(cfg: PipelineConfig) -> tuple[dict[str, int], dict[str, str]]:
    """communities.tsv, each community checked against the k that cluster
    recorded in cluster_eval.json."""
    out = Path(cfg.out_dir)
    k = load_json(out / "cluster_eval.json")["k"]
    return community_mod.read_communities(out / "communities.tsv", k)


def _clustered(cfg: PipelineConfig) -> dict[str, int]:
    """The communities that cluster wrote, without any earlier predictions."""
    assignment, source = _read_communities(cfg)
    return {r: c for r, c in assignment.items() if source[r] == "clustered"}


def _extractor(cfg: PipelineConfig, oers) -> RankFeatureExtractor:
    """Rank features over graph-build's graph and meta-paths in --out."""
    out = Path(cfg.out_dir)
    graph = hetgraph.read_graph(out / "vertices.tsv", out / "edges.tsv")
    paths = hetgraph.read_metapaths(out / "metapaths.json")
    return RankFeatureExtractor(graph, paths, oers, cfg.mu, cfg.k1, cfg.b)


# -- stages ------------------------------------------------------------------
# Each takes the config and the parsed flags, reads and checks all its inputs
# before its first write, and returns a one-line summary. Every write is
# atomic, but a stage that writes several files replaces them one at a time.

def stage_simulate(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    out = Path(cfg.out_dir)
    sim = cfg.sim_config()
    result = simgen.generate(sim)
    simgen.write_simulation(sim, result, out, cfg.meta("simulate"))
    return (f"simulate: {len(result.corpus.readers)} readers, "
            f"{len(result.corpus.events)} events, {len(result.corpus.oers)} oers, "
            f"{len(result.corpus.queries)} queries -> {out}")


def stage_ingest(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    out = Path(cfg.out_dir)
    # into another directory, the streams are copied and checked against the
    # digests of the bytes that were parsed
    digests = {} if Path(cfg.in_dir).resolve() != out.resolve() else None
    corpus = read_corpus(cfg.in_dir, digests)
    report = validate_corpus(corpus)
    if report["consistent"] and digests is not None:
        copy_streams(cfg.in_dir, out, digests)
    # validation.json records the issues even when the corpus fails them
    dump_json(out / "validation.json", report, cfg.meta("ingest"))
    if not report["consistent"]:
        raise ValueError(f"corpus inconsistent: {len(report['issues'])} issues "
                         f"(see {out / 'validation.json'})")
    return (f"ingest: {len(corpus.readers)} readers, {len(corpus.events)} events, "
            f"{len(corpus.queries)} queries, consistent={report['consistent']}")


def stage_featurize(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    corpus = read_corpus(cfg.in_dir)
    fm = features.extract_features(corpus, cfg.k_loc, _stage_seed(cfg, "featurize"))
    out = Path(cfg.out_dir) / "features.json"
    dump_json(out, features.features_to_dict(fm), cfg.meta("featurize"))
    dims = {name: g.dim for name, g in fm.groups.items()}
    return f"featurize: {len(fm.reader_ids)} readers, group dims {dims}"


def stage_cluster(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    fm = _load_features(cfg)
    model = community_mod.cluster_profiles(fm, cfg, _stage_seed(cfg, "cluster"))
    pairs = {p for p in fm.reply_pairs() if all(r in model.assignment for r in p)}
    scores = community_mod.pairwise_cluster_eval(model.assignment, pairs)
    out = Path(cfg.out_dir)
    community_mod.write_communities(
        out / "communities.tsv", model.assignment,
        {r: "clustered" for r in model.assignment}, cfg.meta("cluster"))
    dump_json(out / "cluster_eval.json", {
        "k": model.k, "metric": model.metric, "cost": model.cost,
        "medoids": list(model.medoid_reader_ids),
        "reply_pair_eval": scores,
    }, cfg.meta("cluster"))
    return (f"cluster: k={model.k} over {len(model.assignment)} readers, "
            f"cost={model.cost:.4f}, reply-pair f1={scores['f1']:.4f}")


def stage_train_community_classifier(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    model = community_mod.fit_behavior_classifier(_load_features(cfg), _clustered(cfg), cfg)
    out = Path(cfg.out_dir) / "maxent.json"
    dump_json(out, model.to_dict(), cfg.meta("train-community-classifier"))
    return (f"train-community-classifier: {model.n_classes} classes, "
            f"{model.n_features} features, {model.iterations} iterations, "
            f"grad norm {model.final_grad_norm:.2e}")


def stage_assign(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    fm = _load_features(cfg)
    out = Path(cfg.out_dir)
    clustered = _clustered(cfg)  # a rerun predicts afresh
    model = maxent.MaxEntModel.from_dict(load_json(out / "maxent.json"))
    predicted = community_mod.predict_behavior(fm, model, clustered, cfg)
    community_mod.write_communities(out / "communities.tsv", {**clustered, **predicted},
                                    {r: "predicted" for r in predicted}, cfg.meta("assign"))
    return (f"assign: {len(clustered) + len(predicted)} readers "
            f"({len(predicted)} predicted)")


def stage_graph_build(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    in_dir = Path(cfg.in_dir)
    graph = hetgraph.read_graph(in_dir / "vertices.tsv", in_dir / "edges.tsv")
    # the built-in meta-paths stand in only when no file is named
    mp_path = Path(cfg.metapath_file or in_dir / "metapaths.json")
    if cfg.metapath_file or mp_path.exists():
        paths = hetgraph.read_metapaths(mp_path)
    else:
        paths = hetgraph.default_metapaths()
    counts = {t: len(graph.vertices(t)) for t in ("paper", "topic", "oer")}
    out = Path(cfg.out_dir)
    meta = cfg.meta("graph-build")
    if in_dir.resolve() != out.resolve():
        hetgraph.write_graph(graph, out / "vertices.tsv", out / "edges.tsv", meta)
    hetgraph.write_metapaths(paths, out / "metapaths.json", meta)
    dump_json(out / "graph_stats.json", {"vertices": counts, "metapaths": len(paths)},
              meta)
    return f"graph-build: vertices {counts}, {len(paths)} metapaths"


def stage_rankfeat(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    corpus = read_streams(cfg.in_dir, "oers.jsonl", "judgments.tsv")
    extractor = _extractor(cfg, corpus.oers)
    queries = build_query_features(corpus, extractor)
    write_rankfeat(Path(cfg.out_dir) / "rankfeat.json", extractor.feature_names,
                   queries, cfg.meta("rankfeat"))
    return (f"rankfeat: {len(queries)} queries x {len(extractor.feature_names)} "
            f"features")


def stage_train_ranker(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    out = Path(cfg.out_dir)
    names, queries = read_rankfeat(out / "rankfeat.json")
    rset = ranker.train_communitized(queries, _read_communities(cfg)[0], names, cfg,
                                     _stage_seed(cfg, "train-ranker"))
    ranker.write_rankerset(rset, out, cfg.meta("train-ranker"))
    return (f"train-ranker: global {cfg.metric}={rset.global_model.metric_value:.4f}, "
            f"{len(rset.models)} community models")


def stage_recommend(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    oers = read_streams(cfg.in_dir, "oers.jsonl").oers
    extractor = _extractor(cfg, oers)
    community = None
    if args.reader is not None:
        community = _read_communities(cfg)[0].get(args.reader)
    try:
        model = ranker.read_served_model(Path(cfg.out_dir), community)
    except FileNotFoundError as exc:
        raise RuntimeError(f"no model: {exc}") from exc

    if extractor.feature_names != model.feature_names:
        raise ValueError(f"feature names {extractor.feature_names} do not match "
                         f"model {model.feature_names}")
    candidates = sorted(oers)
    ranked = ranker.rank(model, candidates,
                         extractor.extract(args.paper, args.quote, candidates))[:args.top]
    for i, (oer_id, score) in enumerate(ranked, start=1):
        print(f"{i}\t{oer_id}\t{score:.6f}\t{oers[oer_id].oer_type.value}")
    return (f"recommend: model={model.community}, paper={args.paper}, "
            f"{len(ranked)} results")


def stage_evaluate(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    mode = args.mode
    out = Path(cfg.out_dir)
    names, queries = read_rankfeat(out / "rankfeat.json")
    if mode == "cv":
        report = evaluation.cross_validate_ranking(queries, names, _read_communities(cfg)[0],
                                                   cfg, _stage_seed(cfg, "evaluate"))
        path = out / "report.json"
    else:  # missing-rpf
        report = evaluation.simulate_missing_rpf(_load_features(cfg), queries, names, cfg,
                                                 _stage_seed(cfg, "evaluate-missing-rpf"))
        path = out / "report_missing_rpf.json"
    dump_json(path, report.to_dict(), cfg.meta(f"evaluate:{mode}"))
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


def stage_pipeline(cfg: PipelineConfig, args: argparse.Namespace) -> str:
    if cfg.metapath_file:  # a bad file fails before simulate writes
        hetgraph.read_metapaths(cfg.metapath_file)
    cfg.in_dir = cfg.out_dir  # simulate reads no input; later stages read its corpus
    for stage in PIPELINE_STAGES:
        print(_STAGES[stage](cfg, args))
    return f"pipeline: {len(PIPELINE_STAGES)} stages complete -> {cfg.out_dir}"


# Every subcommand, in --help order. The values stay plain functions:
# benchmark/tracing.py finds a traced function in module-level dicts too.
_STAGES = {
    "simulate": stage_simulate,
    "ingest": stage_ingest,
    "featurize": stage_featurize,
    "graph-build": stage_graph_build,
    "rankfeat": stage_rankfeat,
    "pipeline": stage_pipeline,
    "cluster": stage_cluster,
    "train-community-classifier": stage_train_community_classifier,
    "assign": stage_assign,
    "train-ranker": stage_train_ranker,
    "recommend": stage_recommend,
    "evaluate": stage_evaluate,
}


# -- argument parsing ---------------------------------------------------------

# flag -> (the subcommands that take it, its add_argument keywords), in
# --help order. A flag whose dest names a PipelineConfig field (or a
# _SIM_KEYS key) overrides that setting. main reuses one parser for every
# call in a process, which is safe only while every default here (and
# pipeline's set_defaults) is immutable: argparse puts defaults into each
# call's new Namespace as they are, without copying them.
_ALL = tuple(_STAGES)
_SIM = ("simulate", "pipeline")
# simulate reads no input, and pipeline reads the corpus its simulate wrote
_READS = tuple(c for c in _ALL if c not in _SIM)
_FLAGS = {
    "--config": (_ALL, {"help": "JSON config file"}),
    "--seed": (_ALL, {"type": int, "help": "master seed (mandatory here or in config)"}),
    "--in": (_READS, {"dest": "in_dir", "help": "input directory"}),
    "--out": (_ALL, {"dest": "out_dir", "help": "output directory"}),
    "--readers": (_SIM, {"type": int, "dest": "sim_readers"}),
    "--alpha": (_SIM, {"type": float, "dest": "sim_alpha"}),
    "--noise": (_SIM, {"type": float, "dest": "sim_noise"}),
    "--k-loc": (("featurize",), {"type": int}),
    "--metapaths": (("graph-build", "pipeline"), {"dest": "metapath_file"}),
    "--k": (("cluster", "pipeline"), {"type": int, "dest": "cluster_k"}),
    "--distance": (("cluster",), {}),
    "--lambda": (("train-community-classifier",), {"type": float, "dest": "lam"}),
    "--mode": (("evaluate",), {"choices": ("cv", "missing-rpf"), "default": "cv"}),
    "--folds": (("evaluate", "pipeline"), {"type": int}),
    "--fraction": (("evaluate",), {"type": float}),
    "--sim-folds": (("evaluate",), {"type": int}),
    "--restarts": (("train-ranker", "evaluate", "pipeline"), {"type": int}),
    "--threshold": (("train-ranker",), {"type": int}),
    "--metric": (("train-ranker",), {}),
    "--paper": (("recommend",), {"required": True}),
    "--quote": (("recommend",), {"required": True}),
    "--reader": (("recommend",), {}),
    "--top": (("recommend",), {"type": int, "default": 5}),
}
_SIM_KEYS = {"sim_readers": "n_readers", "sim_alpha": "alpha",
             "sim_noise": "grade_noise"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oerrec",
        description="Community-based OER recommendation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _STAGES:
        sp = sub.add_parser(command)
        for flag, (commands, keywords) in _FLAGS.items():
            if command in commands:
                sp.add_argument(flag, **keywords)
    sub.choices["pipeline"].set_defaults(mode="cv")  # its evaluate stage
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that main builds on its first call and reuses after: help
    width is read when help is formatted, not when the parser is built."""
    return build_parser()


def _overrides(args: argparse.Namespace) -> dict:
    over = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
            if getattr(args, f.name, None) is not None}
    sim_over = {ck: getattr(args, ak) for ak, ck in _SIM_KEYS.items()
                if getattr(args, ak, None) is not None}
    if sim_over:
        over["sim"] = sim_over
    return over


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # recommend only reads --in and --out; every other command creates --out
    # before it runs, so --out exists even when the command then fails
    writes = args.command != "recommend"
    try:
        over = _overrides(args)
        cfg = load_config(args.config, over)
        cfg.require_seed()
        cfg.overrides_echo = over
        if writes:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        # snapshot before the command runs: pipeline repoints in_dir
        run_config = {"command": args.command, "config": cfg.to_dict()}
        summary = _STAGES[args.command](cfg, args)
        # the full effective config of the last successful command rides
        # along, so a run is reconstructible from its artifacts alone
        if writes:
            dump_json(Path(cfg.out_dir) / "run_config.json", run_config,
                      cfg.meta(args.command))
        print(summary)
        return 0
    except Exception as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
