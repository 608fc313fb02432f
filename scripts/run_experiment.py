#!/usr/bin/env python3
"""Seed-sweep driver for the three synthetic experiments.

ranking      10-fold communitized vs. global nDCG@3 on default corpora
missing-rpf  strip profiles from reader folds, predict their communities
             from behavior, rerun the ranking comparison
clustering   profile-based vs. behavior-based reader clustering scored
             against observed reply pairs (pairwise F1)

Each block prints one row per seed and a verdict line, and the full set of
numbers lands in <out>/experiment_results.json for later inspection.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oerrec.community import cluster_profiles, pairwise_cluster_eval
from oerrec.config import PipelineConfig
from oerrec.evaluation import cross_validate_ranking, simulate_missing_rpf
from oerrec.features import extract_features
from oerrec.hetgraph import default_metapaths
from oerrec.rankfeatures import RankFeatureExtractor, build_query_features
from oerrec.simgen import SimConfig, generate
from oerrec.util import dump_json, stable_hash


def build_inputs(sim: SimConfig, cfg: PipelineConfig):
    """Corpus -> features, judged queries, and a profile clustering."""
    result = generate(sim)
    fm = extract_features(result.corpus)
    extractor = RankFeatureExtractor(
        result.graph, default_metapaths(), result.corpus.oers)
    queries = build_query_features(result.corpus, extractor)
    assignment = cluster_profiles(fm, cfg, sim.seed).assignment
    return result, fm, queries, extractor.feature_names, assignment


def run_ranking(args) -> list[dict]:
    rows = []
    cfg = PipelineConfig(folds=args.folds, restarts=args.restarts)
    print(f"{'seed':>4} {'queries':>8} {'communitized':>13} {'global':>8} "
          f"{'gap':>8} {'sign p':>10}")
    for seed in range(args.seeds):
        sim = SimConfig(n_readers=args.readers, alpha=args.alpha,
                        grade_noise=args.noise, seed=seed)
        t0 = time.perf_counter()
        _, _, queries, names, assignment = build_inputs(sim, cfg)
        report = cross_validate_ranking(queries, names, assignment, cfg, seed)
        comm = report.means("communitized")["ndcg@3"]
        glob = report.means("global")["ndcg@3"]
        p = report.sign_test_p("ndcg@3")
        rows.append({"seed": seed, "n_queries": len(queries),
                     "communitized_ndcg3": comm, "global_ndcg3": glob,
                     "gap": comm - glob, "sign_p": p,
                     "seconds": time.perf_counter() - t0})
        print(f"{seed:>4} {len(queries):>8} {comm:>13.4f} {glob:>8.4f} "
              f"{comm - glob:>+8.4f} {p:>10.3g}")
    wins = sum(1 for r in rows if r["gap"] >= 0.03 and r["sign_p"] < 0.05)
    print(f"verdict: gap >= 0.03 with p < 0.05 on {wins}/{len(rows)} seeds")
    return rows


def run_missing_rpf(args) -> list[dict]:
    rows = []
    cfg = PipelineConfig(folds=args.folds, restarts=args.restarts,
                         fraction=args.fraction, sim_folds=args.sim_folds)
    print(f"{'seed':>4} {'accuracy':>9} {'communitized':>13} {'global':>8} {'gap':>8}")
    for seed in range(args.seeds):
        sim = SimConfig(n_readers=args.readers, alpha=args.alpha,
                        grade_noise=args.noise, seed=seed)
        fm, queries, names = build_inputs(sim, cfg)[1:4]
        report = simulate_missing_rpf(fm, queries, names, cfg, seed)
        comm = report.means("communitized")["ndcg@3"]
        glob = report.means("global")["ndcg@3"]
        acc = report.extras["community_prediction_accuracy"]
        rows.append({"seed": seed, "accuracy": acc,
                     "communitized_ndcg3": comm, "global_ndcg3": glob,
                     "gap": comm - glob})
        print(f"{seed:>4} {acc:>9.4f} {comm:>13.4f} {glob:>8.4f} {comm - glob:>+8.4f}")
    wins = sum(1 for r in rows
               if r["accuracy"] >= 0.8 and r["gap"] > 0)
    print(f"verdict: accuracy >= 0.8 and communitized ahead on "
          f"{wins}/{len(rows)} seeds")
    return rows


def run_clustering(args) -> list[dict]:
    rows = []
    cfg = PipelineConfig()
    print(f"{'seed':>4} {'profile F1':>11} {'behavior F1':>12} {'margin':>8}")
    for seed in range(args.seeds):
        sim = SimConfig(n_readers=args.readers, alpha=args.alpha,
                        grade_noise=args.noise, seed=seed,
                        events_per_reader=args.events_per_reader,
                        queries_per_reader=args.queries_per_reader)
        result = generate(sim)
        fm = extract_features(result.corpus)
        truth = result.corpus.reply_pairs()
        f1 = {}
        for name, groups in (("profile", cfg.cluster_groups),
                             ("behavior", cfg.classifier_groups)):
            assignment = cluster_profiles(
                fm, replace(cfg, cluster_groups=groups), seed).assignment
            f1[name] = pairwise_cluster_eval(assignment, truth)["f1"]
        rows.append({"seed": seed, "profile_f1": f1["profile"],
                     "behavior_f1": f1["behavior"],
                     "margin": f1["profile"] - f1["behavior"]})
        print(f"{seed:>4} {f1['profile']:>11.4f} {f1['behavior']:>12.4f} "
              f"{f1['profile'] - f1['behavior']:>+8.4f}")
    wins = sum(1 for r in rows if r["margin"] > 0)
    print(f"verdict: profile clustering ahead on {wins}/{len(rows)} seeds")
    return rows


EXPERIMENTS = {
    "ranking": run_ranking,
    "missing-rpf": run_missing_rpf,
    "clustering": run_clustering,
}


def main(argv: list[str] | None = None) -> int:
    defaults = PipelineConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", choices=(*EXPERIMENTS, "all"), default="all")
    parser.add_argument("--out", default="experiments")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--readers", type=int, default=60)
    parser.add_argument("--alpha", type=float, default=0.9)
    parser.add_argument("--noise", type=float, default=0.2)
    parser.add_argument("--folds", type=int, default=defaults.folds)
    parser.add_argument("--restarts", type=int, default=defaults.restarts)
    parser.add_argument("--fraction", type=float, default=defaults.fraction,
                        help="reader fraction stripped per missing-rpf fold")
    parser.add_argument("--sim-folds", type=int, default=defaults.sim_folds)
    parser.add_argument("--events-per-reader", type=float, default=3.0,
                        help="clustering block: behavior sample size per reader")
    parser.add_argument("--queries-per-reader", type=float, default=2.0,
                        help="clustering block: judged queries per reader")
    args = parser.parse_args(argv)

    chosen = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    results = {"settings": vars(args).copy()}
    t0 = time.perf_counter()
    for name in chosen:
        print(f"\n== {name} ==")
        results[name] = EXPERIMENTS[name](args)
    results["seconds"] = time.perf_counter() - t0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "experiment_results.json"
    dump_json(path, results, meta={"config_hash": stable_hash(results["settings"]),
                                   "seed": 0})
    print(f"\nwrote {path} ({results['seconds']:.1f}s total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
