"""The three benchmark workloads, each driven in-process through ``oerrec``'s
CLI entry point by one closed-loop client.

A workload builds its inputs with ``oerrec simulate`` in ``setup``, then
repeats whole rounds of the same CLI operations; ``check`` verifies the
outputs of the rounds with ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from oerrec.cli import main

import checks

TRAIN_STAGES = ("ingest", "featurize", "cluster", "train-community-classifier", "assign",
                "graph-build", "rankfeat")


@dataclass
class Op:
    label: str
    seconds: float
    ok: bool
    stdout: str


@dataclass
class Session:
    """Runs CLI operations in-process and records each one's wall time."""

    tracer: object = None
    ops: list[Op] = field(default_factory=list)

    def cli(self, label: str, argv: list[str]) -> Op:
        if self.tracer is not None:
            self.tracer.current_op = len(self.ops)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        op = Op(label, time.perf_counter() - t0, rc == 0, buf.getvalue())
        self.ops.append(op)
        return op


def _require(op: Op) -> Op:
    """Set-up steps must succeed; a failure there aborts the benchmark."""
    if not op.ok:
        raise RuntimeError(f"set-up step {op.label} failed")
    return op


class Workload:
    name = ""
    stage_metrics: tuple[str, ...] = ()  # stage times reported on this workload
    min_rounds = 1

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed, self.smoke = work, seed, smoke
        self.corpus = work / "corpus"
        self.run = work / "run"
        self.rounds: list = []  # per-round artifacts that checks compare
        self.faults: set[str] = set()  # why operations failed their own checks

    def common(self, stage: str) -> list[str]:
        return [stage, "--in", str(self.corpus), "--out", str(self.run),
                "--seed", str(self.seed)]

    def simulate(self, session: Session, readers: int | None) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        argv = ["simulate", "--out", str(self.corpus), "--seed", str(self.seed)]
        if readers is not None:
            argv += ["--readers", str(readers)]
        _require(session.cli("simulate", argv))

    def setup(self, session: Session) -> None:
        raise NotImplementedError

    def round(self, session: Session) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def report(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """This workload's stage times, median over rounds, for display."""
        return {f"{stage.replace('-', '_')}_s":
                (statistics.median(op.seconds for op in ops if op.label == stage), "s")
                for stage in self.stage_metrics}


class CvRanking(Workload):
    """Default corpus; the nine commands from ingest to evaluate --mode cv,
    then ``train-ranker`` on a fixed corpus whose models fail their check."""

    name = "cv-ranking"
    stage_metrics = ("train-ranker", "evaluate")
    min_rounds = 2  # report.json must repeat byte for byte
    # The same corpus whatever --seed is (simulator and master seed 1, 30
    # readers). On it train-ranker stores a global metric.value that the saved
    # weights do not reproduce, so the model check fails on every round: one
    # failed operation a round. On seeded corpora the same fault shows on some
    # seeds only, so the check is made on this corpus alone.
    fixed_seed, fixed_readers = 1, 30

    def fixed(self, stage: str) -> list[str]:
        return [stage, "--in", str(self.work / "fixed" / "corpus"),
                "--out", str(self.work / "fixed" / "run"), "--seed", str(self.fixed_seed)]

    def setup(self, session):
        self.simulate(session, 12 if self.smoke else None)
        _require(session.cli("simulate", [
            "simulate", "--out", str(self.work / "fixed" / "corpus"),
            "--seed", str(self.fixed_seed), "--readers", str(self.fixed_readers)]))
        for stage in TRAIN_STAGES:
            _require(session.cli(stage, self.fixed(stage)))

    def round(self, session):
        shutil.rmtree(self.run, ignore_errors=True)
        small = ["--restarts", "1"] if self.smoke else []
        for stage in TRAIN_STAGES:
            session.cli(stage, self.common(stage))
        session.cli("train-ranker", self.common("train-ranker") + small)
        session.cli("evaluate", self.common("evaluate") + ["--mode", "cv"]
                    + (["--folds", "2"] + small if self.smoke else []))
        self.rounds.append((self.run / "report.json").read_bytes())
        op = session.cli("train-ranker (fixed corpus)", self.fixed("train-ranker"))
        if op.ok:
            faults = checks.check_model_metrics(self.work / "fixed" / "run")
            op.ok = not faults
            self.faults.update(faults)

    def check(self):
        return checks.check_cv_ranking(self.run, self.rounds)


class LargeCorpus(Workload):
    """A corpus large enough that parsing and per-paper location PAM dominate;
    ingest through rankfeat, no ranker."""

    name = "large-corpus"
    stage_metrics = ("ingest", "featurize", "cluster", "rankfeat")
    min_rounds = 3  # run_s is the median of three rounds at least
    readers = 320
    sample = 8  # queries whose rank features are recomputed by the oracles

    def setup(self, session):
        self.simulate(session, 12 if self.smoke else self.readers)

    def round(self, session):
        shutil.rmtree(self.run, ignore_errors=True)
        for stage in TRAIN_STAGES:
            session.cli(stage, self.common(stage))

    def check(self):
        return checks.check_large_corpus(self.corpus, self.run, self.seed, self.sample)


class Recommend(Workload):
    """Sequential ``recommend --top 5`` requests against a run directory
    trained on the default corpus."""

    name = "recommend"
    top = 5
    distinct = 50  # requests drawn in set-up; the rounds cycle through them
    batch = 10  # requests per round: short rounds give run_s a median of many
    # 150 requests, more than the 100 that put ten beyond p90: on a shared
    # 2-vCPU host, run_s over 100 requests spread by up to 0.32 of its median
    # over ten seeds, and over 200 by up to 0.16; 200 would put the whole
    # benchmark near its time limit.
    min_rounds = 15

    def setup(self, session):
        self.simulate(session, 12 if self.smoke else None)
        small = ["--restarts", "1"] if self.smoke else []
        for stage in TRAIN_STAGES:
            _require(session.cli(stage, self.common(stage)))
        _require(session.cli("train-ranker", self.common("train-ranker") + small))
        judged = checks.read_judged_queries(self.corpus)
        qids = random.Random(self.seed).sample(sorted(judged), min(self.distinct, len(judged)))
        self.requests = [(q, judged[q][1], judged[q][2], judged[q][0]) for q in qids]

    def round(self, session):
        for _ in range(self.batch):
            _, paper, quote, reader = self.requests[len(self.rounds) % len(self.requests)]
            op = session.cli("recommend", self.common("recommend") + [
                "--paper", paper, "--quote", quote, "--reader", reader,
                "--top", str(self.top)])
            self.rounds.append(op.stdout)

    def report(self, ops):
        lat = [op.seconds * 1000.0 for op in ops]
        return {"recommend_p50_ms": (statistics.median(lat), "ms"),
                "recommend_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8],
                                     "ms"),
                "requests": (len(lat), "count")}

    def check(self):
        return checks.check_recommend(self.corpus, self.run, self.requests, self.rounds,
                                      self.top)


WORKLOADS = {w.name: w for w in (CvRanking, LargeCorpus, Recommend)}
