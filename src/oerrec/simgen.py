"""Seeded synthetic corpora with planted communities, community-dependent
OER preferences, and a matching paper-topic-OER graph.

All randomness flows through one generator seeded from the config, with this
draw order (loops run in creation order, which equals sorted-id order):

  1. per reader: course-inclusion uniforms (all communities' courses, then
     shared courses), then per skill a jitter uniform and, if jittering, a
     direction bit;
  2. per OER, per paper about its home topic: a resource-edge uniform;
  3. per reader: event-count Poisson, then per event kind/topic/paper/
     location/text draws in that order;
  4. reply pairs: per community a deterministic ring (no draws), then one
     uniform per remaining same-community pair, then one per cross pair;
     each accepted pair immediately draws its target-event index and two
     reply-text fillers;
  5. per reader: query-count Poisson, then per query topic/paper/text/
     location draws, candidate-subset draws, and per candidate a grade draw
     (base grade is deterministic), a noise uniform and a not-sure uniform.

Token-level output is reproducible within this implementation; planted
labels are returned separately and never written into the corpus streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (Corpus, EventKind, Grade, JudgedQuery, OerItem, OerType,
                     ReaderProfile, ReadingEvent, write_corpus)
from .hetgraph import HetGraph, default_metapaths, write_graph, write_metapaths
from .util import dump_json, fork_seed, write_tsv

N_PAGES = 10
COMMUNITY_COURSES = 3
SHARED_COURSES = 2
N_SKILLS = 4
TOPIC_BIAS = 0.7  # probability an event/query topic comes from the own pool
VOCAB_BIAS = 0.8  # probability a filler token comes from the community slice
RESOURCE_EDGE_PROB = 0.4
MAX_RELATED_CANDIDATES = 4


@dataclass(frozen=True)
class SimConfig:
    n_readers: int = 60
    n_communities: int = 3
    alpha: float = 0.9  # 1 = reply pairs fully separated by community
    n_papers: int = 8
    n_topics: int = 12
    oers_per_type: dict = field(default_factory=lambda: {
        "video": 6, "slides": 6, "wiki": 6, "code": 6})
    events_per_reader: float = 12.0
    queries_per_reader: float = 8.0
    candidates_per_query: int = 8
    preferred_types: tuple[str, ...] = ("video", "code", "slides", "wiki")
    grade_noise: float = 0.2
    notsure_rate: float = 0.03
    vocab_size: int = 120
    seed: int = 0

    def validate(self) -> None:
        if self.n_readers < 0:
            raise ValueError("n_readers must be >= 0")
        for name in ("n_communities", "n_papers", "n_topics",
                     "candidates_per_query", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for t, c in self.oers_per_type.items():
            OerType(t)
            if c < 1:
                raise ValueError(f"oers_per_type[{t!r}] must be positive")
        for name in ("alpha", "grade_noise", "notsure_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if self.events_per_reader <= 0 or self.queries_per_reader <= 0:
            raise ValueError("per-reader rates must be positive")
        for t in self.preferred_types:
            OerType(t)
        if 0 < self.n_readers < self.n_communities:
            raise ValueError("need at least one reader per community")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["preferred_types"] = list(self.preferred_types)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        d = dict(d)
        if "preferred_types" in d:
            d["preferred_types"] = tuple(d["preferred_types"])
        return cls(**d)


@dataclass
class SimResult:
    corpus: Corpus
    latent: dict[str, int]  # reader_id -> planted community
    graph: HetGraph


class _Gen:
    def __init__(self, config: SimConfig):
        config.validate()
        self.cfg = config
        self.rng = np.random.default_rng(fork_seed(config.seed, "simgen"))
        k = config.n_communities
        self.readers = [f"r{i:03d}" for i in range(config.n_readers)]
        self.latent = {r: i % k for i, r in enumerate(self.readers)}
        self.papers = [f"p{i:02d}" for i in range(config.n_papers)]
        self.topics = [f"t{i:02d}" for i in range(config.n_topics)]
        self.topic_token = {t: f"topic{i:02d}" for i, t in enumerate(self.topics)}
        self.vocab = [f"w{j:03d}" for j in range(config.vocab_size)]
        self.preferred = {c: config.preferred_types[c % len(config.preferred_types)]
                          for c in range(k)}
        # paper i is about two topics; every topic is covered
        T = config.n_topics
        self.paper_topics = {p: sorted({self.topics[(2 * i) % T],
                                        self.topics[(2 * i + 1) % T]})
                             for i, p in enumerate(self.papers)}
        self.topic_papers = {t: sorted(p for p, ts in self.paper_topics.items()
                                       if t in ts)
                             for t in self.topics}
        self.oers: list[OerItem] = []
        self.oer_topic: dict[str, str] = {}
        counter = 0
        for type_name in [t.value for t in OerType]:
            for j in range(config.oers_per_type.get(type_name, 0)):
                oer_id = f"{type_name}{j:02d}"
                topic = self.topics[counter % T]
                counter += 1
                token = self.topic_token[topic]
                body = f"{token} {token} {type_name} material on {token} w{j:03d}"
                self.oers.append(OerItem(oer_id, OerType(type_name),
                                         f"{type_name} on {token}", body))
                self.oer_topic[oer_id] = topic
        self.corpus = Corpus()
        self.events_of: dict[str, list[str]] = {r: [] for r in self.readers}

    # -- draw helpers -----------------------------------------------------

    def _community_slice(self, c: int) -> list[str]:
        V, k = self.cfg.vocab_size, self.cfg.n_communities
        lo, hi = (c * V) // k, ((c + 1) * V) // k
        return self.vocab[lo:hi]

    def _filler(self, c: int) -> str:
        pool = self._community_slice(c) if self.rng.uniform() < VOCAB_BIAS else self.vocab
        return pool[int(self.rng.integers(len(pool)))]

    def _topic_for(self, c: int) -> str:
        k = self.cfg.n_communities
        own = [t for i, t in enumerate(self.topics) if i % k == c]
        if own and self.rng.uniform() < TOPIC_BIAS:
            return own[int(self.rng.integers(len(own)))]
        return self.topics[int(self.rng.integers(len(self.topics)))]

    def _paper_for(self, topic: str) -> str:
        pool = self.topic_papers[topic] or self.papers
        return pool[int(self.rng.integers(len(pool)))]

    def _location(self, c: int) -> tuple[int, tuple[float, float, float, float]]:
        k = self.cfg.n_communities
        page_center = (c + 0.5) * N_PAGES / k
        page = int(np.clip(round(self.rng.normal(page_center, 1.5)), 0, N_PAGES - 1))
        y_bias = 0.15 + 0.7 * (c / max(k - 1, 1))
        y = float(np.clip(self.rng.normal(y_bias, 0.15), 0.05, 0.95))
        x = float(self.rng.uniform(0.1, 0.9))
        bbox = (max(x - 0.15, 0.0), max(y - 0.02, 0.0),
                min(x + 0.15, 1.0), min(y + 0.02, 1.0))
        return page, bbox

    def _passage_text(self, c: int, topic: str, n_fillers: int = 3) -> str:
        words = [self.topic_token[topic]]
        words.extend(self._filler(c) for _ in range(n_fillers))
        return " ".join(words)

    def _add_event(self, **kwargs) -> str:
        n = len(self.corpus.events)
        event_id = f"e{n:05d}"
        self.corpus.events[event_id] = ReadingEvent(event_id=event_id, timestamp=n, **kwargs)
        return event_id

    # -- stages -------------------------------------------------------------

    def profiles(self) -> None:
        noise = self.cfg.grade_noise
        k = self.cfg.n_communities
        for r in self.readers:
            c = self.latent[r]
            courses = []
            for c2 in range(k):
                for j in range(COMMUNITY_COURSES):
                    p = 1.0 - noise / 2 if c2 == c else noise / 6
                    if self.rng.uniform() < p:
                        courses.append(f"c{c2}{j}")
            for j in range(SHARED_COURSES):
                if self.rng.uniform() < noise / 2:
                    courses.append(f"core{j}")
            skills = {}
            for j in range(N_SKILLS):
                level = 1 + (c + j) % 4
                if self.rng.uniform() < noise:
                    level = int(np.clip(level + (1 if self.rng.integers(2) else -1), 1, 4))
                skills[f"s{j}"] = level
            self.corpus.readers[r] = ReaderProfile(
                r, frozenset(courses), skills, has_rpf=True)

    def graph(self) -> HetGraph:
        g = HetGraph()
        for p in self.papers:
            g.add_vertex(p, "paper")
        for t in self.topics:
            g.add_vertex(t, "topic", self.topic_token[t])
        for o in self.oers:
            g.add_vertex(o.oer_id, "oer", o.oer_type.value)
            self.corpus.oers[o.oer_id] = o
        for p in self.papers:
            for t in self.paper_topics[p]:
                g.add_edge(p, "about", t)
                g.add_edge(t, "covers", p)
        for o in self.oers:
            g.add_edge(self.oer_topic[o.oer_id], "related", o.oer_id)
            for p in self.topic_papers[self.oer_topic[o.oer_id]]:
                if self.rng.uniform() < RESOURCE_EDGE_PROB:
                    g.add_edge(p, "resource", o.oer_id)
        return g

    def reading_events(self) -> None:
        for r in self.readers:
            c = self.latent[r]
            n_events = max(1, int(self.rng.poisson(self.cfg.events_per_reader)))
            for _ in range(n_events):
                u = self.rng.uniform()
                kind = (EventKind.QUOTE if u < 0.5
                        else EventKind.COMMENT if u < 0.75 else EventKind.QUESTION)
                topic = self._topic_for(c)
                paper = self._paper_for(topic)
                page, bbox = self._location(c)
                passage = self._passage_text(c, topic)
                content = ""
                if kind is not EventKind.QUOTE:
                    content = self._passage_text(c, topic, n_fillers=2)
                event_id = self._add_event(
                    kind=kind, reader_id=r, paper_id=paper, page=page, bbox=bbox,
                    quote_text=passage, content_text=content)
                self.events_of[r].append(event_id)

    def replies(self) -> None:
        cfg = self.cfg
        p_in = (1.0 - cfg.grade_noise) * (0.4 + 0.6 * cfg.alpha)
        p_out = 0.3 * (1.0 - cfg.alpha)
        members = {c: sorted(r for r in self.readers if self.latent[r] == c)
                   for c in range(cfg.n_communities)}

        def add_reply(author: str, target_reader: str) -> None:
            pool = self.events_of[target_reader]
            target = pool[int(self.rng.integers(len(pool)))]
            t_ev = self.corpus.events[target]
            content = " ".join(self._filler(self.latent[author]) for _ in range(2))
            self._add_event(
                kind=EventKind.REPLY, reader_id=author, paper_id=t_ev.paper_id,
                page=t_ev.page, bbox=t_ev.bbox, content_text=content,
                target_event_id=target)

        ring: set[frozenset] = set()
        for c in range(cfg.n_communities):
            ms = members[c]
            if len(ms) >= 2:
                for i in range(len(ms)):
                    pair = frozenset((ms[i], ms[(i + 1) % len(ms)]))
                    if pair not in ring:
                        ring.add(pair)
                        a, b = sorted(pair)
                        add_reply(a, b)
        for c in range(cfg.n_communities):
            for a, b in itertools.combinations(members[c], 2):
                if frozenset((a, b)) in ring:
                    continue
                if self.rng.uniform() < p_in:
                    add_reply(a, b)
        for c1, c2 in itertools.combinations(range(cfg.n_communities), 2):
            for a in members[c1]:
                for b in members[c2]:
                    if self.rng.uniform() < p_out:
                        add_reply(a, b)

    def _base_grade(self, c: int, query_topic: str, oer: OerItem) -> int:
        related = self.oer_topic[oer.oer_id] == query_topic
        preferred = oer.oer_type.value == self.preferred[c]
        if related and preferred:
            return 2
        if related or preferred:
            return 1
        return 0

    def judgments(self) -> None:
        cfg = self.cfg
        all_ids = [o.oer_id for o in self.oers]
        for r in self.readers:
            c = self.latent[r]
            n_q = max(1, int(self.rng.poisson(cfg.queries_per_reader)))
            for qi in range(n_q):
                topic = self._topic_for(c)
                paper = self._paper_for(topic)
                quote = self._passage_text(c, topic)
                page, bbox = self._location(c)
                related = [o for o in all_ids if self.oer_topic[o] == topic]
                if len(related) > MAX_RELATED_CANDIDATES:
                    pick = self.rng.choice(len(related), MAX_RELATED_CANDIDATES,
                                           replace=False)
                    related = [related[i] for i in sorted(pick)]
                rest = [o for o in all_ids if o not in set(related)]
                need = min(cfg.candidates_per_query - len(related), len(rest))
                extra = []
                if need > 0:
                    pick = self.rng.choice(len(rest), need, replace=False)
                    extra = [rest[i] for i in sorted(pick)]
                pool = related + extra
                order = self.rng.permutation(len(pool))
                candidates = [pool[i] for i in order]

                rows = []
                for oer_id in candidates:
                    gain = self._base_grade(c, topic, self.corpus.oers[oer_id])
                    if self.rng.uniform() < cfg.grade_noise:
                        gain = int(self.rng.integers(3))
                    grade = {0: Grade.BAD, 1: Grade.OK, 2: Grade.GOOD}[gain]
                    if self.rng.uniform() < cfg.notsure_rate:
                        grade = Grade.NOT_SURE
                    rows.append((oer_id, grade))
                    self._add_event(
                        kind=EventKind.RATING, reader_id=r, paper_id=paper,
                        page=page, bbox=bbox, oer_id=oer_id, grade=grade)
                query_id = f"q-{r}-{qi:02d}"
                self.corpus.queries[query_id] = JudgedQuery(
                    query_id, r, paper, quote, tuple(rows))


def generate(config: SimConfig) -> SimResult:
    gen = _Gen(config)
    if config.n_readers == 0:
        return SimResult(Corpus(), {}, HetGraph())
    gen.profiles()
    graph = gen.graph()
    gen.reading_events()
    gen.replies()
    gen.judgments()
    return SimResult(gen.corpus, dict(gen.latent), graph)


def write_simulation(config: SimConfig, result: SimResult, out_dir, meta: dict) -> None:
    """Corpus streams, graph files, default meta-paths, latent labels and a
    config echo for `result = generate(config)`, all under out_dir.

    Every file but the corpus streams (their formats carry no comments)
    carries meta, the run's provenance record (`PipelineConfig.meta`);
    sim_config.json holds the full `SimConfig` next to it.
    """
    out = Path(out_dir)
    write_corpus(result.corpus, out)

    write_tsv(out / "latent.tsv", ("reader_id", "community"),
              sorted(result.latent.items()), meta)
    write_graph(result.graph, out / "vertices.tsv", out / "edges.tsv", meta)
    write_metapaths(default_metapaths(), out / "metapaths.json", meta)
    dump_json(out / "sim_config.json", config.to_dict(), meta)
