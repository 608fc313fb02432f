"""Data model for readers, events, OERs and judgments, plus the line-oriented
file formats that carry them.

Streams are line-delimited: ``readers.jsonl``, ``events.jsonl``,
``oers.jsonl`` (one JSON object per line) and ``judgments.tsv`` (one judged
candidate per line). Record-local invariants are enforced at parse time;
cross-record references are checked separately by :func:`validate_corpus`.
"""

from __future__ import annotations

import enum
import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator

log = logging.getLogger(__name__)


class EventKind(enum.Enum):
    QUOTE = "quote"
    QUESTION = "question"
    COMMENT = "comment"
    REPLY = "reply"
    RATING = "rating"


class OerType(enum.Enum):
    VIDEO = "video"
    SLIDES = "slides"
    WIKI = "wiki"
    CODE = "code"


class Grade(enum.Enum):
    GOOD = "Good"
    OK = "OK"
    BAD = "Bad"
    NOT_SURE = "NotSure"

    @property
    def gain(self) -> int | None:
        """Graded gain used for ranking metrics; NotSure carries no gain."""
        return {"Good": 2, "OK": 1, "Bad": 0, "NotSure": None}[self.value]


# Kinds whose bbox anchors a passage of the paper (quotes and
# comments/questions); replies and ratings attach to other objects.
LOCATED_KINDS = frozenset({EventKind.QUOTE, EventKind.QUESTION, EventKind.COMMENT})


class CorpusFormatError(ValueError):
    """Malformed record in one of the corpus streams."""

    def __init__(self, stream: str, line_no: int, message: str):
        super().__init__(f"{stream}:{line_no}: {message}")
        self.stream = stream
        self.line_no = line_no


@dataclass(frozen=True)
class ReaderProfile:
    reader_id: str
    courses: frozenset[str] = frozenset()
    skills: dict[str, int] = field(default_factory=dict)  # skill -> ordinal 1..4
    has_rpf: bool = False


@dataclass(frozen=True)
class ReadingEvent:
    event_id: str
    kind: EventKind
    reader_id: str
    paper_id: str
    page: int
    bbox: tuple[float, float, float, float]  # (x0, y0, x1, y1), normalized
    quote_text: str = ""
    content_text: str = ""
    target_event_id: str | None = None  # set iff kind is REPLY
    oer_id: str | None = None  # set iff kind is RATING
    grade: Grade | None = None  # set iff kind is RATING
    timestamp: int = 0


@dataclass(frozen=True)
class OerItem:
    oer_id: str
    oer_type: OerType
    title: str
    body_text: str


@dataclass(frozen=True)
class JudgedQuery:
    query_id: str
    reader_id: str
    paper_id: str
    quote_text: str
    judgments: tuple[tuple[str, Grade], ...]  # (oer_id, grade), oer unique per query

    def graded_candidates(self) -> list[tuple[str, int]]:
        """Candidates with numeric gain, NotSure judgments dropped."""
        return [(oer, g.gain) for oer, g in self.judgments if g.gain is not None]


@dataclass
class Corpus:
    readers: dict[str, ReaderProfile] = field(default_factory=dict)
    events: dict[str, ReadingEvent] = field(default_factory=dict)
    oers: dict[str, OerItem] = field(default_factory=dict)
    queries: dict[str, JudgedQuery] = field(default_factory=dict)

    def reply_exchanges(self) -> Iterator[tuple[str, str]]:
        """(replier, replied-to reader) for every reply, in event order, whose
        target exists and belongs to a different reader."""
        for e in self.events.values():
            if e.kind is not EventKind.REPLY or e.target_event_id is None:
                continue
            target = self.events.get(e.target_event_id)
            if target is not None and target.reader_id != e.reader_id:
                yield e.reader_id, target.reader_id

    def reply_pairs(self) -> set[frozenset[str]]:
        """Unordered reader pairs that exchanged at least one reply."""
        return {frozenset(x) for x in self.reply_exchanges()}


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)
    event_counts: dict[str, int] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.issues


# -- parsing --------------------------------------------------------------

_READER_KEYS = {"reader", "courses", "skills"}
_EVENT_KEYS = {
    "event", "kind", "reader", "paper", "page", "bbox",
    "quote_text", "content_text", "target", "oer", "grade", "ts",
}
_OER_KEYS = {"oer", "type", "title", "body"}


def _json_line(stream_name: str, line_no: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(stream_name, line_no, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise CorpusFormatError(stream_name, line_no, "record is not a JSON object")
    return obj


def _warn_extra_keys(obj: dict, known: set[str], stream_name: str, line_no: int) -> None:
    extra = sorted(set(obj) - known)
    if extra:
        log.warning("%s:%d: ignoring unknown fields %s", stream_name, line_no, extra)


def _require(obj: dict, key: str, stream_name: str, line_no: int):
    if key not in obj:
        raise CorpusFormatError(stream_name, line_no, f"missing field {key!r}")
    return obj[key]


def _parse_reader(obj: dict, stream_name: str, line_no: int) -> ReaderProfile:
    reader_id = _require(obj, "reader", stream_name, line_no)
    if not isinstance(reader_id, str) or not reader_id:
        raise CorpusFormatError(stream_name, line_no, "reader id must be a non-empty string")
    courses = obj.get("courses", [])
    skills = obj.get("skills", {})
    if not isinstance(courses, list) or not all(isinstance(c, str) for c in courses):
        raise CorpusFormatError(stream_name, line_no, "courses must be a list of strings")
    if not isinstance(skills, dict):
        raise CorpusFormatError(stream_name, line_no, "skills must be an object")
    for name, level in skills.items():
        if not isinstance(level, int) or isinstance(level, bool) or not 1 <= level <= 4:
            raise CorpusFormatError(
                stream_name, line_no,
                f"skill {name!r} level {level!r} outside ordinal range 1..4")
    _warn_extra_keys(obj, _READER_KEYS, stream_name, line_no)
    has_rpf = bool(courses or skills)
    return ReaderProfile(reader_id, frozenset(courses), dict(skills), has_rpf)


def _parse_bbox(raw, stream_name: str, line_no: int) -> tuple[float, float, float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        raise CorpusFormatError(stream_name, line_no, "bbox must be four numbers")
    x0, y0, x1, y1 = (float(v) for v in raw)
    if not all(0.0 <= v <= 1.0 for v in (x0, y0, x1, y1)):
        raise CorpusFormatError(stream_name, line_no, "bbox coordinates outside [0,1]")
    if x0 > x1:
        raise CorpusFormatError(stream_name, line_no, f"bbox violates x0<=x1 ({x0} > {x1})")
    if y0 > y1:
        raise CorpusFormatError(stream_name, line_no, f"bbox violates y0<=y1 ({y0} > {y1})")
    return (x0, y0, x1, y1)


def _parse_grade(raw, stream_name: str, line_no: int) -> Grade:
    try:
        return Grade(raw)
    except ValueError:
        valid = ", ".join(g.value for g in Grade)
        raise CorpusFormatError(stream_name, line_no, f"grade {raw!r} not one of {valid}") from None


def _parse_event(obj: dict, stream_name: str, line_no: int) -> ReadingEvent:
    event_id = _require(obj, "event", stream_name, line_no)
    reader_id = _require(obj, "reader", stream_name, line_no)
    paper_id = _require(obj, "paper", stream_name, line_no)
    quote = obj.get("quote_text", "")
    content = obj.get("content_text", "")
    for name, value in (("event", event_id), ("reader", reader_id), ("paper", paper_id),
                        ("quote_text", quote), ("content_text", content)):
        if not isinstance(value, str):
            raise CorpusFormatError(stream_name, line_no, f"{name} must be a string")
    kind_raw = _require(obj, "kind", stream_name, line_no)
    try:
        kind = EventKind(kind_raw)
    except ValueError:
        raise CorpusFormatError(stream_name, line_no, f"unknown event kind {kind_raw!r}") from None
    page = _require(obj, "page", stream_name, line_no)
    if not isinstance(page, int) or isinstance(page, bool) or page < 0:
        raise CorpusFormatError(stream_name, line_no, "page must be a nonnegative integer")
    bbox = _parse_bbox(_require(obj, "bbox", stream_name, line_no), stream_name, line_no)
    target = obj.get("target")
    oer = obj.get("oer")
    grade_raw = obj.get("grade")
    if not (target is None or isinstance(target, str)):
        raise CorpusFormatError(stream_name, line_no, "target must be a string")
    if not (oer is None or isinstance(oer, str)):
        raise CorpusFormatError(stream_name, line_no, "oer must be a string")
    timestamp = obj.get("ts", 0)
    if not isinstance(timestamp, int) or isinstance(timestamp, bool):
        raise CorpusFormatError(stream_name, line_no, "ts must be an integer")
    if (target is not None) != (kind is EventKind.REPLY):
        raise CorpusFormatError(stream_name, line_no, "target must be set iff kind is reply")
    if (oer is not None) != (kind is EventKind.RATING):
        raise CorpusFormatError(stream_name, line_no, "oer must be set iff kind is rating")
    if (grade_raw is not None) != (kind is EventKind.RATING):
        raise CorpusFormatError(stream_name, line_no, "grade must be set iff kind is rating")
    if content and kind in (EventKind.QUOTE, EventKind.RATING):
        raise CorpusFormatError(stream_name, line_no, f"{kind.value} events carry no content_text")
    _warn_extra_keys(obj, _EVENT_KEYS, stream_name, line_no)
    return ReadingEvent(
        event_id=event_id,
        kind=kind,
        reader_id=reader_id,
        paper_id=paper_id,
        page=page,
        bbox=bbox,
        quote_text=quote,
        content_text=content,
        target_event_id=target,
        oer_id=oer,
        grade=_parse_grade(grade_raw, stream_name, line_no) if grade_raw is not None else None,
        timestamp=timestamp,
    )


def _parse_oer(obj: dict, stream_name: str, line_no: int) -> OerItem:
    oer_id = _require(obj, "oer", stream_name, line_no)
    type_raw = _require(obj, "type", stream_name, line_no)
    try:
        oer_type = OerType(type_raw)
    except ValueError:
        valid = ", ".join(t.value for t in OerType)
        raise CorpusFormatError(stream_name, line_no, f"OER type {type_raw!r} not one of {valid}") from None
    _warn_extra_keys(obj, _OER_KEYS, stream_name, line_no)
    return OerItem(oer_id, oer_type, obj.get("title", ""), obj.get("body", ""))


def parse_corpus(
    event_stream: Iterable[str] | None,
    reader_stream: Iterable[str] | None = None,
    oer_stream: Iterable[str] | None = None,
    judgment_stream: Iterable[str] | None = None,
) -> Corpus:
    """Parse the four corpus streams into an immutable-by-convention Corpus.

    A missing reader stream (or readers absent from it) yields profile-less
    readers: every reader id appearing in events or judgments is registered
    with ``has_rpf=False``. Malformed lines and duplicate ids raise
    :class:`CorpusFormatError`; nothing is dropped silently.
    """
    corpus = Corpus()

    for line_no, line in _lines(reader_stream):
        profile = _parse_reader(_json_line("readers.jsonl", line_no, line), "readers.jsonl", line_no)
        if profile.reader_id in corpus.readers:
            raise CorpusFormatError("readers.jsonl", line_no, f"duplicate reader id {profile.reader_id!r}")
        corpus.readers[profile.reader_id] = profile

    for line_no, line in _lines(event_stream):
        event = _parse_event(_json_line("events.jsonl", line_no, line), "events.jsonl", line_no)
        if event.event_id in corpus.events:
            raise CorpusFormatError("events.jsonl", line_no, f"duplicate event id {event.event_id!r}")
        corpus.events[event.event_id] = event

    for line_no, line in _lines(oer_stream):
        item = _parse_oer(_json_line("oers.jsonl", line_no, line), "oers.jsonl", line_no)
        if item.oer_id in corpus.oers:
            raise CorpusFormatError("oers.jsonl", line_no, f"duplicate OER id {item.oer_id!r}")
        corpus.oers[item.oer_id] = item

    judged: dict[str, dict] = {}
    for line_no, line in _lines(judgment_stream):
        cols = line.split("\t")
        if len(cols) != 6:
            raise CorpusFormatError("judgments.tsv", line_no, f"expected 6 tab-separated columns, got {len(cols)}")
        query_id, reader_id, paper_id, quote_text, oer_id, grade_raw = cols
        grade = _parse_grade(grade_raw, "judgments.tsv", line_no)
        entry = judged.setdefault(
            query_id, {"reader": reader_id, "paper": paper_id, "quote": quote_text, "oers": {}})
        if (entry["reader"], entry["paper"], entry["quote"]) != (reader_id, paper_id, quote_text):
            raise CorpusFormatError(
                "judgments.tsv", line_no,
                f"query {query_id!r} repeated with conflicting reader/paper/quote")
        if oer_id in entry["oers"]:
            raise CorpusFormatError(
                "judgments.tsv", line_no, f"OER {oer_id!r} judged twice in query {query_id!r}")
        entry["oers"][oer_id] = grade
    for query_id, entry in judged.items():
        corpus.queries[query_id] = JudgedQuery(
            query_id, entry["reader"], entry["paper"], entry["quote"],
            tuple(entry["oers"].items()))

    # Readers seen only through their behavior get a profile-less record.
    for event in corpus.events.values():
        if event.reader_id not in corpus.readers:
            corpus.readers[event.reader_id] = ReaderProfile(event.reader_id)
    for query in corpus.queries.values():
        if query.reader_id not in corpus.readers:
            corpus.readers[query.reader_id] = ReaderProfile(query.reader_id)
    return corpus


def _lines(stream: Iterable[str] | None) -> Iterator[tuple[int, str]]:
    if stream is None:
        return
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if line.strip():
            yield line_no, line


# -- validation -----------------------------------------------------------

def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check cross-record references; problems become report entries, not errors."""
    report = ValidationReport()
    counts = {kind.value: 0 for kind in EventKind}

    def issue(kind: str, message: str) -> None:
        report.issues.append(ValidationIssue(kind, message))

    for event in corpus.events.values():
        counts[event.kind.value] += 1
        if event.reader_id not in corpus.readers:
            issue("missing-reader", f"event {event.event_id!r} names unknown reader {event.reader_id!r}")
        if event.kind is EventKind.REPLY:
            target = corpus.events.get(event.target_event_id or "")
            if target is None:
                issue("dangling-reply",
                      f"reply {event.event_id!r} targets missing event {event.target_event_id!r}")
            elif target.reader_id == event.reader_id:
                issue("self-reply",
                      f"reply {event.event_id!r} targets its own reader {event.reader_id!r}")
        if event.kind is EventKind.RATING and event.oer_id not in corpus.oers:
            issue("dangling-rating", f"rating {event.event_id!r} names unknown OER {event.oer_id!r}")

    for query in corpus.queries.values():
        if query.reader_id not in corpus.readers:
            issue("missing-reader", f"query {query.query_id!r} names unknown reader {query.reader_id!r}")
        for oer_id, _ in query.judgments:
            if oer_id not in corpus.oers:
                issue("dangling-judgment", f"query {query.query_id!r} judges unknown OER {oer_id!r}")

    report.event_counts = counts
    return report


# -- serialization --------------------------------------------------------

def _compact(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def serialize_readers(corpus: Corpus) -> str:
    """Reader stream in canonical form; profile-less readers carry no line."""
    lines = []
    for profile in corpus.readers.values():
        if not profile.has_rpf:
            continue
        lines.append(_compact({
            "reader": profile.reader_id,
            "courses": sorted(profile.courses),
            "skills": {k: profile.skills[k] for k in sorted(profile.skills)},
        }))
    return "".join(line + "\n" for line in lines)


def serialize_events(corpus: Corpus) -> str:
    lines = []
    for e in corpus.events.values():
        lines.append(_compact({
            "event": e.event_id,
            "kind": e.kind.value,
            "reader": e.reader_id,
            "paper": e.paper_id,
            "page": e.page,
            "bbox": list(e.bbox),
            "quote_text": e.quote_text,
            "content_text": e.content_text,
            "target": e.target_event_id,
            "oer": e.oer_id,
            "grade": e.grade.value if e.grade is not None else None,
            "ts": e.timestamp,
        }))
    return "".join(line + "\n" for line in lines)


def serialize_oers(corpus: Corpus) -> str:
    lines = []
    for o in corpus.oers.values():
        lines.append(_compact({
            "oer": o.oer_id, "type": o.oer_type.value, "title": o.title, "body": o.body_text,
        }))
    return "".join(line + "\n" for line in lines)


def serialize_judgments(corpus: Corpus) -> str:
    rows = []
    for q in corpus.queries.values():
        for oer_id, grade in q.judgments:
            rows.append("\t".join((q.query_id, q.reader_id, q.paper_id,
                                   q.quote_text, oer_id, grade.value)))
    return "".join(row + "\n" for row in rows)


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write the four stream files."""
    from .util import atomic_write_text
    from pathlib import Path

    out = Path(out_dir)
    files = {
        "readers.jsonl": serialize_readers(corpus),
        "events.jsonl": serialize_events(corpus),
        "oers.jsonl": serialize_oers(corpus),
        "judgments.tsv": serialize_judgments(corpus),
    }
    for name, text in files.items():
        atomic_write_text(out / name, text)


# The stream files, in parse_corpus's argument order.
STREAMS = ("events.jsonl", "readers.jsonl", "oers.jsonl", "judgments.tsv")


def _stream_lines(in_dir, name: str, required: bool = False) -> list[str] | None:
    from pathlib import Path

    path = Path(in_dir) / name
    if not path.exists():
        if required:
            raise FileNotFoundError(f"{path} not found")
        return None
    return path.read_text(encoding="utf-8").splitlines()


def read_corpus(in_dir) -> Corpus:
    """Parse a corpus directory; a missing readers.jsonl means RBF-only readers."""
    events = _stream_lines(in_dir, "events.jsonl", required=True)
    return parse_corpus(
        events,
        _stream_lines(in_dir, "readers.jsonl"),
        _stream_lines(in_dir, "oers.jsonl"),
        _stream_lines(in_dir, "judgments.tsv"),
    )


def read_streams(in_dir, *names: str) -> Corpus:
    """A corpus of the named streams of a directory alone, each of which must
    exist: a stage that reads part of a corpus parses only that part."""
    unknown = sorted(set(names) - set(STREAMS))
    if unknown:
        raise ValueError(f"unknown corpus streams {unknown}; have {list(STREAMS)}")
    return parse_corpus(*(_stream_lines(in_dir, name, required=True) if name in names else None
                          for name in STREAMS))
