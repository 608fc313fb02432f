"""Data model for readers, events, OERs and judgments, plus the line-oriented
file formats that carry them.

Streams are line-delimited: ``readers.jsonl``, ``events.jsonl``,
``oers.jsonl`` (one JSON object per line) and ``judgments.tsv`` (one judged
candidate per line). Record-local invariants are enforced at parse time:
each record parser sees one record, reads a required field as
``record[key]`` and raises ``ValueError(reason)`` on a bad one, and the
stream loop reports either as ``<stream>:<line>: <reason>``, a ``KeyError``
as ``missing field '<key>'``. Cross-record
references are checked separately by :func:`validate_corpus`, which returns
the ``validation.json`` document.

The parsed corpus shares its repeated values: one parse keeps one table
(:class:`_Shared`) that swaps each reader id, paper id, OER id, reply target,
quote, content text and bbox for the first equal one it parsed, so a reader's
thousand events hold one ``reader_id`` object. Shared values are immutable,
so this changes no value, only how many copies of it live. A stream that is
not UTF-8 fails as ``<stream>:<line>: not valid UTF-8 (byte 0x..)``.

Only ``simulate`` writes streams from records (:func:`write_corpus`).
``ingest`` copies the bytes it parsed: :func:`read_corpus` can record the
sha256 of each stream it reads, and :func:`copy_streams` copies the files
byte for byte, checking each against that digest, so a valid but
non-canonical input is kept as it is and a stream that changed after it
was parsed is an error.
"""

from __future__ import annotations

import enum
import hashlib
import json
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .util import atomic_write_text, checked_copy, utf8_error, write_atomically

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
        return _GAINS[self._value_]


_GAINS = {"Good": 2, "OK": 1, "Bad": 0, "NotSure": None}


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


# A NamedTuple, not a frozen dataclass: it is as immutable, and a corpus
# builds one per event line (38k on a 320-reader corpus, in every stage that
# parses events), where a frozen dataclass pays one object.__setattr__ per
# field and took four times as long to build.
class ReadingEvent(NamedTuple):
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
        return [(oer, gain) for oer, g in self.judgments if (gain := g.gain) is not None]


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


# -- parsing --------------------------------------------------------------

def _check_reader_id(reader_id: str) -> None:
    """Reject a reader id that the first column of communities.tsv cannot
    carry: `util.read_tsv` skips a line that begins with `#` and splits at
    tabs and at every line break `str.splitlines` knows."""
    if reader_id[:1] == "#" or "\t" in reader_id or "".join(reader_id.splitlines()) != reader_id:
        raise ValueError(f"reader id {reader_id!r} begins with '#' or holds a tab or a line break")


_BBOX_BITS = struct.Struct("<4d").pack


class _Shared:
    """One parse's table of repeated values: calling it with a value returns
    the first equal value it was called with. A bbox is looked up by its
    exact bits, since a float key would take -0.0 for 0.0."""

    __slots__ = ("_values", "_readers", "_bboxes")

    def __init__(self):
        self._values: dict[str, str] = {}
        self._readers: dict[str, str] = {}  # the reader ids checked so far
        self._bboxes: dict[bytes, tuple[float, float, float, float]] = {}

    def __call__(self, value: str) -> str:
        return self._values.setdefault(value, value)

    def reader(self, reader_id: str) -> str:
        """The shared reader id, checked by `_check_reader_id` the first time
        it is seen as a reader id, whatever field held it before."""
        shared = self._readers.get(reader_id)
        if shared is None:
            _check_reader_id(reader_id)
            shared = self._readers[reader_id] = self(reader_id)
        return shared

    def bbox(self, bbox: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
        return self._bboxes.setdefault(_BBOX_BITS(*bbox), bbox)


def _parse_reader(obj: dict, shared: _Shared) -> ReaderProfile:
    reader_id = obj["reader"]
    if not isinstance(reader_id, str) or not reader_id:
        raise ValueError("reader id must be a non-empty string")
    reader_id = shared.reader(reader_id)
    courses = obj.get("courses", [])
    skills = obj.get("skills", {})
    if not isinstance(courses, list) or not all(isinstance(c, str) for c in courses):
        raise ValueError("courses must be a list of strings")
    if not isinstance(skills, dict):
        raise ValueError("skills must be an object")
    for name, level in skills.items():
        if not isinstance(level, int) or isinstance(level, bool) or not 1 <= level <= 4:
            raise ValueError(f"skill {name!r} level {level!r} outside ordinal range 1..4")
    has_rpf = bool(courses or skills)
    return ReaderProfile(reader_id, frozenset(courses), dict(skills), has_rpf)


# Lookups by value, and the number types json.loads yields (bool excluded):
# the event parser runs once per line, so it checks exact types.
_EVENT_KINDS = {k.value: k for k in EventKind}
_GRADES = {g.value: g for g in Grade}
_NUMBERS = {int, float}


def _parse_bbox(raw) -> tuple[float, float, float, float]:
    if type(raw) is not list or len(raw) != 4 or not _NUMBERS.issuperset(map(type, raw)):
        raise ValueError("bbox must be four numbers")
    x0, y0, x1, y1 = bbox = tuple(map(float, raw))
    if not (0.0 <= x0 <= 1.0 and 0.0 <= y0 <= 1.0 and 0.0 <= x1 <= 1.0 and 0.0 <= y1 <= 1.0):
        raise ValueError("bbox coordinates outside [0,1]")
    if x0 > x1:
        raise ValueError(f"bbox violates x0<=x1 ({x0} > {x1})")
    if y0 > y1:
        raise ValueError(f"bbox violates y0<=y1 ({y0} > {y1})")
    return bbox


def _parse_grade(raw) -> Grade:
    grade = _GRADES.get(raw) if type(raw) is str else None
    if grade is None:
        raise ValueError(f"grade {raw!r} not one of {', '.join(_GRADES)}")
    return grade


def _parse_event(obj: dict, shared: _Shared) -> ReadingEvent:
    event_id, reader_id, paper_id = obj["event"], obj["reader"], obj["paper"]
    quote = obj.get("quote_text", "")
    content = obj.get("content_text", "")
    if not type(event_id) is type(reader_id) is type(paper_id) is type(quote) \
            is type(content) is str:
        fields = {"event": event_id, "reader": reader_id, "paper": paper_id,
                  "quote_text": quote, "content_text": content}
        name = next(name for name, value in fields.items() if type(value) is not str)
        raise ValueError(f"{name} must be a string")
    reader_id = shared.reader(reader_id)
    kind_raw = obj["kind"]
    kind = _EVENT_KINDS.get(kind_raw) if type(kind_raw) is str else None
    if kind is None:
        raise ValueError(f"unknown event kind {kind_raw!r}")
    page = obj["page"]
    if type(page) is not int or page < 0:
        raise ValueError("page must be a nonnegative integer")
    bbox = shared.bbox(_parse_bbox(obj["bbox"]))
    target = obj.get("target")
    oer = obj.get("oer")
    grade_raw = obj.get("grade")
    if not (target is None or type(target) is str):
        raise ValueError("target must be a string")
    if not (oer is None or type(oer) is str):
        raise ValueError("oer must be a string")
    timestamp = obj.get("ts", 0)
    if type(timestamp) is not int:
        raise ValueError("ts must be an integer")
    if (target is not None) != (kind is EventKind.REPLY):
        raise ValueError("target must be set iff kind is reply")
    if (oer is not None) != (kind is EventKind.RATING):
        raise ValueError("oer must be set iff kind is rating")
    if (grade_raw is not None) != (kind is EventKind.RATING):
        raise ValueError("grade must be set iff kind is rating")
    if content and kind in (EventKind.QUOTE, EventKind.RATING):
        raise ValueError(f"{kind.value} events carry no content_text")
    grade = None if grade_raw is None else _parse_grade(grade_raw)
    return ReadingEvent(event_id, kind, reader_id, shared(paper_id), page, bbox, shared(quote),
                        shared(content), target and shared(target), oer and shared(oer),
                        grade, timestamp)


def _parse_oer(obj: dict, shared: _Shared) -> OerItem:
    oer_id, type_raw = obj["oer"], obj["type"]
    title = obj.get("title", "")
    body = obj.get("body", "")
    for name, value in (("oer", oer_id), ("title", title), ("body", body)):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string")
    try:
        oer_type = OerType(type_raw)
    except ValueError:
        valid = ", ".join(t.value for t in OerType)
        raise ValueError(f"OER type {type_raw!r} not one of {valid}") from None
    return OerItem(shared(oer_id), oer_type, title, body)


# stream -> (record parser, id field, what a duplicate id names, known fields)
_JSONL_STREAMS = {
    "readers.jsonl": (_parse_reader, "reader", "reader", {"reader", "courses", "skills"}),
    "events.jsonl": (_parse_event, "event", "event", {
        "event", "kind", "reader", "paper", "page", "bbox",
        "quote_text", "content_text", "target", "oer", "grade", "ts"}),
    "oers.jsonl": (_parse_oer, "oer", "OER", {"oer", "type", "title", "body"}),
}


def _read_jsonl(stream_name: str, lines: Iterable[str] | None, records: dict,
                shared: _Shared) -> None:
    """Decode, parse (sharing values through shared) and insert by id each
    non-blank line of a JSON-lines stream. Any ValueError or KeyError (a
    missing field) on a line becomes a CorpusFormatError naming it; fields
    the parser does not read draw one warning for the whole stream."""
    parse, id_field, what, known = _JSONL_STREAMS[stream_name]
    unknown: set[str] = set()
    for line_no, line in enumerate(lines or (), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("record is not a JSON object")
            record = parse(obj, shared)
            if obj[id_field] in records:
                raise ValueError(f"duplicate {what} id {obj[id_field]!r}")
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(stream_name, line_no, f"invalid JSON: {exc.msg}") from exc
        except KeyError as exc:
            raise CorpusFormatError(stream_name, line_no,
                                    f"missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise CorpusFormatError(stream_name, line_no, str(exc)) from exc
        records[obj[id_field]] = record
        if not known.issuperset(obj):
            unknown.update(set(obj) - known)
    if unknown:
        log.warning("%s: ignoring unknown fields %s", stream_name, sorted(unknown))


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
    shared = _Shared()
    _read_jsonl("readers.jsonl", reader_stream, corpus.readers, shared)
    _read_jsonl("events.jsonl", event_stream, corpus.events, shared)
    _read_jsonl("oers.jsonl", oer_stream, corpus.oers, shared)

    # query_id -> ((reader, paper, quote), {oer_id: grade}); a row of a known
    # query builds nothing
    judged: dict[str, tuple[tuple[str, str, str], dict[str, Grade]]] = {}
    for line_no, line in enumerate(judgment_stream or (), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        try:
            cols = line.split("\t")
            if len(cols) != 6:
                raise ValueError(f"expected 6 tab-separated columns, got {len(cols)}")
            query_id, reader_id, paper_id, quote_text, oer_id, grade_raw = cols
            reader_id = shared.reader(reader_id)
            grade = _parse_grade(grade_raw)
            known = judged.get(query_id)
            if known is None:
                query, oers = (reader_id, shared(paper_id), shared(quote_text)), {}
                judged[query_id] = query, oers
            else:
                query, oers = known
                if query != (reader_id, paper_id, quote_text):
                    raise ValueError(
                        f"query {query_id!r} repeated with conflicting reader/paper/quote")
            if oer_id in oers:
                raise ValueError(f"OER {oer_id!r} judged twice in query {query_id!r}")
        except ValueError as exc:
            raise CorpusFormatError("judgments.tsv", line_no, str(exc)) from exc
        oers[shared(oer_id)] = grade
    for query_id, (query, oers) in judged.items():
        corpus.queries[query_id] = JudgedQuery(query_id, *query, tuple(oers.items()))

    # Readers seen only through their behavior get a profile-less record.
    for event in corpus.events.values():
        if event.reader_id not in corpus.readers:
            corpus.readers[event.reader_id] = ReaderProfile(event.reader_id)
    for query in corpus.queries.values():
        if query.reader_id not in corpus.readers:
            corpus.readers[query.reader_id] = ReaderProfile(query.reader_id)
    return corpus


# -- validation -----------------------------------------------------------

def validate_corpus(corpus: Corpus) -> dict:
    """Check cross-record references. Returns the validation document:
    ``consistent``, ``issues`` as ``{kind, message}`` entries, and
    ``event_counts`` per event kind; problems are entries, not errors.
    Readers are not checked: :func:`parse_corpus` registers every reader an
    event or judgment names, with no profile if ``readers.jsonl`` has none."""
    issues: list[dict[str, str]] = []
    counts = {kind.value: 0 for kind in EventKind}

    def issue(kind: str, message: str) -> None:
        issues.append({"kind": kind, "message": message})

    for event in corpus.events.values():
        counts[event.kind.value] += 1
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
        for oer_id, _ in query.judgments:
            if oer_id not in corpus.oers:
                issue("dangling-judgment", f"query {query.query_id!r} judges unknown OER {oer_id!r}")

    return {"consistent": not issues, "issues": issues, "event_counts": counts}


# -- serialization --------------------------------------------------------

def _jsonl(records: Iterable[dict]) -> str:
    return "".join(json.dumps(r, separators=(",", ":"), allow_nan=False) + "\n" for r in records)


def serialize_readers(corpus: Corpus) -> str:
    """Reader stream in canonical form; profile-less readers carry no line."""
    return _jsonl({
        "reader": p.reader_id,
        "courses": sorted(p.courses),
        "skills": {k: p.skills[k] for k in sorted(p.skills)},
    } for p in corpus.readers.values() if p.has_rpf)


def serialize_events(corpus: Corpus) -> str:
    return _jsonl({
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
    } for e in corpus.events.values())


def serialize_oers(corpus: Corpus) -> str:
    return _jsonl({"oer": o.oer_id, "type": o.oer_type.value, "title": o.title, "body": o.body_text}
                  for o in corpus.oers.values())


def serialize_judgments(corpus: Corpus) -> str:
    rows = []
    for q in corpus.queries.values():
        for oer_id, grade in q.judgments:
            rows.append("\t".join((q.query_id, q.reader_id, q.paper_id,
                                   q.quote_text, oer_id, grade.value)))
    return "".join(row + "\n" for row in rows)


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write the four stream files."""
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


def _stream_lines(in_dir, name: str, required: bool = False,
                  digests: dict[str, str] | None = None) -> list[str] | None:
    path = Path(in_dir) / name
    if not path.exists():
        if required:
            raise FileNotFoundError(f"{path} not found")
        return None
    data = path.read_bytes()
    if digests is not None:
        digests[name] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(name, *utf8_error(exc)) from None
    del data  # only the lines live on through the parse
    return text.splitlines()


def read_corpus(in_dir, digests: dict[str, str] | None = None) -> Corpus:
    """Parse a corpus directory; a missing readers.jsonl means RBF-only readers.
    If digests is given, it receives the sha256 of each stream file read,
    taken from the bytes that were parsed, under the file's name."""
    events = _stream_lines(in_dir, "events.jsonl", required=True, digests=digests)
    return parse_corpus(
        events,
        _stream_lines(in_dir, "readers.jsonl", digests=digests),
        _stream_lines(in_dir, "oers.jsonl", digests=digests),
        _stream_lines(in_dir, "judgments.tsv", digests=digests),
    )


def copy_streams(in_dir, out_dir, digests: dict[str, str]) -> None:
    """Copy each stream file that `read_corpus(in_dir, digests)` read into
    out_dir byte for byte, and write the streams it lacked empty. A copy
    whose bytes differ from their digest (the file changed after it was
    parsed) raises ValueError naming the file, and then no stream in
    out_dir is replaced."""
    src, out = Path(in_dir), Path(out_dir)
    write_atomically({
        out / name: checked_copy(src / name, digests[name]) if name in digests
        else lambda fh: None
        for name in STREAMS})


def read_streams(in_dir, *names: str) -> Corpus:
    """A corpus of the named streams of a directory alone, each of which must
    exist: a stage that reads part of a corpus parses only that part."""
    unknown = sorted(set(names) - set(STREAMS))
    if unknown:
        raise ValueError(f"unknown corpus streams {unknown}; have {list(STREAMS)}")
    return parse_corpus(*(_stream_lines(in_dir, name, required=True) if name in names else None
                          for name in STREAMS))
