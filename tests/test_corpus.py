"""Parsing, validation, and serialization of the reading-log corpus."""

import json
import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from oerrec.community import read_communities, write_communities
from oerrec.corpus import (
    Corpus,
    CorpusFormatError,
    EventKind,
    Grade,
    OerType,
    STREAMS,
    parse_corpus,
    read_corpus,
    read_streams,
    serialize_events,
    serialize_judgments,
    serialize_oers,
    serialize_readers,
    validate_corpus,
    write_corpus,
)


class TestParse:
    def test_empty_streams_give_empty_corpus(self):
        corpus = parse_corpus([], [], [], [])
        assert corpus.readers == {}
        assert corpus.events == {}
        assert corpus.oers == {}
        assert corpus.queries == {}

    def test_single_quote_line(self):
        line = json.dumps(
            {"event": "e1", "kind": "quote", "reader": "r1", "paper": "p1",
             "page": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "quote_text": "hi there",
             "content_text": "", "target": None, "oer": None, "grade": None,
             "ts": 0}
        )
        corpus = parse_corpus([line])
        assert len(corpus.events) == 1
        assert corpus.events["e1"].kind is EventKind.QUOTE

    def test_bbox_x0_greater_than_x1_rejected(self):
        line = json.dumps(
            {"event": "e1", "kind": "quote", "reader": "r1", "paper": "p1",
             "page": 0, "bbox": [0.9, 0.1, 0.2, 0.2], "quote_text": "x",
             "content_text": "", "target": None, "oer": None, "grade": None,
             "ts": 0}
        )
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus([line])
        assert "events.jsonl:1" in str(exc.value)
        assert "x0<=x1" in str(exc.value)

    def test_events_are_immutable(self, toy_corpus):
        with pytest.raises(AttributeError):
            toy_corpus.events["e06"].target_event_id = "missing"

    def test_reader_without_profile_is_auto_registered(self, toy_corpus):
        assert "r3" in toy_corpus.readers
        assert toy_corpus.readers["r3"].has_rpf is False
        assert toy_corpus.readers["r1"].has_rpf is True

    def test_skills_range_enforced(self):
        line = json.dumps({"reader": "r1", "courses": [], "skills": {"prog": 5}})
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus([], [line])
        assert "readers.jsonl:1" in str(exc.value)

    def test_duplicate_event_id_rejected(self):
        rec = {"event": "e1", "kind": "quote", "reader": "r1", "paper": "p1",
               "page": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "quote_text": "x",
               "content_text": "", "target": None, "oer": None, "grade": None,
               "ts": 0}
        with pytest.raises(CorpusFormatError) as exc:
            parse_corpus([json.dumps(rec), json.dumps(rec)])
        assert "duplicate event id" in str(exc.value)

    def test_target_required_iff_reply(self):
        rec = {"event": "e1", "kind": "quote", "reader": "r1", "paper": "p1",
               "page": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "quote_text": "x",
               "content_text": "", "target": "e9", "oer": None, "grade": None,
               "ts": 0}
        with pytest.raises(CorpusFormatError, match="target"):
            parse_corpus([json.dumps(rec)])

    def test_judgment_inconsistent_query_rejected(self):
        lines = ["q1\tr1\tp1\ttext a\tv1\tGood", "q1\tr1\tp2\ttext a\tc1\tBad"]
        with pytest.raises(CorpusFormatError, match="q1"):
            parse_corpus([], None, None, lines)

    def test_judgment_duplicate_candidate_rejected(self):
        lines = ["q1\tr1\tp1\ttext\tv1\tGood", "q1\tr1\tp1\ttext\tv1\tBad"]
        with pytest.raises(CorpusFormatError):
            parse_corpus([], None, None, lines)

    def test_not_sure_candidates_dropped_from_graded(self, toy_corpus):
        graded = dict(toy_corpus.queries["q2"].graded_candidates())
        assert graded == {"v1": 0}


class TestCorpusAccessors:
    def test_reply_pairs_undirected(self, toy_corpus):
        assert toy_corpus.reply_pairs() == {frozenset({"r1", "r3"})}

    def test_self_reply_excluded(self):
        quote = {"event": "e1", "kind": "quote", "reader": "r1", "paper": "p1",
                 "page": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "quote_text": "x",
                 "content_text": "", "target": None, "oer": None,
                 "grade": None, "ts": 0}
        reply = {"event": "e2", "kind": "reply", "reader": "r1", "paper": "p1",
                 "page": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "quote_text": "",
                 "content_text": "me again", "target": "e1", "oer": None,
                 "grade": None, "ts": 1}
        corpus = parse_corpus([json.dumps(quote), json.dumps(reply)])
        assert corpus.reply_pairs() == set()


class TestValidate:
    def test_consistent_corpus_has_no_issues(self, toy_corpus):
        report = validate_corpus(toy_corpus)
        assert report["issues"] == []
        assert report["consistent"]
        assert report["event_counts"]["quote"] == 3
        assert report["event_counts"]["rating"] == 3

    def test_dangling_reply_target(self, toy_corpus):
        evt = toy_corpus.events["e06"]
        broken = Corpus(
            dict(toy_corpus.readers),
            {**toy_corpus.events, "e06": evt._replace(target_event_id="missing")},
            dict(toy_corpus.oers),
            dict(toy_corpus.queries),
        )
        report = validate_corpus(broken)
        dangling = [i for i in report["issues"] if i["kind"] == "dangling-reply"]
        assert len(dangling) == 1
        assert not report["consistent"]

    def test_rating_with_unknown_oer(self, toy_corpus):
        evt = toy_corpus.events["e07"]
        broken = Corpus(
            dict(toy_corpus.readers),
            {**toy_corpus.events, "e07": evt._replace(oer_id="ghost")},
            dict(toy_corpus.oers),
            dict(toy_corpus.queries),
        )
        report = validate_corpus(broken)
        issues = [i for i in report["issues"] if i["kind"] == "dangling-rating"]
        assert len(issues) == 1
        assert "ghost" in issues[0]["message"]


class TestRoundTrip:
    def test_parse_serialize_identity(self, toy_streams, toy_corpus):
        again = parse_corpus(
            serialize_events(toy_corpus).splitlines(),
            serialize_readers(toy_corpus).splitlines(),
            serialize_oers(toy_corpus).splitlines(),
            serialize_judgments(toy_corpus).splitlines(),
        )
        assert again == toy_corpus
        # A second serialization pass is byte-stable.
        assert serialize_events(again) == serialize_events(toy_corpus)
        assert serialize_readers(again) == serialize_readers(toy_corpus)
        assert serialize_oers(again) == serialize_oers(toy_corpus)
        assert serialize_judgments(again) == serialize_judgments(toy_corpus)

    def test_profile_less_readers_not_serialized(self, toy_corpus):
        assert "r3" not in serialize_readers(toy_corpus)

    def test_write_read_corpus_files(self, toy_corpus, tmp_path):
        write_corpus(toy_corpus, tmp_path)
        assert (tmp_path / "events.jsonl").exists()
        assert read_corpus(tmp_path) == toy_corpus

    def test_read_corpus_requires_events_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_corpus(tmp_path)

    def test_read_oers_parses_the_oer_stream_alone(self, toy_corpus, tmp_path):
        write_corpus(toy_corpus, tmp_path)
        (tmp_path / "events.jsonl").write_text("not json\n")
        assert read_streams(tmp_path, "oers.jsonl").oers == toy_corpus.oers
        lines = (tmp_path / "oers.jsonl").read_text().splitlines()
        lines[1] = lines[1].replace('"slides"', '"podcast"')
        (tmp_path / "oers.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=r"^oers.jsonl:2: OER type 'podcast'"):
            read_streams(tmp_path, "oers.jsonl")
        (tmp_path / "oers.jsonl").unlink()
        with pytest.raises(FileNotFoundError):
            read_streams(tmp_path, "oers.jsonl")

    def test_read_streams_parses_only_the_named_streams(self, toy_corpus, tmp_path):
        write_corpus(toy_corpus, tmp_path)
        (tmp_path / "events.jsonl").write_text("not json\n")
        part = read_streams(tmp_path, "oers.jsonl", "judgments.tsv")
        assert part.oers == toy_corpus.oers
        assert part.queries == toy_corpus.queries
        assert part.events == {}
        (tmp_path / "judgments.tsv").unlink()
        with pytest.raises(FileNotFoundError):
            read_streams(tmp_path, "oers.jsonl", "judgments.tsv")
        with pytest.raises(ValueError, match="unknown corpus streams"):
            read_streams(tmp_path, "oers.json")

    def test_read_corpus_tolerates_missing_readers_file(self, toy_corpus, tmp_path):
        write_corpus(toy_corpus, tmp_path)
        (tmp_path / "readers.jsonl").unlink()
        again = read_corpus(tmp_path)
        assert set(again.events) == set(toy_corpus.events)
        assert all(not p.has_rpf for p in again.readers.values())


@st.composite
def small_corpora(draw):
    """Random consistent corpora: a few readers, quotes, replies, ratings."""
    n_readers = draw(st.integers(min_value=1, max_value=3))
    readers = [f"r{i}" for i in range(n_readers)]
    events = []
    quote_ids = []
    n_events = draw(st.integers(min_value=1, max_value=6))
    for i in range(n_events):
        reader = draw(st.sampled_from(readers))
        x0 = draw(st.floats(min_value=0, max_value=0.5))
        y0 = draw(st.floats(min_value=0, max_value=0.5))
        kind = draw(st.sampled_from(["quote", "question", "comment"]))
        events.append(
            {"event": f"e{i}", "kind": kind, "reader": reader, "paper": "p0",
             "page": draw(st.integers(min_value=0, max_value=3)),
             "bbox": [x0, y0, x0 + 0.1, y0 + 0.1],
             "quote_text": draw(st.sampled_from(["graph walk", "hash", ""])),
             "content_text": "" if kind == "quote" else draw(st.sampled_from(["why", ""])),
             "target": None, "oer": None, "grade": None, "ts": i}
        )
        quote_ids.append(f"e{i}")
    if draw(st.booleans()):
        target = draw(st.sampled_from(quote_ids))
        events.append(
            {"event": f"e{n_events}", "kind": "reply",
             "reader": draw(st.sampled_from(readers)), "paper": "p0",
             "page": 0, "bbox": [0, 0, 0.1, 0.1], "quote_text": "",
             "content_text": "ack", "target": target, "oer": None,
             "grade": None, "ts": n_events}
        )
    oers = [{"oer": "v0", "type": "video", "title": "t", "body": "graph walk"}]
    profile = [{"reader": readers[0], "courses": ["c1"], "skills": {"s": 2}}]
    judgments = ["q0\t{}\tp0\tgraph\tv0\tGood".format(readers[0])]
    return [json.dumps(e) for e in events], [json.dumps(p) for p in profile], [
        json.dumps(o) for o in oers
    ], judgments


@given(small_corpora())
def test_round_trip_property(streams):
    events, profiles, oers, judgments = streams
    corpus = parse_corpus(events, profiles, oers, judgments)
    again = parse_corpus(
        serialize_events(corpus).splitlines(),
        serialize_readers(corpus).splitlines(),
        serialize_oers(corpus).splitlines(),
        serialize_judgments(corpus).splitlines(),
    )
    assert again == corpus


VALID_EVENT = {"event": "e1", "kind": "quote", "reader": "r1", "paper": "p1",
               "page": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "quote_text": "q",
               "content_text": "", "target": None, "oer": None, "grade": None,
               "ts": 0}
ANY_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                     st.sampled_from(["", "e1", "r1", "reply", "rating", "Good"]),
                     st.lists(st.integers(0, 1), max_size=4), st.dictionaries(st.just("k"), st.integers()))


VALID_OER = {"oer": "v1", "type": "video", "title": "t", "body": "b"}


@st.composite
def mangled_lines(draw, valid):
    """A valid record with some fields replaced by values of any JSON type,
    and some dropped."""
    obj = dict(valid)
    for key in draw(st.sets(st.sampled_from(sorted(valid)))):
        if draw(st.booleans()):
            obj[key] = draw(ANY_JSON)
        else:
            del obj[key]
    return json.dumps(obj)


@given(st.integers(0, 3), mangled_lines(VALID_EVENT))
def test_any_event_line_parses_or_names_its_line(n_before, line):
    before = [json.dumps({**VALID_EVENT, "event": f"ok{i}"}) for i in range(n_before)]
    try:
        corpus = parse_corpus(before + [line])
    except CorpusFormatError as exc:
        assert exc.line_no == n_before + 1
        assert str(exc).startswith(f"events.jsonl:{n_before + 1}: ")
        return
    for e in corpus.events.values():
        for text in (e.event_id, e.reader_id, e.paper_id, e.quote_text, e.content_text):
            assert isinstance(text, str)
        assert e.target_event_id is None or isinstance(e.target_event_id, str)
        assert e.oer_id is None or isinstance(e.oer_id, str)
        assert isinstance(e.timestamp, int) and not isinstance(e.timestamp, bool)


@given(st.integers(0, 3), mangled_lines(VALID_OER))
def test_any_oer_line_parses_or_names_its_line(n_before, line):
    before = [json.dumps({**VALID_OER, "oer": f"ok{i}"}) for i in range(n_before)]
    try:
        corpus = parse_corpus([], None, before + [line])
    except CorpusFormatError as exc:
        assert exc.line_no == n_before + 1
        assert str(exc).startswith(f"oers.jsonl:{n_before + 1}: ")
        return
    for item in corpus.oers.values():
        for text in (item.oer_id, item.title, item.body_text):
            assert isinstance(text, str)
        assert isinstance(item.oer_type, OerType)


def test_unknown_fields_warn_once_per_stream(caplog):
    lines = [json.dumps({**VALID_EVENT, "event": f"e{i}", "mood": "calm"}) for i in range(3)]
    with caplog.at_level(logging.WARNING, logger="oerrec.corpus"):
        corpus = parse_corpus(lines)
    assert len(corpus.events) == 3
    assert [r.getMessage() for r in caplog.records] == [
        "events.jsonl: ignoring unknown fields ['mood']"]


@pytest.mark.parametrize("field, value, message", [
    ("reader", 5, "reader must be a string"),
    ("ts", "late", "ts must be an integer"),
    ("ts", True, "ts must be an integer"),
    ("event", ["e1"], "event must be a string"),
    ("quote_text", 3, "quote_text must be a string"),
])
def test_event_field_types_checked_at_parse_time(field, value, message):
    line = json.dumps({**VALID_EVENT, field: value})
    with pytest.raises(CorpusFormatError, match=f"^events.jsonl:2: {message}$"):
        parse_corpus(["", line])


@given(st.sampled_from(list(Grade)))
def test_grade_gains(grade):
    expected = {"Good": 2, "OK": 1, "Bad": 0, "NotSure": None}[grade.value]
    assert grade.gain == expected


VALID_LINES = {
    "readers.jsonl": json.dumps({"reader": "r1", "courses": ["c1"], "skills": {"s": 2}}),
    "events.jsonl": json.dumps(VALID_EVENT),
    "oers.jsonl": json.dumps(VALID_OER),
    "judgments.tsv": "q1\tr1\tp1\tq\tv1\tGood",
}


def _with(stream, **changes):
    """The valid record of a JSON-lines stream with fields changed; a value
    of None deletes the field."""
    obj = json.loads(VALID_LINES[stream])
    for key, value in changes.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps(obj)


REPLY = dict(kind="reply", target="e0", quote_text="", content_text="ack")
RATING = dict(kind="rating", oer="v1", grade="Good", quote_text="")

# (stream, malformed line, message): one case per raise site of the parser.
PARSE_ERRORS = [
    ("events.jsonl", "not json", "invalid JSON: Expecting value"),
    ("events.jsonl", "{", "invalid JSON: Expecting property name enclosed in double quotes"),
    ("readers.jsonl", "[1, 2]", "record is not a JSON object"),
    ("readers.jsonl", _with("readers.jsonl", reader=None), "missing field 'reader'"),
    ("readers.jsonl", _with("readers.jsonl", reader=""), "reader id must be a non-empty string"),
    ("readers.jsonl", _with("readers.jsonl", reader=7), "reader id must be a non-empty string"),
    ("readers.jsonl", _with("readers.jsonl", courses="c1"), "courses must be a list of strings"),
    ("readers.jsonl", _with("readers.jsonl", courses=[1]), "courses must be a list of strings"),
    ("readers.jsonl", _with("readers.jsonl", skills=[]), "skills must be an object"),
    ("readers.jsonl", _with("readers.jsonl", skills={"s": 5}),
     "skill 's' level 5 outside ordinal range 1..4"),
    ("readers.jsonl", _with("readers.jsonl", skills={"s": True}),
     "skill 's' level True outside ordinal range 1..4"),
    ("readers.jsonl", VALID_LINES["readers.jsonl"], "duplicate reader id 'r1'"),
    ("events.jsonl", _with("events.jsonl", event=None), "missing field 'event'"),
    ("events.jsonl", _with("events.jsonl", reader=None), "missing field 'reader'"),
    ("events.jsonl", _with("events.jsonl", paper=None), "missing field 'paper'"),
    ("events.jsonl", _with("events.jsonl", kind=None), "missing field 'kind'"),
    ("events.jsonl", _with("events.jsonl", page=None), "missing field 'page'"),
    ("events.jsonl", _with("events.jsonl", bbox=None), "missing field 'bbox'"),
    ("events.jsonl", _with("events.jsonl", event=1), "event must be a string"),
    ("events.jsonl", _with("events.jsonl", reader=1), "reader must be a string"),
    ("events.jsonl", _with("events.jsonl", paper=1), "paper must be a string"),
    ("events.jsonl", _with("events.jsonl", quote_text=1), "quote_text must be a string"),
    ("events.jsonl", _with("events.jsonl", kind="question", content_text=1),
     "content_text must be a string"),
    ("events.jsonl", _with("events.jsonl", kind="note"), "unknown event kind 'note'"),
    ("events.jsonl", _with("events.jsonl", page=-1), "page must be a nonnegative integer"),
    ("events.jsonl", _with("events.jsonl", page=1.0), "page must be a nonnegative integer"),
    ("events.jsonl", _with("events.jsonl", page=False), "page must be a nonnegative integer"),
    ("events.jsonl", _with("events.jsonl", bbox=[0, 0, 1]), "bbox must be four numbers"),
    ("events.jsonl", _with("events.jsonl", bbox=[0, 0, 1, True]), "bbox must be four numbers"),
    ("events.jsonl", _with("events.jsonl", bbox="0,0,1,1"), "bbox must be four numbers"),
    ("events.jsonl", _with("events.jsonl", bbox=[0, 0, 1, 1.5]), "bbox coordinates outside [0,1]"),
    ("events.jsonl", _with("events.jsonl", bbox=[0.5, 0, 0.25, 1]),
     "bbox violates x0<=x1 (0.5 > 0.25)"),
    ("events.jsonl", _with("events.jsonl", bbox=[0, 0.75, 1, 0.5]),
     "bbox violates y0<=y1 (0.75 > 0.5)"),
    ("events.jsonl", _with("events.jsonl", **{**REPLY, "target": 3}), "target must be a string"),
    ("events.jsonl", _with("events.jsonl", **{**RATING, "oer": 3}), "oer must be a string"),
    ("events.jsonl", _with("events.jsonl", ts="late"), "ts must be an integer"),
    ("events.jsonl", _with("events.jsonl", ts=1.5), "ts must be an integer"),
    ("events.jsonl", _with("events.jsonl", target="e0"), "target must be set iff kind is reply"),
    ("events.jsonl", _with("events.jsonl", **{**REPLY, "target": None}),
     "target must be set iff kind is reply"),
    ("events.jsonl", _with("events.jsonl", oer="v1"), "oer must be set iff kind is rating"),
    ("events.jsonl", _with("events.jsonl", **{**RATING, "oer": None}),
     "oer must be set iff kind is rating"),
    ("events.jsonl", _with("events.jsonl", grade="Good"), "grade must be set iff kind is rating"),
    ("events.jsonl", _with("events.jsonl", **{**RATING, "grade": None}),
     "grade must be set iff kind is rating"),
    ("events.jsonl", _with("events.jsonl", content_text="why"), "quote events carry no content_text"),
    ("events.jsonl", _with("events.jsonl", **RATING, content_text="why"),
     "rating events carry no content_text"),
    ("events.jsonl", _with("events.jsonl", **{**RATING, "grade": "Great"}),
     "grade 'Great' not one of Good, OK, Bad, NotSure"),
    ("events.jsonl", VALID_LINES["events.jsonl"], "duplicate event id 'e1'"),
    ("oers.jsonl", _with("oers.jsonl", oer=None), "missing field 'oer'"),
    ("oers.jsonl", _with("oers.jsonl", type=None), "missing field 'type'"),
    ("oers.jsonl", _with("oers.jsonl", type="podcast"),
     "OER type 'podcast' not one of video, slides, wiki, code"),
    ("oers.jsonl", _with("oers.jsonl", oer=5), "oer must be a string"),
    ("oers.jsonl", _with("oers.jsonl", title=["t"]), "title must be a string"),
    ("oers.jsonl", _with("oers.jsonl", body=5), "body must be a string"),
    ("oers.jsonl", VALID_LINES["oers.jsonl"], "duplicate OER id 'v1'"),
    ("judgments.tsv", "q1\tr1\tp1\tq\tv2", "expected 6 tab-separated columns, got 5"),
    ("judgments.tsv", "q1\tr1\tp1\tq\tv2\tGood\tx", "expected 6 tab-separated columns, got 7"),
    ("judgments.tsv", "q1\tr1\tp1\tq\tv2\tgood", "grade 'good' not one of Good, OK, Bad, NotSure"),
    ("judgments.tsv", "q1\tr2\tp1\tq\tv2\tGood",
     "query 'q1' repeated with conflicting reader/paper/quote"),
    ("judgments.tsv", "q1\tr1\tp1\tq\tv1\tBad", "OER 'v1' judged twice in query 'q1'"),
    # reader ids the first column of communities.tsv cannot carry
    ("readers.jsonl", _with("readers.jsonl", reader="#r000"),
     "reader id '#r000' begins with '#' or holds a tab or a line break"),
    ("readers.jsonl", _with("readers.jsonl", reader="r\t0"),
     "reader id 'r\\t0' begins with '#' or holds a tab or a line break"),
    ("readers.jsonl", _with("readers.jsonl", reader="r0\u2028"),
     "reader id 'r0\\u2028' begins with '#' or holds a tab or a line break"),
    ("events.jsonl", _with("events.jsonl", reader="#r000"),
     "reader id '#r000' begins with '#' or holds a tab or a line break"),
    ("events.jsonl", _with("events.jsonl", reader="r\x1c0"),
     "reader id 'r\\x1c0' begins with '#' or holds a tab or a line break"),
    ("judgments.tsv", "q2\t#r000\tp1\tq\tv1\tGood",
     "reader id '#r000' begins with '#' or holds a tab or a line break"),
]


@pytest.mark.parametrize("stream, line, message", PARSE_ERRORS)
def test_every_parse_error_names_stream_line_and_reason(stream, line, message):
    # a valid record, a blank line, then the malformed one on line 3
    streams = {name: None for name in STREAMS}
    streams[stream] = [VALID_LINES[stream], "", line]
    with pytest.raises(CorpusFormatError) as exc:
        parse_corpus(*streams.values())
    assert str(exc.value) == f"{stream}:3: {message}"
    assert (exc.value.stream, exc.value.line_no) == (stream, 3)


@given(st.text(max_size=6))
@example("#r000")
@example("r\n0")
def test_an_accepted_reader_id_survives_communities_tsv(reader_id):
    """Every reader id the parser accepts comes back from the first column
    of communities.tsv as it was written."""
    try:
        parse_corpus([], [json.dumps({"reader": reader_id})])
    except CorpusFormatError:
        return
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "communities.tsv"
        write_communities(path, {reader_id: 0}, {},
                          {"config_hash": "h", "seed": 1, "stage": "cluster"})
        assert read_communities(path, k=1) == ({reader_id: 0}, {reader_id: "clustered"})
