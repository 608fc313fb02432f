"""The JSON artifact writer against json.dumps(indent=1, sort_keys=True)."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from oerrec.util import dump_json

finite_or_not = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.text(),  # non-ASCII and control characters included
    st.integers(min_value=-2**70, max_value=2**70),
    st.booleans(),
    st.none(),
    finite_or_not,
    finite_or_not.map(np.float64),
)
keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.floats(allow_nan=False),
                 st.booleans(), st.none())
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(finite_or_not, max_size=5),  # homogeneous lists take one join
        st.lists(st.integers(), max_size=5),
        st.lists(st.text(max_size=3), max_size=5),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=30,
)


def written(obj):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.json"
        try:
            dump_json(path, obj)
        except Exception as exc:  # compared with what json raises
            return type(exc)
        return path.read_text(encoding="utf-8")


def dumped(obj):
    try:
        return json.dumps(obj, indent=1, sort_keys=True) + "\n"
    except Exception as exc:  # compared with what the writer raises
        return type(exc)


@settings(deadline=None, max_examples=300)
@given(documents)
def test_writer_text_equals_json_dumps(obj):
    assert written(obj) == dumped(obj)


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(keys, scalars, max_size=4))
def test_non_string_keys_are_converted_or_rejected_as_json_does(obj):
    # keys of mixed types do not sort, and json then raises TypeError
    assert written(obj) == dumped(obj)


def test_what_json_rejects_the_writer_rejects():
    for obj in ([np.int64(3)], {"a": np.bool_(True)}, {(1, 2): 0}, {1: 0, "a": 0}, {1, 2}):
        assert isinstance(dumped(obj), type)
        assert written(obj) == dumped(obj)


def test_meta_goes_under_its_key():
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.json"
        dump_json(path, {"b": [1.5, 2.0], "a": []}, {"seed": 1})
        text = path.read_text(encoding="utf-8")
    assert text == dumped({"_meta": {"seed": 1}, "a": [], "b": [1.5, 2.0]})
