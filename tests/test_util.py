"""The JSON artifact writer against json.dumps(indent=1, sort_keys=True),
and the mode of what the atomic writers leave."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oerrec.util import dump_json, read_tsv

META = {"config_hash": "h", "seed": 1, "stage": "s"}

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.text(),  # non-ASCII and control characters included
    st.integers(min_value=-2**70, max_value=2**70),
    st.booleans(),
    st.none(),
    finite,
    finite.map(np.float64),
)
documents = st.dictionaries(st.text(max_size=4), st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(finite, max_size=5),  # homogeneous lists take one join
        st.lists(st.integers(), max_size=5),
        st.lists(st.text(max_size=3), max_size=5),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    ),
    max_leaves=30,
), max_size=4)


def written(obj, meta=META):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "x.json"
        dump_json(path, obj, meta)
        return path.read_text(encoding="utf-8")


def dumped(obj, meta=META):
    return json.dumps({"_meta": meta, **obj}, indent=1, sort_keys=True) + "\n"


@settings(deadline=None, max_examples=300)
@given(documents)
def test_writer_text_equals_json_dumps(obj):
    """Documents with string keys and finite numbers only."""
    assert written(obj) == dumped(obj)


@pytest.mark.parametrize("obj, what", [
    ({"x": float("nan")}, "nan"),
    ({"x": [0.5, float("inf")]}, "inf"),
    ({"x": {"y": [1, -float("inf")]}}, "-inf"),
    ({1: 0}, "key 1"),
    ({"x": {1: 0, "a": 0}}, "key 1"),
    ({"x": [{(1, 2): 0}]}, "key (1, 2)"),
    ({"x": {1, 2}}, "{1, 2}"),
    ({"x": [np.int64(3)]}, repr(np.int64(3))),
    ({"a": np.bool_(True)}, repr(np.bool_(True))),
])
def test_what_no_artifact_holds_is_refused(tmp_path, obj, what):
    """TypeError naming the path and the value; an earlier file at the
    path keeps its bytes and no temp file is left."""
    path = tmp_path / "x.json"
    path.write_bytes(b'{"earlier": 1}\n')
    with pytest.raises(TypeError) as exc:
        dump_json(path, obj, META)
    assert str(exc.value) == f"{path}: cannot write {what}"
    assert path.read_bytes() == b'{"earlier": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


def test_meta_goes_under_its_key():
    text = written({"b": [1.5, 2.0], "a": []}, {"seed": 1})
    assert text == json.dumps({"_meta": {"seed": 1}, "a": [], "b": [1.5, 2.0]},
                              indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("data, line, byte", [
    (b"# c\ta\nx\t\xff\n", 2, "ff"), (b"x\t1\n\ny\t\xfe2\n", 3, "fe"),
    (b"x\t\xe2\x80\xa8\x80", 2, "80")])  # U+2028 ends a line for str.splitlines
def test_read_tsv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line, byte):
    path = tmp_path / "vertices.tsv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        read_tsv(path, 2, lambda *fields: None)
    assert str(exc.value) == f"vertices.tsv:{line}: not valid UTF-8 (byte 0x{byte})"


# In a process started with the given umask: a JSON artifact, a TSV
# artifact and the corpus streams that `copy_streams` copies (one of them
# from a file) or writes empty, then the mode of each file written.
WRITE_EVERY_KIND = """
import hashlib, os, sys
from pathlib import Path
os.umask(int(sys.argv[1], 8))
from oerrec.corpus import STREAMS, copy_streams
from oerrec.util import dump_json, write_tsv
src, out = Path(sys.argv[2]) / "src", Path(sys.argv[2]) / "out"
src.mkdir()
(src / "readers.jsonl").write_bytes(b"{}\\n")
meta = {"config_hash": "h", "seed": 1, "stage": "s"}
dump_json(out / "a.json", {"x": 1}, meta)
write_tsv(out / "a.tsv", ("c",), [("v",)], meta)
copy_streams(src, out, {"readers.jsonl": hashlib.sha256(b"{}\\n").hexdigest()})
for name in ("a.json", "a.tsv", *STREAMS):
    print(name, oct((out / name).stat().st_mode & 0o777))
"""


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002, 0o077], ids=oct)
def test_written_files_get_the_mode_open_gives(tmp_path, umask):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", WRITE_EVERY_KIND, oct(umask), str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    modes = dict(line.split() for line in proc.stdout.splitlines())
    assert len(modes) == 6
    assert set(modes.values()) == {oct(0o666 & ~umask)}, modes
