"""Seed forking, stable hashing, atomic file writes and the JSON and
tab-separated artifact formats shared by all stages."""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Sequence

import numpy as np


def fork_seed(seed: int, label: str) -> int:
    """Derive a stage-specific 64-bit seed from a master seed and a label.

    The derivation is a stable hash, so every stage of a pipeline run is
    reproducible from the single master seed alone.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(fork_seed(seed, label))


def stable_hash(obj: Any) -> str:
    """Short hex digest of a JSON-serializable object, key order ignored."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


_UMASK = os.umask(0)  # reading the umask sets it, so it is read once
os.umask(_UMASK)


def write_atomically(writers: dict[Path, Callable[[BinaryIO], Any]]) -> None:
    """Call each writer on a new temp file beside its path, opened for binary
    writing, and move the temp files over their paths once every writer has
    returned. If one raises, all the temp files are removed and no path is
    touched: a failed call leaves no partial file and no half of its set.
    A path gets the mode `open` gives a new file, not the temp file's 0600."""
    tmps: list[tuple[str, Path]] = []
    try:
        for path, write in writers.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            tmps.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                os.chmod(tmp, 0o666 & ~_UMASK)
                write(fh)
        for tmp, path in tmps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text so that a failed run never leaves a partial file behind."""
    write_atomically({Path(path): lambda fh: fh.write(text.encode("utf-8"))})


def checked_copy(src: str | Path, sha256: str) -> Callable[[BinaryIO], None]:
    """A `write_atomically` writer that copies src and raises ValueError if
    the bytes it copied do not have the sha256 hex digest given, that is, if
    src changed since that digest was taken."""
    def write(fh: BinaryIO) -> None:
        digest = hashlib.sha256()
        with open(src, "rb") as fin:
            while chunk := fin.read(1 << 20):
                digest.update(chunk)
                fh.write(chunk)
        if digest.hexdigest() != sha256:
            raise ValueError(f"{src} changed while it was read")
    return write


_encode_str = json.encoder.encode_basestring_ascii


def _text(obj, indent: str) -> str:
    """obj as `json.dumps(indent=1, sort_keys=True)` writes it at the
    nesting level whose lines start with indent. Raises TypeError naming
    what no artifact holds: NaN, an infinity, a non-string key or a value
    of any other type."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + " "
        sep = ",\n" + inner
        kinds = set(map(type, obj))
        if kinds == {float}:
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:  # nan or inf
                raise TypeError(repr(next(v for v in obj if not math.isfinite(v))))
        elif kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif kinds == {str}:
            body = sep.join(map(_encode_str, obj))
        else:
            body = sep.join([_text(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + " "
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"key {k!r}")
        items = [_encode_str(k) + ": " + _text(v, inner) for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    # json's order of checks: bool before int; subclasses as their base type
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    raise TypeError(repr(obj))


def dump_json(path: str | Path, obj: Any, meta: dict) -> None:
    """Write obj as JSON with meta, the provenance record
    (`PipelineConfig.meta`), under "_meta".

    The bytes are those of ``json.dumps`` with ``indent=1`` and
    ``sort_keys=True`` plus a newline, from `_text`, the one encoder (json's
    own indenting encoder is pure Python). A value that no artifact holds
    (NaN, an infinity, a non-string key, a numpy int or bool, a set) raises
    TypeError naming path and the value before a file is written.
    """
    try:
        text = _text({"_meta": meta, **obj}, "")
    except TypeError as exc:
        raise TypeError(f"{path}: cannot write {exc}") from None
    atomic_write_text(path, text + "\n")


def load_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def write_tsv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence],
              meta: dict) -> None:
    """A `# columns` line, the provenance record meta (`PipelineConfig.meta`)
    as a `# config_hash=... seed=... stage=...` line, then the rows tab-joined."""
    lines = ["# " + "\t".join(columns),
             f"# config_hash={meta['config_hash']} seed={meta['seed']} stage={meta['stage']}"]
    lines += ["\t".join(map(str, row)) for row in rows]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def utf8_error(exc: UnicodeDecodeError) -> tuple[int, str]:
    """(line, reason) for bytes that failed to decode as UTF-8: the line of
    the first bad byte, counted as `str.splitlines` counts lines, and
    `not valid UTF-8 (byte 0x..)`."""
    data = exc.object
    # the text before the bad byte is UTF-8; one more character stands for
    # the bad byte, on a line of its own if that text ends with a line break
    line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
    return line_no, f"not valid UTF-8 (byte 0x{data[exc.start]:02x})"


def read_tsv(path: str | Path, n_columns: int, row: Callable[..., Any]) -> None:
    """Call row(*fields) for each line of a `write_tsv` file but blank and
    `#` lines. A ValueError raised while a line is handled, a wrong column
    count and a byte that is not UTF-8 included, is raised with
    `<file name>:<line>: ` in front."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no, reason = utf8_error(exc)
        raise ValueError(f"{path.name}:{line_no}: {reason}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        try:
            if len(fields) != n_columns:
                raise ValueError(f"expected {n_columns} tab-separated columns, "
                                 f"got {len(fields)}")
            row(*fields)
        except ValueError as exc:
            raise ValueError(f"{path.name}:{line_no}: {exc}") from exc
