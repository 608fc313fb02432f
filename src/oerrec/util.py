"""Seed forking, stable hashing, atomic file writes and the JSON and
tab-separated artifact formats shared by all stages."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

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
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text so that a failed run never leaves a partial file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


class _Unsupported(Exception):
    """A value _text leaves to json itself."""


def _float(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


def _scalar(v) -> str:
    """json's spelling of a str, None, bool, int or float, in its order of
    checks: bool before int, float subclasses through float.__repr__."""
    if isinstance(v, str):
        return _encode_str(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float(v)
    raise _Unsupported


def _text(obj, indent: str) -> str:
    """obj as `json.dumps(indent=1, sort_keys=True)` writes it at the
    nesting level whose lines start with indent."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + " "
        sep = ",\n" + inner
        kinds = set(map(type, obj))
        if kinds == {float}:
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:  # nan or inf, which json spells NaN and Infinity
                body = sep.join(map(_float, obj))
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
        items = []
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):  # json's spelling, quoted
                k = _scalar(k)
            items.append(_encode_str(k) + ": " + _text(v, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return _scalar(obj)


def dump_json(path: str | Path, obj: Any, meta: dict | None = None) -> None:
    """Serialize obj to JSON; meta (config hash, seed, stage) goes under "_meta".

    The text is exactly ``json.dumps(obj, indent=1, sort_keys=True) + "\n"``.
    Any indent sends json to its pure-Python encoder, so str, int, float,
    bool, None, lists, tuples and dicts are written here instead, with
    json's C string encoder and one join per list of plain numbers or
    strings. Anything else, and any error, is left to json itself.
    """
    if meta is not None:
        obj = {"_meta": meta, **obj}
    try:
        text = _text(obj, "")
    except (_Unsupported, TypeError, RecursionError):
        text = json.dumps(obj, indent=1, sort_keys=True)
    atomic_write_text(path, text + "\n")


def load_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def write_tsv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence],
              comment: str | None = None) -> None:
    """A `# columns` line, an optional `# comment` line, then one
    tab-joined line per row."""
    lines = ["# " + "\t".join(columns)]
    if comment:
        lines.append(f"# {comment}")
    lines += ["\t".join(map(str, row)) for row in rows]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_tsv(path: str | Path, n_columns: int, row: Callable[..., Any]) -> None:
    """Call row(*fields) for each line of a `write_tsv` file but blank and
    `#` lines. A ValueError raised while a line is handled, a wrong column
    count included, is re-raised with `<file name>:<line>: ` in front."""
    path = Path(path)
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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
