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


def dump_json(path: str | Path, obj: Any, meta: dict | None = None) -> None:
    """Serialize obj to JSON; meta (config hash, seed, stage) goes under "_meta"."""
    if meta is not None:
        obj = {"_meta": meta, **obj}
    atomic_write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


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
