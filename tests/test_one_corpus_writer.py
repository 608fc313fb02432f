"""Corpus streams are written from records in one place: only `simgen.py`
calls `write_corpus`. `ingest` copies the bytes it parsed and checked
(`corpus.copy_streams`), so a second caller would start re-serializing,
and normalizing, the input again."""

import ast

from test_one_provenance import modules


def test_only_simgen_writes_corpus_records():
    callers = {f"{name}:{node.lineno}" for name, tree in modules()
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "write_corpus"}
    assert {c.split(":")[0] for c in callers} == {"simgen.py"}, callers
