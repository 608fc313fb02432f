"""The benchmark's tracer patches oerrec functions by name; every one it
names must exist, so that renaming or deleting a traced function fails here
rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports the standard library only
    return module


@pytest.mark.parametrize("module_name, attr",
                         [(t[0], t[1]) for t in load_tracing().TARGETS])
def test_traced_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_counts_one_parse_and_every_corpus_line(toy_corpus, tmp_path):
    # _count_lines reads the line lists parse_corpus takes as positional
    # arguments, so read_corpus must hand it all four streams in one call
    from oerrec import corpus

    corpus.write_corpus(toy_corpus, tmp_path)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert corpus.read_corpus(tmp_path) == toy_corpus
    finally:
        tracer.uninstall()
    n_lines = sum(len((tmp_path / name).read_text().splitlines()) for name in corpus.STREAMS)
    assert n_lines > 0
    assert tracer.counts["corpus.parse_calls"] == 1
    assert tracer.counts["corpus.lines"] == n_lines
