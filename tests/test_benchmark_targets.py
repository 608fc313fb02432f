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
