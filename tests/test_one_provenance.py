"""The provenance record lives behind two modules: only `config.py` builds
a dict with a "config_hash" key (`PipelineConfig.meta`), and only `util.py`
spells the TSV provenance line (a "config_hash=" literal). Every stage
artifact then names the same hash, seed and stage, however it is written."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oerrec"


def modules():
    """(file name, parsed module) for every package module."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10  # the scan found the package
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def test_only_util_renders_the_provenance_line():
    spellings = {f"{name}:{node.lineno}" for name, tree in modules()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and "config_hash=" in node.value}
    assert {s.split(":")[0] for s in spellings} == {"util.py"}, spellings


def test_only_config_builds_the_record():
    builders = {f"{name}:{node.lineno}" for name, tree in modules()
                for node in ast.walk(tree) if isinstance(node, ast.Dict)
                for key in node.keys
                if isinstance(key, ast.Constant) and key.value == "config_hash"}
    assert {b.split(":")[0] for b in builders} == {"config.py"}, builders
