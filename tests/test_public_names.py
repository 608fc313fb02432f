"""Every public function, class and method of the package is used: its name
appears in `src/`, `scripts/` or `benchmark/` somewhere besides its own
definitions. A name that only tests mention is code nothing calls; the
tracer's target strings count as uses."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oerrec"
USING_DIRS = ("src", "scripts", "benchmark")


def public_definitions() -> Counter:
    """Name -> number of module- and class-level definitions in the package."""
    defined: Counter = Counter()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *members):
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    defined[item.name] += 1
    return defined


def test_every_public_name_is_used():
    defined = public_definitions()
    text = "\n".join(p.read_text(encoding="utf-8")
                     for d in USING_DIRS for p in sorted((ROOT / d).rglob("*.py")))
    words = Counter(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    assert len(defined) > 100  # the scan found the package
    unused = sorted(name for name, n in defined.items() if words[name] <= n)
    assert unused == []
