"""The candidate layout lives behind one module: nothing in `src/` outside
`metrics.py` reads a `.columns` attribute, so gains, training features and
scores are laid out by `RankingKernel.layout` alone. Outside `metrics.py`,
only `ranker.rank`, the layout's one-row case, orders candidates itself with
`id_order` and `rank_order`. A tie key then has one place to go."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oerrec"
ORDERING = {"id_order", "rank_order"}


def modules():
    """(file name, parsed module) for every package module but metrics.py."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10  # the scan found the package
    return [(p.name, ast.parse(p.read_text(encoding="utf-8")))
            for p in paths if p.name != "metrics.py"]


def test_only_metrics_reads_columns():
    reads = [f"{name}:{node.lineno}" for name, tree in modules() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "columns"
             or isinstance(node, ast.Constant) and node.value == "columns"]
    assert reads == []


def test_only_rank_orders_candidates_outside_metrics():
    users = set()
    for name, tree in modules():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Name) and node.id in ORDERING
                        or isinstance(node, ast.Attribute) and node.attr in ORDERING):
                    users.add(f"{name}:{getattr(func, 'name', 'lambda')}")
    assert users == {"ranker.py:rank"}
