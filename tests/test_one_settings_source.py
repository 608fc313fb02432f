"""A pipeline setting has one home, `PipelineConfig`: the seven functions
that compose the pipeline's steps take the config as `cfg` and declare no
default of their own, and no module keeps a second default for the
ranker's restarts or threshold."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oerrec"

COMPOSITIONS = {
    "community.py": ("cluster_profiles", "fit_behavior_classifier", "predict_behavior"),
    "ranker.py": ("community_jobs", "train_communitized"),
    "evaluation.py": ("cross_validate_ranking", "simulate_missing_rpf"),
}
RETIRED = {"DEFAULT_RESTARTS", "DEFAULT_THRESHOLD"}


def compositions():
    """name -> the module-level definition of each of the seven."""
    found = {}
    for module, names in COMPOSITIONS.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        found.update({node.name: node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name in names})
    assert len(found) == 7, sorted(found)
    return found


def test_each_composition_takes_the_config():
    without = sorted(name for name, node in compositions().items()
                     if "cfg" not in [a.arg for a in node.args.args])
    assert without == []


def test_no_composition_has_a_parameter_default():
    defaulted = sorted(name for name, node in compositions().items()
                       if node.args.defaults or any(node.args.kw_defaults))
    assert defaulted == []


def identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname


def test_no_retired_default_is_named():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(paths) > 10  # the scan found the package
    named = {f"{p.name}: {name}" for p in paths
             for name in identifiers(ast.parse(p.read_text(encoding="utf-8")))
             if name in RETIRED}
    assert named == set()
