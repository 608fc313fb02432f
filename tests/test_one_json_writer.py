"""Every JSON artifact goes through `util.dump_json`, with its provenance
record: no other call indents JSON (a second, lenient encoder), every
`json.dumps` refuses NaN and the infinities, and no function lets a caller
leave out its `meta` record."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def trees():
    """(file name, parsed module) for the package modules and the scripts."""
    paths = [p for d in ("src/oerrec", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    assert len(paths) > 10  # the scan found the package
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def json_calls(name):
    """(place, {keyword: value node}) of every `json.<name>(...)` call."""
    return [(f"{file}:{node.lineno}", {kw.arg: kw.value for kw in node.keywords})
            for file, tree in trees() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and getattr(node.func.value, "id", None) == "json"]


def test_no_json_call_indents():
    indented = [place for name in ("dump", "dumps")
                for place, keywords in json_calls(name) if "indent" in keywords]
    assert indented == []


def test_every_json_dumps_refuses_nan():
    calls = json_calls("dumps")
    assert calls  # the scan found the encoders of stable_hash and the corpus streams
    lenient = [place for place, keywords in calls
               if getattr(keywords.get("allow_nan"), "value", None) is not False]
    assert lenient == []


def test_no_meta_parameter_has_a_default():
    optional = []
    for file, tree in trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            with_default = positional[len(positional) - len(a.defaults):] + [
                arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
            optional += [f"{file}:{node.lineno} {node.name}"
                         for arg in with_default if arg.arg == "meta"]
    assert optional == []
