"""Pipeline configuration: one JSON document plus flag overrides, with a
mandatory seed that every stage forks deterministically by stage name."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .community import DEFAULT_CLASSIFIER_GROUPS
from .features import RPF_GROUPS
from .simgen import SimConfig
from .util import load_json, stable_hash


@dataclass
class PipelineConfig:
    in_dir: str = "."
    out_dir: str = "out"
    # features
    k_loc: int = 10
    group_weights: dict = field(default_factory=dict)
    # clustering
    cluster_k: int = 3
    distance: str = "euclidean"
    cluster_groups: tuple = RPF_GROUPS
    classifier_groups: tuple = DEFAULT_CLASSIFIER_GROUPS
    # community classifier
    lam: float = 1.0
    # graph / text
    metapath_file: str = ""  # empty = <in_dir>/metapaths.json if present, else builtin
    mu: float = 2000.0
    k1: float = 1.2
    b: float = 0.75
    # ranker
    metric: str = "ndcg@3"
    restarts: int = 5
    threshold: int = 10
    # evaluation
    folds: int = 10
    sim_folds: int = 4
    fraction: float = 0.25
    # simulation (corpus generation)
    sim: dict = field(default_factory=dict)
    seed: int | None = None
    # run bookkeeping, set by the CLI: not a config key, not hashed
    overrides_echo: dict = field(default_factory=dict, init=False)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValueError("seed is mandatory: set it in the config file or pass --seed")
        return self.seed

    def sim_config(self) -> SimConfig:
        merged = dict(self.sim)
        merged.setdefault("seed", self.require_seed())
        return SimConfig.from_dict(merged)

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            if not f.init:
                continue
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d

    def config_hash(self) -> str:
        """Hash of the experiment parameters; paths identify a run's location,
        not its outcome, so they are excluded."""
        d = self.to_dict()
        for key in ("in_dir", "out_dir", "metapath_file"):
            d.pop(key, None)
        return stable_hash(d)

    def meta(self, stage: str) -> dict:
        """The provenance record of what `stage` writes: `util.dump_json`
        puts it under "_meta", `util.write_tsv` renders it as a comment."""
        return {
            "config_hash": self.config_hash(),
            "seed": self.require_seed(),
            "stage": stage,
            "overrides": dict(self.overrides_echo),
        }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# a field's annotation -> what a config value for it must be, and the test
_KINDS = {
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    # json reads NaN and Infinity, and argparse's float() reads "nan" and "inf"
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "dict": ("an object", lambda v: isinstance(v, dict)),
    "tuple": ("a list of strings",
              lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
}
_KINDS["tuple[str, ...]"] = _KINDS["tuple"]  # SimConfig.preferred_types


def _check(entries: dict, types: dict, prefix: str = "") -> None:
    """Fail on a key of `entries` that `types` lacks, or on a value not of
    its key's kind; keys are named after `prefix`."""
    unknown = sorted(prefix + key for key in set(entries) - set(types))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for key, value in entries.items():
        kind, ok = _KINDS[types[key]]
        if not ok(value):
            raise ValueError(f"config key {prefix + key!r} must be {kind}, got {value!r}")


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Config file first, then flag overrides on top; a `sim` override is
    merged key by key over the file's `sim`. Unknown keys and values of
    the wrong kind fail, NaN and the infinities included, and so do `sim`
    keys and the values of `group_weights` and `sim.oers_per_type`."""
    data: dict = {}
    if path is not None:
        data = load_json(Path(path))
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    overrides = overrides or {}
    types = {f.name: f.type for f in fields(PipelineConfig) if f.init}
    sim_types = {f.name: f.type for f in fields(SimConfig)}
    for entries in (data, overrides):
        _check(entries, types)
        sim = entries.get("sim", {})
        _check(sim, sim_types, "sim.")
        weights, counts = entries.get("group_weights", {}), sim.get("oers_per_type", {})
        _check(weights, dict.fromkeys(weights, "float"), "group_weights.")
        _check(counts, dict.fromkeys(counts, "int"), "sim.oers_per_type.")
    for key, value in overrides.items():
        data[key] = {**data.get("sim", {}), **value} if key == "sim" else value
    return PipelineConfig(**{key: tuple(value) if types[key] == "tuple" else value
                             for key, value in data.items()})
