"""Pipeline configuration: one JSON document plus flag overrides, with a
mandatory seed that every stage forks deterministically by stage name."""

from __future__ import annotations

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
        return {
            "config_hash": self.config_hash(),
            "seed": self.require_seed(),
            "stage": stage,
            "overrides": dict(self.overrides_echo),
        }


_TUPLE_FIELDS = {"cluster_groups", "classifier_groups"}


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Config file first, then flag overrides on top; a `sim` override is
    merged key by key over the file's `sim`. Unknown keys fail."""
    data: dict = {}
    if path is not None:
        data = load_json(Path(path))
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    for key, value in (overrides or {}).items():
        data[key] = {**data.get("sim", {}), **value} if key == "sim" else value
    known = {f.name for f in fields(PipelineConfig) if f.init}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for key in _TUPLE_FIELDS & set(data):
        data[key] = tuple(data[key])
    return PipelineConfig(**data)
