"""Heterogeneous paper-topic-OER graph and meta-path walk features.

Walk scores use exact dynamic-programming mass propagation, not sampling:
mass starts uniform over the start vertices and, at each step, splits
uniformly over the out-edges of the required type whose heads pass the step
filter. Mass at a vertex with no qualifying out-edge is absorbed, so
score-sum + absorbed mass is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import OerType
from .util import dump_json, load_json, read_tsv, write_tsv

VERTEX_TYPES = ("paper", "topic", "oer")

# edge label -> (source vertex type, destination vertex type)
EDGE_SCHEMA = {
    "about": ("paper", "topic"),
    "covers": ("topic", "paper"),
    "resource": ("paper", "oer"),
    "related": ("topic", "oer"),
}


class GraphSchemaError(ValueError):
    pass


@dataclass
class HetGraph:
    vertex_type: dict[str, str] = field(default_factory=dict)
    payload: dict[str, str] = field(default_factory=dict)  # oer: type, topic: label
    _adj: dict[tuple[str, str], set[str]] = field(default_factory=dict)

    def add_vertex(self, vertex_id: str, vtype: str, payload: str = "") -> None:
        if vtype not in VERTEX_TYPES:
            raise GraphSchemaError(f"unknown vertex type {vtype!r}")
        if vtype == "oer":
            try:
                OerType(payload)
            except ValueError as exc:
                raise GraphSchemaError(
                    f"OER vertex {vertex_id!r} needs a valid type payload, got {payload!r}"
                ) from exc
        existing = self.vertex_type.get(vertex_id)
        if existing is not None:
            if existing != vtype or self.payload[vertex_id] != payload:
                raise GraphSchemaError(f"vertex {vertex_id!r} redeclared inconsistently")
            return
        self.vertex_type[vertex_id] = vtype
        self.payload[vertex_id] = payload

    def add_edge(self, src: str, edge_type: str, dst: str) -> None:
        if edge_type not in EDGE_SCHEMA:
            raise GraphSchemaError(f"unknown edge type {edge_type!r}")
        want_src, want_dst = EDGE_SCHEMA[edge_type]
        for v, want in ((src, want_src), (dst, want_dst)):
            have = self.vertex_type.get(v)
            if have is None:
                raise GraphSchemaError(f"edge endpoint {v!r} is not a vertex")
            if have != want:
                raise GraphSchemaError(
                    f"edge {edge_type!r} requires {want} endpoints, {v!r} is {have}")
        self._adj.setdefault((src, edge_type), set()).add(dst)

    def out(self, vertex_id: str, edge_type: str) -> list[str]:
        return sorted(self._adj.get((vertex_id, edge_type), ()))

    def vertices(self, vtype: str | None = None) -> list[str]:
        if vtype is None:
            return sorted(self.vertex_type)
        return sorted(v for v, t in self.vertex_type.items() if t == vtype)


@dataclass(frozen=True)
class PathStep:
    edge: str
    to: str  # destination vertex type
    oer_type: str | None = None  # terminal-step constraint only


@dataclass(frozen=True)
class MetaPath:
    steps: tuple[PathStep, ...]

    def __post_init__(self):
        prev_to: str | None = None
        for i, step in enumerate(self.steps):
            if step.edge not in EDGE_SCHEMA:
                raise GraphSchemaError(f"step {i}: unknown edge type {step.edge!r}")
            src, dst = EDGE_SCHEMA[step.edge]
            if step.to != dst:
                raise GraphSchemaError(
                    f"step {i}: edge {step.edge!r} ends at {dst!r}, not {step.to!r}")
            if prev_to is not None and src != prev_to:
                raise GraphSchemaError(
                    f"step {i}: edge {step.edge!r} starts at {src!r} after a {prev_to!r} step")
            if step.oer_type is not None:
                if i != len(self.steps) - 1:
                    raise GraphSchemaError("oer_type constraint is terminal-only")
                if step.to != "oer":
                    raise GraphSchemaError("oer_type constraint on a non-OER step")
                OerType(step.oer_type)
            prev_to = step.to

    @property
    def source_type(self) -> str | None:
        """Vertex type the walk must start from; None for the empty path."""
        if not self.steps:
            return None
        return EDGE_SCHEMA[self.steps[0].edge][0]

    def signature(self) -> str:
        parts = []
        for s in self.steps:
            part = f"{s.edge}>{s.to}"
            if s.oer_type:
                part += f":{s.oer_type}"
            parts.append(part)
        return ",".join(parts) if parts else "identity"

    def to_json(self) -> list[dict]:
        out = []
        for s in self.steps:
            d = {"edge": s.edge, "to": s.to}
            if s.oer_type is not None:
                d["oer_type"] = s.oer_type
            out.append(d)
        return out

    @classmethod
    def from_json(cls, steps: list[dict]) -> "MetaPath":
        if not isinstance(steps, list) or not all(isinstance(s, dict) for s in steps):
            raise ValueError("expected a list of step objects")
        for i, s in enumerate(steps):
            for key in ("edge", "to"):
                if key not in s:
                    raise ValueError(f"step {i}: missing key {key!r}")
                if not isinstance(s[key], str):
                    raise ValueError(f"step {i}: {key!r} must be a string")
        return cls(tuple(PathStep(s["edge"], s["to"], s.get("oer_type")) for s in steps))


@dataclass
class WalkResult:
    scores: dict[str, float]  # terminal vertex -> accumulated probability
    absorbed: float  # mass lost at dead ends and filters

    def total(self) -> float:
        return sum(self.scores.values()) + self.absorbed


def metapath_score(graph: HetGraph, start_vertices, metapath: MetaPath) -> WalkResult:
    """Exact tour-probability sums for one meta-path from a uniform start."""
    starts = sorted(set(start_vertices))
    if not starts:
        raise ValueError("start_vertices must be nonempty")
    src_type = metapath.source_type
    for v in starts:
        have = graph.vertex_type.get(v)
        if have is None:
            raise ValueError(f"start vertex {v!r} not in graph")
        if src_type is not None and have != src_type:
            raise GraphSchemaError(
                f"start vertex {v!r} has type {have!r}, path needs {src_type!r}")

    mass = {v: 1.0 / len(starts) for v in starts}
    absorbed = 0.0
    for step in metapath.steps:
        new_mass: dict[str, float] = {}
        for v in sorted(mass):
            m = mass[v]
            targets = graph.out(v, step.edge)
            if step.oer_type is not None:
                targets = [t for t in targets if graph.payload[t] == step.oer_type]
            if not targets:
                absorbed += m
                continue
            share = m / len(targets)
            for t in targets:
                new_mass[t] = new_mass.get(t, 0.0) + share
        mass = new_mass
    return WalkResult({v: mass[v] for v in sorted(mass)}, absorbed)


# -- default meta-path templates -------------------------------------------

def default_metapaths() -> list[MetaPath]:
    """Twelve templates: three routes from a paper to an OER, crossed with
    the four terminal OER-type constraints."""
    paths = []
    for oer_type in [t.value for t in OerType]:
        paths.append(MetaPath((
            PathStep("about", "topic"), PathStep("related", "oer", oer_type))))
        paths.append(MetaPath((PathStep("resource", "oer", oer_type),)))
        paths.append(MetaPath((
            PathStep("about", "topic"), PathStep("covers", "paper"),
            PathStep("resource", "oer", oer_type))))
    return paths


# -- serialization ----------------------------------------------------------

def write_graph(graph: HetGraph, vertices_path, edges_path, meta: dict) -> None:
    write_tsv(vertices_path, ("id", "type", "payload"),
              ((v, graph.vertex_type[v], graph.payload[v]) for v in graph.vertices()),
              meta)
    write_tsv(edges_path, ("src", "edge_type", "dst"),
              ((src, etype, dst) for (src, etype) in sorted(graph._adj)
               for dst in sorted(graph._adj[(src, etype)])),
              meta)


def read_graph(vertices_path, edges_path) -> HetGraph:
    graph = HetGraph()
    read_tsv(vertices_path, 3, graph.add_vertex)
    read_tsv(edges_path, 3, graph.add_edge)
    return graph


def write_metapaths(paths: list[MetaPath], path, meta: dict) -> None:
    dump_json(Path(path), {"metapaths": [p.to_json() for p in paths]}, meta)


def read_metapaths(path) -> list[MetaPath]:
    """A JSON list of meta-paths, or an object whose "metapaths" is one. A
    malformed file fails with its path and the meta-path's index."""
    data = load_json(Path(path))
    if isinstance(data, dict):
        data = data.get("metapaths")
    if not isinstance(data, list):
        raise ValueError(f'{path}: expected a list of meta-paths or an object '
                         f'whose "metapaths" is one')
    paths = []
    for i, steps in enumerate(data):
        try:
            paths.append(MetaPath.from_json(steps))
        except ValueError as exc:
            raise ValueError(f"{path}: meta-path {i}: {exc}") from exc
    return paths
