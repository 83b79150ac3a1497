"""Model-file loading and validation.

A model file bundles the group, the constraint structure, the potential, and
optionally a sofic-builder block:

    {
      "group": {"kind": "Zd", "d": 1},
      "alphabet": 2,
      "relations": {"e1": [[true, true], [true, false]]},
      "vertex_log_weights": [0.0, 0.6931471805599453],
      "edge_log_weights": {"e1": [[0.0, 0.0], [0.0, 0.0]]},
      "sofic": {"builder": "torus", "params": {"d": 1, "m": 64}, "seed": 0}
    }

Relations are keyed by generator name (e1..ed for Z^d, a/b/c.. for free
groups); omitted edge_log_weights default to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintStructure, Potential
from .errors import SchemaError
from .groups import GroupSpec, free, zd
from .schema import GRAPH, MODEL, check, read_json


@dataclass
class Model:
    spec: GroupSpec
    structure: ConstraintStructure
    potential: Potential
    sofic: dict | None
    raw: dict


def parse_model(data: dict) -> Model:
    check(data, MODEL, "model")
    g = data["group"]
    if g["kind"] == "Zd":
        if "d" not in g:
            raise SchemaError("Zd group needs field d")
        spec = zd(g["d"])
    else:
        if "k" not in g:
            raise SchemaError("Free group needs field k")
        spec = free(g["k"])
    a = data["alphabet"]

    def square(rows, what):
        # shapes are checked before numpy sees the rows: a ragged list is no array
        if len(rows) != a or any(len(row) != a for row in rows):
            raise SchemaError(f"{what} must be {a}x{a}")
        return rows

    names = spec.generator_names()
    for name in names:
        if name not in data["relations"]:
            raise SchemaError(f"relations missing generator {name!r}")
    for field in ("relations", "edge_log_weights"):
        for key in data.get(field, {}):
            if key not in names:
                raise SchemaError(f"model.{field}.{key} names no generator of the group; "
                                  f"its generators are {', '.join(names)}")
    allowed = np.array([square(data["relations"][name], f"relation {name!r}") for name in names], dtype=bool)
    h = np.asarray(data["vertex_log_weights"], dtype=float)
    if h.shape != (a,):
        raise SchemaError("vertex_log_weights length must equal alphabet")
    edge = data.get("edge_log_weights", {})
    J = np.array([square(edge[name], f"edge_log_weights {name!r}") if name in edge else np.zeros((a, a))
                  for name in names], dtype=float)
    try:
        structure = ConstraintStructure(a, allowed)
        potential = Potential(h, J)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return Model(spec, structure, potential, data.get("sofic"), data)


def load_model(path: str) -> Model:
    return parse_model(read_json(path, "model"))


def hardcore_model_dict(kind: str, rank: int, lam: float) -> dict:
    """Model-file dict for the hardcore model with activity lam."""
    spec = zd(rank) if kind == "Zd" else free(rank)
    names = spec.generator_names()
    rel = [[True, True], [True, False]]
    return {
        "group": {"kind": kind, ("d" if kind == "Zd" else "k"): rank},
        "alphabet": 2,
        "relations": {n: rel for n in names},
        "vertex_log_weights": [0.0, math.log(lam)],
    }


def load_graph(path: str):
    """Finite graph file for saw-marginal: adjacency, activity, pins."""
    data = read_json(path, "graph")
    check(data, GRAPH, "graph")
    n = data["n"]
    adj = [set() for _ in range(n)]
    for u, v in data["edges"]:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise SchemaError(f"bad edge [{u}, {v}]")
        adj[u].add(v)
        adj[v].add(u)
    lam = data.get("lambda", 1.0)
    if isinstance(lam, list) and len(lam) != n:
        raise SchemaError(f"graph.lambda must have one entry per vertex, n = {n}, got {len(lam)}")
    pins = {}
    for value, key in ((1, "occupied"), (0, "empty")):
        for v in data.get("pins", {}).get(key, []):
            if v >= n:
                raise SchemaError(f"graph.pins.{key} holds vertex {v}, outside [0, {n})")
            if pins.get(v, value) != value:
                raise SchemaError(f"graph.pins holds vertex {v} in both occupied and empty")
            pins[v] = value
    return [sorted(s) for s in adj], lam, pins
