"""Sofic-map construction from descriptor dicts (shared by CLI and estimators)."""

from __future__ import annotations

from .errors import SchemaError
from .soficmaps import SoficMap, build_folner_box, build_random_perm, build_torus


def builder_generators(desc: dict) -> int:
    """The generator count of the maps a builder makes: k for random_perm, d otherwise."""
    return int(desc.get("k" if desc.get("builder") == "random_perm" else "d", 1))


def build_sofic(desc: dict, seed: int = 0) -> SoficMap:
    builder = desc.get("builder")
    size = int(desc.get("size", desc.get("m", desc.get("n", 0))))
    if builder == "torus":
        return build_torus(builder_generators(desc), size)
    if builder == "folner":
        return build_folner_box(builder_generators(desc), size)
    if builder == "random_perm":
        return build_random_perm(builder_generators(desc), size, int(desc.get("seed", seed)))
    raise SchemaError(f"unknown builder {builder!r}; expected torus, folner or random_perm")
