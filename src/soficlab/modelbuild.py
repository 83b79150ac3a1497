"""Sofic-map construction from descriptor dicts (shared by CLI and estimators)."""

from __future__ import annotations

from .errors import SchemaError
from .soficmaps import SoficMap, build_folner_box, build_random_perm, build_torus


def build_sofic(desc: dict, seed: int = 0) -> SoficMap:
    builder = desc.get("builder")
    size = int(desc.get("size", desc.get("m", desc.get("n", 0))))
    if builder == "torus":
        return build_torus(int(desc.get("d", 1)), size)
    if builder == "folner":
        return build_folner_box(int(desc.get("d", 1)), size)
    if builder == "random_perm":
        return build_random_perm(int(desc.get("k", 1)), size, int(desc.get("seed", seed)))
    raise SchemaError(f"unknown builder {builder!r}; expected torus, folner or random_perm")
