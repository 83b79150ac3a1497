"""The accepted inputs: one declarative schema per document and one checker.

Model files, graph files, RunConfigs and each experiment's `params` are
checked here before any work runs.  The schemas use a small subset of JSON
Schema: `type` (a name or a list of names), `required`, `properties`,
`additionalProperties`, `enum`, `minimum`, `exclusiveMinimum`,
`exclusiveMaximum`, `items`, `minItems` and `maxItems`.  Two words are
stricter than in JSON Schema: an `integer` is a Python int that is not a
bool, so 8.0 is refused, and a `number` is a finite int or float that is not
a bool.  Rules that relate two fields stay with the code that reads them.
"""

from __future__ import annotations

import json
import math
import operator

from .errors import SchemaError

_TYPES = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "array": ("an array", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}
_BOUNDS = (("minimum", ">=", operator.ge), ("exclusiveMinimum", ">", operator.gt),
           ("exclusiveMaximum", "<", operator.lt))


def _names(schema: dict) -> list:
    names = schema.get("type", [])
    return [names] if isinstance(names, str) else names


def _expected(schema: dict) -> str:
    """What schema accepts, in words, such as 'an integer >= 2'."""
    if "enum" in schema:
        return "one of " + ", ".join(map(repr, schema["enum"]))
    bounds = " and ".join(f"{sign} {schema[key]!r}" for key, sign, _ in _BOUNDS if key in schema)
    lo, hi = schema.get("minItems"), schema.get("maxItems")
    if lo is None and hi is None:
        length = ""
    elif lo == hi:
        length = f"of length {lo}"
    else:
        length = " and ".join(f"{sign} {n}" for sign, n in ((">=", lo), ("<=", hi)) if n is not None)
        length = f"of length {length}"
    qualifier = {"integer": bounds, "number": bounds, "array": length}
    return " or ".join(f"{_TYPES[t][0]} {qualifier.get(t, '')}".rstrip() for t in _names(schema))


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def check(doc, schema: dict, where: str) -> None:
    """Raise SchemaError unless doc satisfies schema; where is doc's dotted path."""
    names = _names(schema)
    numeric = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    if (
        names and not any(_TYPES[t][1](doc) for t in names)
        or "enum" in schema and doc not in schema["enum"]
        or numeric and not all(op(doc, schema[key]) for key, _, op in _BOUNDS if key in schema)
        or isinstance(doc, list) and not schema.get("minItems", 0) <= len(doc) <= schema.get("maxItems", len(doc))
    ):
        raise SchemaError(f"{where or 'the document'} must be {_expected(schema)}, got {doc!r:.100}")
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            check(item, schema["items"], f"{where}[{i}]")
    if isinstance(doc, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in doc:
                raise SchemaError(f"{_at(where, key)} is required")
        extra = schema.get("additionalProperties", True)
        for key, value in doc.items():
            if key in props:
                check(value, props[key], _at(where, key))
            elif extra is False:
                raise SchemaError(f"unknown key {_at(where, key)}; expected one of {', '.join(props)}")
            elif extra is not True:
                check(value, extra, _at(where, key))


def read_json(path: str, what: str):
    """The JSON document in the file at path; a missing or malformed file is a SchemaError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what} file: {exc}") from exc


# ---------------------------------------------------------------- schemas


def _integer(least: int) -> dict:
    return {"type": "integer", "minimum": least}


def _closed(properties: dict, *required: str) -> dict:
    """An object with only the given keys."""
    return {"type": "object", "required": list(required), "properties": properties,
            "additionalProperties": False}


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_SEED = _integer(0)  # numpy seed sequences take non-negative integers only
_STRING = {"type": "string"}
_VERTICES = {"type": "array", "items": _integer(0)}

BUILDERS = ("torus", "folner", "random_perm")
METHODS = ("exact", "cycles", "mcmc")
# d for torus/folner, k for random_perm; m, n and size are the side length
# (torus/folner) or vertex count (random_perm), and every builder needs two
_BUILDER_SIZES = {"d": _integer(1), "k": _integer(1), "m": _integer(2), "n": _integer(2), "size": _integer(2)}
_BUILDER_DESC = _closed({"builder": {"enum": list(BUILDERS)}, **_BUILDER_SIZES, "seed": _SEED}, "builder")

MODEL = _closed({
    "group": {
        "type": "object",
        "required": ["kind"],
        "properties": {"kind": {"enum": ["Zd", "Free"]}, "d": _integer(1), "k": _integer(1)},
    },
    "alphabet": _integer(1),
    "relations": {
        "type": "object",
        "additionalProperties": {"type": "array", "items": {"type": "array", "items": {"type": "boolean"}}},
    },
    "vertex_log_weights": {"type": "array", "items": {"type": "number"}},
    "edge_log_weights": {
        "type": "object",
        "additionalProperties": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
    "sofic": {
        "type": "object",
        "required": ["builder"],
        "properties": {
            "builder": {"enum": list(BUILDERS)},
            "params": _closed(_BUILDER_SIZES),
            "seed": _SEED,
        },
    },
}, "group", "alphabet", "relations", "vertex_log_weights")

GRAPH = {
    "type": "object",
    "required": ["n", "edges"],
    "properties": {
        "n": _integer(1),
        "edges": {"type": "array", "items": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "integer"}}},
        "lambda": {"type": ["number", "array"], "exclusiveMinimum": 0, "items": _POSITIVE},
        "pins": {"type": "object", "properties": {"occupied": _VERTICES, "empty": _VERTICES}},
    },
}

MCMC = _closed({
    "grid_points": _integer(2),
    # partition_mcmc's standard error takes batch means over at least 4 batches
    "samples_per_point": _integer(4),
    "burn_frac": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
    "log_u_min": {"type": "number", "exclusiveMaximum": 0},
})

_SIZE_SWEEP = _closed({
    "sizes": {"type": "array", "minItems": 1, "items": _integer(2)},
    "method": {"enum": ["auto", *METHODS]},
    "builder_desc": _BUILDER_DESC,
    "mcmc": MCMC,
    "lambda": _POSITIVE,
}, "sizes")

# each experiment's params, under the experiment's name
PARAMS = {
    "pressure": _SIZE_SWEEP,
    "entropy": _SIZE_SWEEP,
    "tssm-check": _closed({"range": _integer(1), "radius": _integer(1), "kmax": _integer(1)}),
    "ssm-profile": _closed({"rmax": _integer(1), "lambda": _POSITIVE}),
    "kp-estimate": _closed({
        "r": _integer(1),
        "N": _integer(1),
        "nu": {"enum": ["fixed0", "mu"]},
        "past": {"enum": ["percolation", "lex"]},
        "oracle": {"enum": ["auto", "transfer", "ball", "saw"]},
        "saw_boundary": {"enum": ["free", "self_consistent"]},
        "pad": _integer(0),
        "N_inner": _integer(1),
        "M_outer": _integer(2),
        "lambda": _POSITIVE,
    }),
    "saw-marginal": _closed({"graph": _STRING, "root": _integer(0), "lambda": _POSITIVE}, "graph"),
    "sofic-stats": _closed({"builder": {"enum": list(BUILDERS)}, **_BUILDER_SIZES, "r": _integer(0)}, "builder"),
}

RUNCONFIG = _closed({
    "experiment": {"enum": list(PARAMS)},
    "model": _STRING,
    "graph": _STRING,
    "params": {"type": "object"},
    "seed": _SEED,
    "output": _STRING,
}, "experiment")
