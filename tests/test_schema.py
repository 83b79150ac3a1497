"""The input schemas: the checker, the documents it guards, and the inputs
that once crashed with an untyped exception or returned nan."""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from soficlab import cli, soficmaps
from soficlab.cli import main, run_config
from soficlab.errors import SchemaError
from soficlab.finitemodel import DerivedSpace, partition_mcmc, size_sweep
from soficlab.modelfile import hardcore_model_dict, parse_model
from soficlab.sampling import GlauberEngine
from soficlab.schema import check

ROOT = Path(__file__).resolve().parents[1]


def _run_exit(config: dict, tmp_path, capsys) -> tuple[int, dict]:
    """Exit code and stderr JSON of `soficlab run` on config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    return exc.value.code, json.loads(capsys.readouterr().err)


def _write(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- the checker


@pytest.mark.parametrize(
    "doc, schema, message",
    [
        (8.0, {"type": "integer", "minimum": 2}, "x must be an integer >= 2, got 8.0"),
        (True, {"type": "integer"}, "x must be an integer, got True"),
        (True, {"type": "number"}, "x must be a number, got True"),
        (float("nan"), {"type": "number"}, "x must be a number, got nan"),
        (float("-inf"), {"type": "number", "exclusiveMaximum": 0}, "x must be a number < 0, got -inf"),
        (1.0, {"type": "number", "minimum": 0, "exclusiveMaximum": 1}, "x must be a number >= 0 and < 1, got 1.0"),
        (0, {"type": ["number", "array"], "exclusiveMinimum": 0}, "x must be a number > 0 or an array, got 0"),
        ("b", {"enum": ["a"]}, "x must be one of 'a', got 'b'"),
        ([1], {"type": "array", "minItems": 2, "maxItems": 2}, "x must be an array of length 2, got [1]"),
        ([1, "2"], {"type": "array", "items": {"type": "integer"}}, "x[1] must be an integer, got '2'"),
        ({}, {"type": "object", "required": ["k"]}, "x.k is required"),
        ({"k": 1}, {"type": "object", "properties": {"j": {}}, "additionalProperties": False},
         "unknown key x.k; expected one of j"),
        ({"k": "1"}, {"type": "object", "additionalProperties": {"type": "integer"}}, "x.k must be an integer"),
    ],
)
def test_check_names_the_path_and_the_value(doc, schema, message):
    with pytest.raises(SchemaError) as exc:
        check(doc, schema, "x")
    assert message in str(exc.value)


def test_check_accepts_what_the_schema_allows():
    schema = {"type": "object", "required": ["n"], "properties": {
        "n": {"type": "integer", "minimum": 1},
        "lam": {"type": ["number", "array"], "exclusiveMinimum": 0, "items": {"type": "number"}},
        "kind": {"enum": ["a", "b"]}}}
    for doc in ({"n": 1}, {"n": 3, "lam": 0.5}, {"n": 3, "lam": [1, 2.5], "kind": "b", "other": None}):
        check(doc, schema, "doc")


def test_importing_the_cli_leaves_jsonschema_out():
    code = "import sys, soficlab.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- inputs that crashed


Z1 = hardcore_model_dict("Zd", 1, 1.0)
Z2 = hardcore_model_dict("Zd", 2, 1.0)
TORUS = {"builder": "torus", "d": 1}


@pytest.mark.parametrize(
    "model, experiment, params, key",
    [
        (Z1, "ssm-profile", {"rmax": -2}, "params.rmax"),
        (Z1, "pressure", {"sizes": [0], "builder_desc": TORUS}, "params.sizes[0]"),
        (Z1, "pressure", {"sizes": "8", "builder_desc": TORUS}, "params.sizes"),
        (Z1, "pressure", {"sizes": [8], "builder_desc": "torus"}, "params.builder_desc"),
        (Z2, "kp-estimate", {"r": 1, "N": 10, "oracle": "ball", "pad": -3}, "params.pad"),
        (None, "sofic-stats", {"builder": "torus", "d": 1, "m": 0}, "params.m"),
        ({**Z1, "group": {"kind": "Zd", "d": 1.0}}, "ssm-profile", {"rmax": 2}, "model.group.d"),
        ({**Z1, "alphabet": 2.0}, "ssm-profile", {"rmax": 2}, "model.alphabet"),
        (None, "saw-marginal", {"graph": {"n": 2, "edges": [[0, 1]], "lambda": -1}}, "graph.lambda"),
    ],
    ids=["rmax-negative", "sizes-zero", "sizes-string", "builder_desc-string", "pad-negative",
         "sofic-m-zero", "model-d-float", "model-alphabet-float", "graph-lambda-negative"],
)
def test_probe_inputs_exit_with_schema_error(model, experiment, params, key, tmp_path, capsys):
    config = {"experiment": experiment, "params": dict(params)}
    if model is not None:
        config["model"] = _write(tmp_path, "model.json", model)
    if "graph" in params:
        config["params"]["graph"] = _write(tmp_path, "graph.json", params["graph"])
    code, err = _run_exit(config, tmp_path, capsys)
    assert code == 2 and err["error"] == "SchemaError" and key in err["message"]


def _no_sweeps(*args, **kwargs):
    raise AssertionError("a sweep ran")


def test_partition_mcmc_checks_its_settings_before_any_sweep(monkeypatch):
    monkeypatch.setattr(GlauberEngine, "sweeps", _no_sweeps)
    model = parse_model(Z1)
    space = DerivedSpace(soficmaps.build_torus(1, 8), model.structure, model.potential)
    with pytest.raises(SchemaError, match="params.mcmc.samples_per_point"):
        partition_mcmc(space, seed=0, grid_points=5, samples_per_point=2)


@pytest.mark.parametrize("experiment", ["pressure", "entropy"])
def test_estimators_check_mcmc_kwargs_whatever_the_route(experiment):
    model = parse_model(Z1)
    with pytest.raises(SchemaError, match="params.mcmc.grid_points"):
        size_sweep(experiment, model.structure, model.potential, TORUS, [8], method="cycles",
                   mcmc_kwargs={"grid_points": 1})


# ---------------------------------------------------------------- files


@pytest.mark.parametrize("text", [None, "{not json", "\x00\xff"], ids=["missing", "malformed", "binary"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_unreadable_runconfig_is_schema_error(command, text, tmp_path, capsys):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_bytes(text.encode("latin-1"))
    with pytest.raises(SystemExit) as exc:
        main([command, str(path)] + ([str(path)] if command == "compare" else []))
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and "cannot read RunConfig file" in err["message"]


@pytest.mark.parametrize("what", ["model", "graph"])
def test_unreadable_model_or_graph_is_schema_error(what, tmp_path, capsys):
    config = {"experiment": "ssm-profile" if what == "model" else "saw-marginal",
              what: str(tmp_path / "absent.json")}
    code, err = _run_exit(config, tmp_path, capsys)
    assert code == 2 and f"cannot read {what} file" in err["message"]


C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}


@pytest.mark.parametrize(
    "graph, params, message",
    [
        ({**C4, "lambda": -1.0}, {}, "graph.lambda"),
        ({**C4, "lambda": 0}, {}, "graph.lambda"),
        ({**C4, "lambda": [1.0, 1.0, 0.0, 1.0]}, {}, "graph.lambda[2]"),
        ({**C4, "lambda": [1.0, 1.0, 1.0]}, {}, "graph.lambda"),
        ({**C4, "lambda": [1.0] * 5}, {}, "graph.lambda"),
        ({**C4, "pins": {"occupied": [4]}}, {}, "graph.pins.occupied"),
        ({**C4, "pins": {"empty": [-1]}}, {}, "graph.pins.empty"),
        (C4, {"root": 4}, "params.root"),
        (C4, {"root": -1}, "params.root"),
        (C4, {"lambda": -2.0}, "params.lambda"),
        ({"n": 3, "edges": [[0, 1], [1, 2]], "pins": {"occupied": [1], "empty": [1]}}, {},
         "graph.pins holds vertex 1 in both occupied and empty"),
    ],
    ids=["lambda-negative", "lambda-zero", "lambda-entry-zero", "lambda-short", "lambda-long",
         "pin-occupied-past-n", "pin-empty-negative", "root-past-n", "root-negative", "params-lambda-negative",
         "pin-both-occupied-and-empty"],
)
def test_saw_marginal_bad_graph_is_schema_error(graph, params, message, tmp_path, capsys):
    config = {"experiment": "saw-marginal", "graph": _write(tmp_path, "graph.json", graph), "params": params}
    code, err = _run_exit(config, tmp_path, capsys)
    assert code == 2 and err["error"] == "SchemaError" and message in err["message"]


def _ssm(**model) -> dict:
    """An ssm-profile RunConfig on the Z^1 hardcore model with the given model keys replaced."""
    return {"experiment": "ssm-profile", "params": {"rmax": 2}, "model": {**Z1, **model}}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"experiment": "kp-estimate", "params": {"r": 2, "N": 10, "N_outer": 3}}, "params.N_outer"),
        ({"experiment": "ssm-profile", "params": {"rmax": 2, "radius": 3}}, "params.radius"),
        ({"experiment": "pressure", "params": {"sizes": [8], "builder_desc": {**TORUS, "m": 8, "seed": 0, "dim": 1}}},
         "params.builder_desc.dim"),
        ({"experiment": "tssm-check", "params": {"range": 3, "radius": 2}}, "params.range"),
        ({"experiment": "pressure", "params": {"sizes": [8], "builder_desc": {"builder": "torus", "d": 2}}},
         "generators"),
        ({"experiment": "ssm-profile", "params": {"rmax": 2, "lambda": None}}, "params.lambda"),
        ({"experiment": "ssm-profile", "params": {"rmax": 2}, "sead": 3}, "unknown key sead"),
        (_ssm(edge_log_weight={"e1": [[0.0, 0.0], [0.0, 0.5]]}), "unknown key model.edge_log_weight"),
        (_ssm(relations={**Z1["relations"], "e2": [[True, True], [True, True]]}),
         "model.relations.e2 names no generator of the group; its generators are e1"),
        (_ssm(edge_log_weights={"a": [[0.0, 0.0], [0.0, 0.5]]}),
         "model.edge_log_weights.a names no generator of the group; its generators are e1"),
    ],
    ids=["unknown-kp-key", "unknown-ssm-key", "unknown-builder-key", "range-past-radius",
         "builder-generators", "lambda-null", "unknown-runconfig-key", "unknown-model-key",
         "relation-off-the-group", "edge-weights-off-the-group"],
)
def test_params_refuse_unknown_keys_and_mismatches(config, message, tmp_path, capsys):
    config = {**config, "model": _write(tmp_path, "model.json", config.get("model", Z1))}
    code, err = _run_exit(config, tmp_path, capsys)
    assert code == 2 and err["error"] == "SchemaError" and message in err["message"]


def test_sofic_stats_needs_a_size():
    with pytest.raises(SchemaError, match="params.m, params.n or params.size"):
        run_config({"experiment": "sofic-stats", "params": {"builder": "torus", "d": 1}})


# ---------------------------------------------------------------- mutations of valid documents


def _perfbench_workloads() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return WORKLOADS


def _readme_examples() -> tuple[dict, dict]:
    """The README's model file and RunConfig examples."""
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)]
    (model,) = [b for b in blocks if "group" in b]
    (config,) = [b for b in blocks if "experiment" in b]
    return model, config


def _corpus() -> list[tuple[str, dict]]:
    """(name, {"config": RunConfig without its model path, "model": model dict}) pairs."""
    docs = [(name, {"config": w.config("", 1), "model": w.model}) for name, w in _perfbench_workloads().items()]
    model, config = _readme_examples()
    return docs + [("readme", {"config": config, "model": model})]


CORPUS = _corpus()
# keys a document cannot run without, wherever they sit ("*" is any key)
REQUIRED = {
    ("config", "experiment"), ("config", "model"), ("config", "params", "sizes"),
    ("config", "params", "builder_desc", "builder"), ("model", "group"), ("model", "group", "kind"),
    ("model", "group", "d"), ("model", "group", "k"), ("model", "alphabet"), ("model", "relations"),
    ("model", "relations", "*"), ("model", "vertex_log_weights"), ("model", "sofic", "builder"),
}


def _sites(node, path=()):
    """Every (path, value) below node; list positions are ints in the path."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _sites(value, path + (key,))


def _mutations(path, value) -> list:
    """Replacements of the value at path that no schema accepts; None drops the key."""
    if isinstance(value, bool):
        out = [1, "x"]
    elif isinstance(value, int):
        out = [True, float(value), -1, math.nan, math.inf, -math.inf, "7"]
    elif isinstance(value, float):
        out = [True, math.nan, math.inf, -math.inf, "x"]
    elif isinstance(value, str):
        out = ["nope", 7]
    elif isinstance(value, list):
        out = [{}, []]
    else:
        out = [[]]
    named = tuple("*" if path[:2] == ("model", "relations") and i == 2 else k for i, k in enumerate(path))
    if named in REQUIRED:
        out.append(None)
    return out


class Reached(Exception):
    """The run got past every check to the experiment's work."""


def _run_checked(doc: dict, model_path: Path) -> dict:
    """run_config on doc with every experiment's work replaced by Reached."""
    def reached(*args, **kwargs):
        raise Reached
    model_path.write_text(json.dumps(doc["model"]))
    config = dict(doc["config"])
    if "model" in config and config["model"] in ("", "hardcore.json"):
        config["model"] = str(model_path)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("size_sweep", "ssm_profile", "make_oracle"):
            mp.setattr(cli, name, reached)
        return run_config(config)


@pytest.mark.parametrize("name, doc", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_documents_pass_every_check(name, doc, tmp_path):
    with pytest.raises(Reached):
        _run_checked(doc, tmp_path / "model.json")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_every_mutation_of_a_valid_document_is_schema_error(tmp_path_factory, data):
    name, doc = data.draw(st.sampled_from(CORPUS), label="document")
    path, value = data.draw(st.sampled_from(list(_sites(doc))), label="site")
    replacement = data.draw(st.sampled_from(_mutations(path, value)), label="replacement")
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if replacement is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    with pytest.raises(SchemaError):
        _run_checked(mutated, tmp_path_factory.getbasetemp() / "mutated_model.json")
