import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from soficlab import cli, enumeration, finitemodel, kernels, sampling, soficmaps, transfer
from soficlab.cli import (
    compare_configs,
    main,
    main_entropy,
    main_kp_estimate,
    main_pressure,
    main_saw_marginal,
    main_sofic_stats,
    main_ssm_profile,
    main_tssm_check,
    run_config,
)
from soficlab.constraints import Potential, hardcore
from soficlab.modelfile import hardcore_model_dict, load_model, parse_model
from soficlab.errors import CapExceededError, SchemaError, SoficLabError
from soficlab.sampling import GlauberEngine

import reference
from oracles import golden_pressure


@pytest.fixture
def hc_model(tmp_path):
    path = tmp_path / "hardcore.json"
    path.write_text(json.dumps(hardcore_model_dict("Zd", 1, 1.0)))
    return str(path)


@pytest.fixture
def cb_model(tmp_path):
    data = {
        "group": {"kind": "Zd", "d": 1},
        "alphabet": 2,
        "relations": {"e1": [[False, True], [True, False]]},
        "vertex_log_weights": [0.0, 0.0],
    }
    path = tmp_path / "checkerboard.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_model_roundtrip(hc_model):
    model = load_model(hc_model)
    assert model.spec.rank == 1 and model.structure.alphabet == 2
    assert model.potential.h[1] == pytest.approx(0.0)


def test_model_schema_errors():
    with pytest.raises(SchemaError):
        parse_model({"group": {"kind": "Zd", "d": 1}, "alphabet": 2})
    with pytest.raises(SchemaError):
        parse_model(
            {
                "group": {"kind": "Zd", "d": 1},
                "alphabet": 2,
                "relations": {"e1": [[True]]},
                "vertex_log_weights": [0, 0],
            }
        )


def test_malformed_model_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main_tssm_check(["--model", str(bad)])
    assert exc.value.code == 2
    assert "SchemaError" in capsys.readouterr().err


def test_readme_exit_codes_are_the_error_classes():
    """The README's exit-code table lists exactly the SoficLabError classes,
    each with its exit_code."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("| exit | error | meaning |"):].split("\n\n")[0]
    listed = {name: int(code) for code, name in re.findall(r"^\| (\d+) \| `(\w+)` \|", table, re.M)}

    def classes(cls):
        return [cls, *(c for sub in cls.__subclasses__() for c in classes(sub))]

    assert listed == {cls.__name__: cls.exit_code for cls in classes(SoficLabError)}


def test_pressure_csv(hc_model, tmp_path):
    out = tmp_path / "pressure.csv"
    main_pressure(
        ["--model", hc_model, "--builder", "torus", "--d", "1", "--sizes", "8,16,64", "--out", str(out)]
    )
    rows = list(csv.DictReader(out.open()))
    assert [r["n"] for r in rows] == ["8", "16", "64"]
    assert abs(float(rows[-1]["pressure_estimate"]) - golden_pressure()) < 1e-6
    assert rows[0]["method"] == "cycle_decomposition"


def test_pressure_uses_model_sofic_block(tmp_path, capsys):
    data = hardcore_model_dict("Zd", 1, 1.0)
    data["sofic"] = {"builder": "torus", "params": {"d": 1}, "seed": 0}
    path = tmp_path / "with_builder.json"
    path.write_text(json.dumps(data))
    main_pressure(["--model", str(path), "--sizes", "16"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("16,")


def test_tssm_check_outputs(hc_model, cb_model, tmp_path, capsys):
    main_tssm_check(["--model", hc_model])
    out = json.loads(capsys.readouterr().out)
    assert out["outputs"]["kind"] == "safe_symbol"
    main_tssm_check(["--model", cb_model, "--radius", "2", "--kmax", "2"])
    out2 = json.loads(capsys.readouterr().out)
    assert out2["outputs"]["kind"] == "violated"
    assert "witness" in out2["outputs"]


def test_ssm_profile_csv(hc_model, capsys):
    main_ssm_profile(["--model", hc_model, "--rmax", "5"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,beta_hat"
    betas = [float(l.split(",")[1]) for l in lines[1:]]
    assert betas == sorted(betas, reverse=True)


def test_ssm_profile_periodic_line(cb_model, capsys):
    """The checkerboard line: boundaries of zero mass are skipped, and the
    center is a function of the boundary at every radius."""
    main_ssm_profile(["--model", cb_model, "--rmax", "4"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert [float(l.split(",")[1]) for l in lines[1:]] == [1.0] * 4


def test_kp_estimate_json(hc_model, capsys):
    main_kp_estimate(
        ["--model", hc_model, "--lambda", "1.0", "--oracle", "transfer", "--r", "10",
         "--N", "20000", "--nu", "fixed0", "--seed", "7"]
    )
    out = json.loads(capsys.readouterr().out)["outputs"]
    for key in ("value", "stderr", "r", "N", "oracle", "budget_beta", "budget_c"):
        assert key in out
    assert abs(out["value"] - golden_pressure()) < 3 * out["stderr"] + out["budget_total"] + 1e-3


def test_saw_marginal_cli(tmp_path, capsys):
    g = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
         "pins": {"empty": [2]}}
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(g))
    main_saw_marginal(["--graph", str(path), "--root", "0", "--lambda", "1.0"])
    out = json.loads(capsys.readouterr().out)["outputs"]
    # C4 with vertex 2 removed is a path 3-0-1; occupation of its center
    assert out["p_occupied"] == pytest.approx(1 / 5, abs=1e-12)


def test_sofic_stats_cli(capsys):
    main_sofic_stats(["--builder", "torus", "--d", "2", "--m", "16", "--r", "3"])
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["fraction"] == 1.0
    assert out["multiplicative_defect"] == 0.0


def test_run_config_and_determinism(hc_model):
    config = {
        "experiment": "kp-estimate",
        "model": hc_model,
        "params": {"r": 8, "N": 5000, "oracle": "transfer"},
        "seed": 3,
    }
    a = run_config(config)
    b = run_config(config)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_kp_estimate_auto_on_free_hardcore_is_the_saw_record(tmp_path):
    model_path = tmp_path / "f2.json"
    model_path.write_text(json.dumps(hardcore_model_dict("Free", 2, 0.3)))
    config = {"experiment": "kp-estimate", "model": str(model_path), "params": {"r": 3, "N": 100}}
    auto = run_config(config)["outputs"]
    saw = run_config({**config, "params": {**config["params"], "oracle": "saw"}})["outputs"]
    assert auto["oracle"] == "saw" and auto == saw


def test_run_config_schema_error(hc_model):
    with pytest.raises(SchemaError):
        run_config({"experiment": "nope", "model": hc_model})


def test_compare_torus_vs_folner(hc_model):
    base = {
        "experiment": "pressure",
        "model": hc_model,
        "params": {"sizes": [64], "method": "exact"},
        "seed": 0,
    }
    ca = {**base, "params": {**base["params"], "builder_desc": {"builder": "torus", "d": 1}, "method": "cycles"}}
    cb = {**base, "params": {**base["params"], "builder_desc": {"builder": "folner", "d": 1}, "method": "exact"}}
    cb["params"]["sizes"] = [18]
    cb["params"]["method"] = "exact"
    result = compare_configs(ca, cb, tolerance=1e-2)
    assert result["verdict"] == "PASS"
    assert "arithmetic" in result


def test_compare_identical_configs(hc_model):
    config = {
        "experiment": "pressure",
        "model": hc_model,
        "params": {"sizes": [32], "builder_desc": {"builder": "torus", "d": 1}},
        "seed": 1,
    }
    result = compare_configs(config, dict(config), tolerance=0.0)
    assert result["verdict"] == "PASS" and result["difference"] == 0.0


def test_umbrella_run_and_compare(tmp_path, hc_model, capsys):
    cfg = {"experiment": "ssm-profile", "model": hc_model, "params": {"rmax": 3}}
    p1 = tmp_path / "a.json"
    p1.write_text(json.dumps(cfg))
    main(["run", str(p1)])
    out = json.loads(capsys.readouterr().out)
    assert out["experiment"] == "ssm-profile" and len(out["outputs"]) == 3

    pa = tmp_path / "ca.json"
    pb = tmp_path / "cb.json"
    pressure_cfg = {
        "experiment": "pressure",
        "model": hc_model,
        "params": {"sizes": [16], "builder_desc": {"builder": "torus", "d": 1}},
    }
    pa.write_text(json.dumps(pressure_cfg))
    pb.write_text(json.dumps(pressure_cfg))
    main(["compare", str(pa), str(pb), "--tolerance", "1e-9"])
    out2 = json.loads(capsys.readouterr().out)
    assert out2["outputs"]["verdict"] == "PASS"


@pytest.fixture
def c4_graph(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "pins": {"empty": [2]}}))
    return str(path)


CONSOLE_RUNS = {
    "sofic-stats": (main_sofic_stats, ["--builder", "random_perm", "--k", "2", "--m", "40", "--r", "1", "--seed", "3"]),
    "tssm-check": (main_tssm_check, ["--model", "{model}", "--radius", "2", "--kmax", "2"]),
    "pressure": (main_pressure, ["--model", "{model}", "--builder", "torus", "--sizes", "8,16", "--lambda", "2.0", "--json"]),
    "entropy": (main_entropy, ["--model", "{model}", "--builder", "random_perm", "--sizes", "10", "--seed", "4", "--json"]),
    "ssm-profile": (main_ssm_profile, ["--model", "{model}", "--rmax", "3", "--lambda", "0.5", "--json"]),
    "kp-estimate": (main_kp_estimate, ["--model", "{model}", "--oracle", "transfer", "--r", "6", "--N", "2000", "--seed", "5"]),
    "saw-marginal": (main_saw_marginal, ["--graph", "{graph}", "--lambda", "1.5"]),
}


@pytest.mark.parametrize("experiment", sorted(CONSOLE_RUNS))
def test_console_record_replays_through_run_config(experiment, hc_model, c4_graph, capsys):
    """Every console script's record holds the RunConfig that reproduces it."""
    main_fn, argv = CONSOLE_RUNS[experiment]
    main_fn([a.format(model=hc_model, graph=c4_graph) for a in argv])
    record = json.loads(capsys.readouterr().out)
    assert record["inputs"]["experiment"] == experiment
    replay = run_config(record["inputs"])
    # compare through JSON, the form the console record was written in
    assert json.loads(json.dumps(replay["outputs"])) == record["outputs"]


@pytest.mark.parametrize(
    "params, experiment",
    [
        ({"sizes": [8], "builder_desc": {"builder": "torus", "d": 1}, "method": "nope"}, "pressure"),
        ({"sizes": [8], "builder_desc": {"builder": "torus", "d": 1}, "method": "nope"}, "entropy"),
        ({"sizes": [8], "builder_desc": {"builder": "nope", "d": 1}}, "pressure"),
        ({"r": 4, "N": 100, "oracle": "nope"}, "kp-estimate"),
        ({"r": 4, "N": 100, "oracle": "saw", "saw_boundary": "nope"}, "kp-estimate"),
        ({"r": 4, "N": 100, "oracle": "transfer", "past": "nope"}, "kp-estimate"),
        ({"r": 4, "N": 100, "oracle": "transfer", "nu": "nope"}, "kp-estimate"),
        ({"sizes": [8], "builder_desc": {"builder": "torus", "d": 1}, "method": "transfer"}, "pressure"),
        ({"sizes": [8], "builder_desc": {"builder": "torus", "d": 1}, "method": "transfer"}, "entropy"),
        ({"sizes": [4], "builder_desc": {"builder": "torus", "d": 2}, "method": "cycles"}, "pressure"),
        ({"sizes": [4], "builder_desc": {"builder": "torus", "d": 2}, "method": "cycles"}, "entropy"),
    ],
)
def test_run_unknown_name_is_schema_error(params, experiment, tmp_path, capsys, monkeypatch):
    """A refused input is a SchemaError (exit 2) before any size runs, and its
    message names what was refused: the name "nope", the method transfer, or
    the generator count of a builder that method cycles cannot take."""
    monkeypatch.setattr(finitemodel, "build_sofic", _no_build)
    d = params.get("builder_desc", {}).get("d", 1)
    model = tmp_path / "hardcore.json"
    model.write_text(json.dumps(hardcore_model_dict("Zd", d, 1.0)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": experiment, "model": str(model), "params": params}))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    named = {"transfer": "'transfer'", "cycles": f"makes {d} generators"}.get(params.get("method"), "nope")
    assert err["error"] == "SchemaError" and named in err["message"]


def _no_build(*args, **kwargs):
    raise AssertionError("a refused input built a sofic map")


@pytest.mark.parametrize(
    "experiment, params, missing",
    [
        ("saw-marginal", {}, "graph"),
        ("pressure", {"builder_desc": {"builder": "torus", "d": 1}}, "sizes"),
        ("entropy", {"builder_desc": {"builder": "torus", "d": 1}}, "sizes"),
        ("sofic-stats", {"d": 1, "m": 8}, "builder"),
    ],
)
def test_run_missing_param_is_schema_error(experiment, params, missing, hc_model, tmp_path, capsys):
    config = {"experiment": experiment, "params": params}
    if experiment in ("pressure", "entropy"):
        config["model"] = hc_model
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and f"params.{missing}" in err["message"]


@pytest.mark.parametrize(
    "params, message",
    [
        ({"nu": "mu", "N": 1000, "N_inner": 0}, "params.N_inner"),
        ({"nu": "mu", "N": 1000, "N_inner": -5}, "params.N_inner"),
        ({"nu": "mu", "N": 150, "N_inner": 100}, "M_outer"),
        ({"nu": "mu", "N": 1000, "N_inner": 10, "M_outer": 1}, "M_outer"),
        ({"nu": "fixed0", "N": 0}, "params.N"),
        ({"nu": "fixed0", "N": 1}, "params.N"),
        ({"r": 0, "N": 100}, "params.r"),
        ({"r": -1, "N": 100}, "params.r"),
    ],
    ids=["N_inner-zero", "N_inner-negative", "N-below-two-N_inner", "M_outer-one", "fixed0-N-zero",
         "fixed0-N-one", "r-zero", "r-negative"],
)
def test_kp_estimate_sample_size_is_schema_error(params, message, hc_model, tmp_path, capsys):
    """Sample sizes that would divide by zero or leave no standard error."""
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps({"experiment": "kp-estimate", "model": hc_model,
                                "params": {"r": 4, "oracle": "transfer", **params}}))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and message in err["message"]


def test_run_without_model_is_schema_error():
    with pytest.raises(SchemaError, match="needs a model"):
        run_config({"experiment": "ssm-profile", "params": {"rmax": 2}})


def test_entropy_config_passes_mcmc_block(hc_model):
    block = {"grid_points": 5, "samples_per_point": 40}
    builder = {"builder": "torus", "d": 1}
    record = run_config({
        "experiment": "entropy",
        "model": hc_model,
        "params": {"builder_desc": builder, "sizes": [8], "method": "mcmc", "mcmc": block},
        "seed": 2,
    })
    model = load_model(hc_model)
    direct = finitemodel.size_sweep("entropy", model.structure, model.potential, builder, [8], method="mcmc",
                                    seed=2, mcmc_kwargs=block)
    assert record["outputs"] == direct


@pytest.mark.parametrize("experiment", ["pressure", "entropy"])
@pytest.mark.parametrize(
    "block, message",
    [
        ({"samples_per_point": 2}, "params.mcmc.samples_per_point"),
        ({"samples_per_point": 0}, "params.mcmc.samples_per_point"),
        ({"grid_points": 1}, "params.mcmc.grid_points"),
        ({"samples": 100}, "params.mcmc.samples"),
        ({"grid_points": "8"}, "params.mcmc.grid_points"),
        ({"grid_points": 8.0}, "params.mcmc.grid_points"),
        ({"burn_frac": 1.0}, "params.mcmc.burn_frac"),
        ({"burn_frac": -0.1}, "params.mcmc.burn_frac"),
        ({"log_u_min": 0.0}, "params.mcmc.log_u_min"),
        ({"log_u_min": float("-inf")}, "params.mcmc.log_u_min"),
    ],
    ids=["samples-two", "samples-zero", "grid-one", "unknown-key", "grid-string", "grid-float",
         "burn-one", "burn-negative", "log_u_min-zero", "log_u_min-infinite"],
)
def test_bad_mcmc_block_is_schema_error_before_any_sweep(block, message, experiment, hc_model,
                                                         monkeypatch):
    def no_sweeps(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(GlauberEngine, "sweeps", no_sweeps)
    with pytest.raises(SchemaError, match=message) as exc:
        run_config({"experiment": experiment, "model": hc_model, "params": {
            "builder_desc": {"builder": "torus", "d": 1}, "sizes": [8], "method": "mcmc",
            "mcmc": {"grid_points": 5, "samples_per_point": 40, **block}}})
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("main_fn,args", [
    (main_pressure, ["--builder", "torus", "--sizes", "16"]),
    (main_ssm_profile, []),
    (main_kp_estimate, []),
], ids=["pressure", "ssm-profile", "kp-estimate"])
def test_overflowing_rank1_weight_is_schema_error(main_fn, args, tmp_path, capsys):
    """A Z^1 hardcore model with vertex_log_weights [0, 1000] passes the
    schema, but its transfer matrix entry e^1000 is no float: pressure,
    ssm-profile and kp-estimate once each ended in numpy's LinAlgError
    "Array must not contain infs or NaNs".  Each now exits 2 with a
    SchemaError that names the weight, raised before any exponential."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({**hardcore_model_dict("Zd", 1, 1.0), "vertex_log_weights": [0.0, 1000.0]}))
    with pytest.raises(SystemExit) as exc:
        main_fn(["--model", str(path), *args])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert err["message"].startswith("the weight h(1) + J(0, 1) = 1000.0 ")


def test_largest_rank1_weight_records_are_pinned(tmp_path):
    """At vertex_log_weights [0, 709], the largest whole weight below
    log(float max), the three rank-1 routes answer, with the figures
    recorded before weights past log(float max) were refused."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({**hardcore_model_dict("Zd", 1, 1.0), "vertex_log_weights": [0.0, 709.0]}))

    def outputs(experiment, params, seed=0):
        return run_config({"experiment": experiment, "model": str(path), "seed": seed, "params": params})["outputs"]

    pressure = outputs("pressure", {"builder_desc": {"builder": "torus", "d": 1}, "sizes": [8], "method": "cycles"})
    assert pressure[0]["log_Z"] == 2836.69314718056
    assert outputs("ssm-profile", {"rmax": 3}) == [{"r": r, "beta_hat": 1.0} for r in (1, 2, 3)]
    kp = outputs("kp-estimate", {"oracle": "transfer", "r": 4, "N": 500}, seed=1)
    assert (kp["value"], kp["stderr"]) == (333.3823381198522, 14.944114973402883)


@pytest.mark.parametrize("main_fn, args", [
    (main_kp_estimate, ["--r", "3000", "--N", "10"]),
    (main_ssm_profile, ["--rmax", "3000"]),
], ids=["kp-estimate", "ssm-profile"])
def test_transfer_tables_past_the_cap_exit_3_at_once(main_fn, args, hc_model, monkeypatch, capsys):
    """The transfer tables hold a^3 (R+1)^2 doubles: at r = 3000 on Z^1
    hardcore that is 2^3 3001^2, past enumeration.ELIMINATION_TABLE_CAP,
    and both routes to them exit 3 before the Perron pair they are built
    from is read.  The largest radius that fits on two symbols is 2,895."""
    def no_tables(self):
        raise AssertionError("the transfer tables were built")

    monkeypatch.setattr(transfer.TransferMatrix, "perron", no_tables)
    with pytest.raises(SystemExit) as exc:
        main_fn(["--model", hc_model, *args])
    assert exc.value.code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CapExceededError" and "transfer tables" in err["message"]


def test_a_window_table_past_the_cap_exits_3_before_any_allocation(tmp_path, monkeypatch, capsys):
    """Proper 5-colourings have no safe symbol, so the exact route adds a
    window factor over the 17 sites of B_2 of F_2 at each window-good
    vertex: 5^17 doubles, which ended in numpy's untyped MemoryError
    (exit 1) on the random_perm map at n = 24, seed 3.  It exits 3 before
    the windows are searched, with no large allocation."""
    path = tmp_path / "colours5.json"
    path.write_text(json.dumps({"group": {"kind": "Free", "k": 2}, "alphabet": 5,
                                "relations": {g: (~np.eye(5, dtype=bool)).tolist() for g in "ab"},
                                "vertex_log_weights": [0.0] * 5}))
    monkeypatch.setattr(finitemodel.DerivedSpace, "_admissible_windows",
                        property(lambda self: pytest.fail("the windows were searched")))
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main_pressure(["--model", str(path), "--builder", "random_perm", "--k", "2", "--sizes", "24",
                           "--seed", "3", "--method", "exact", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CapExceededError" and "5^17" in err["message"]
    assert peak < 2**24  # 16 MiB


@pytest.mark.parametrize("main_fn, model, args", [
    (main_pressure, ("Zd", 2), ["--builder", "torus", "--d", "2", "--sizes", "4", "--method", "exact", "--json"]),
    (main_entropy, ("Free", 2), ["--builder", "random_perm", "--k", "2", "--sizes", "12", "--json"]),
    (main_ssm_profile, ("Zd", 2), ["--rmax", "1"]),
], ids=["pressure-Z2-4x4", "entropy-F2-12", "ssm-profile-Z2"])
def test_underflowing_weights_are_schema_error_not_an_empty_space(main_fn, model, args, tmp_path, capsys):
    """Hardcore with vertex_log_weights [0, 1000] has configurations, but
    each elimination factor is scaled by its largest weight and e^-1000
    flushes to 0.  The exact pressure printed log_Z -inf, and the entropy
    and the mixing profile exited 11 saying there was no configuration;
    each now exits 2 naming the weights' range."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({**hardcore_model_dict(*model, 1.0), "vertex_log_weights": [0.0, 1000.0]}))
    with pytest.raises(SystemExit) as exc:
        main_fn(["--model", str(path), *args])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert err["message"].startswith("vertex_log_weights range over [0.0, 1000.0]") and "underflow" in err["message"]


def test_weights_that_do_not_underflow_keep_their_answers():
    """The controls of the underflow refusal: [0, 709] on the F_2 map of
    12 sites (seed 3) and [0, -1e300] on the 3x3 torus answer as before."""
    structure = hardcore(2, 1.0)[0]
    heavy = Potential(np.array([0.0, 709.0]), np.zeros((2, 2, 2)))
    res = finitemodel.partition_exact(finitemodel.DerivedSpace(soficmaps.build_random_perm(2, 12, 3), structure, heavy))
    assert (res.log_Z, res.mean_energy) == (2836.69314718056, 2835.999999999999)
    light = Potential(np.array([0.0, -1e300]), np.zeros((2, 2, 2)))
    (row,) = finitemodel.size_sweep("pressure", structure, light, {"builder": "torus", "d": 2}, [3], method="exact")
    assert row["pressure_estimate"] == 0.0


def test_overflowing_saw_activity_is_schema_error(tmp_path, capsys):
    """On F_2 hardcore with vertex_log_weights [0, 1000], `kp-estimate`
    (auto: the SAW oracle) once built its tree with lambda = e^1000 = inf,
    after numpy's overflow warning.  It now exits 2 with the wording of the
    transfer matrix's refusal, before any exponential."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({**hardcore_model_dict("Free", 2, 1.0), "vertex_log_weights": [0.0, 1000.0]}))
    with pytest.raises(SystemExit) as exc:
        main_kp_estimate(["--model", str(path), "--r", "2", "--N", "10"])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError"
    assert err["message"].startswith("the activity log h(1) - h(0) = 1000.0 ") and "log(float max)" in err["message"]


@pytest.mark.parametrize("experiment", ["pressure", "entropy"])
def test_overflowing_tail_bound_is_schema_error_before_any_sweep(experiment, tmp_path, monkeypatch):
    """At 2|phi| = 800 the TI tail bound n a e^log_u_min e^(2|phi|) is past
    the largest float at the default log_u_min: a typed error naming that
    setting, raised before any sweep runs, not a bare OverflowError after
    all of them."""
    def no_sweeps(*args, **kwargs):
        raise AssertionError("a sweep ran")

    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({**hardcore_model_dict("Zd", 2, 1.0), "vertex_log_weights": [0.0, 400.0]}))
    monkeypatch.setattr(GlauberEngine, "sweeps", no_sweeps)
    with pytest.raises(SchemaError, match=r"params\.mcmc\.log_u_min") as exc:
        run_config({"experiment": experiment, "model": str(path), "params": {
            "builder_desc": {"builder": "torus", "d": 2}, "sizes": [4], "method": "mcmc"}})
    assert exc.value.exit_code == 2


def test_refused_budget_fails_before_the_estimate(tmp_path, monkeypatch, capsys):
    """The truncation budget is computed before the estimate: on Z^3
    hardcore beta(1) needs the 2^18 boundary patterns of an 18-site shell,
    past SSM_BOUNDARY_PATTERNS, and `kp-estimate` exits 4 with
    BudgetExceededError without running the estimator."""
    def no_estimate(*args, **kwargs):
        raise AssertionError("the estimate ran")

    path = tmp_path / "hardcore_z3.json"
    path.write_text(json.dumps(hardcore_model_dict("Zd", 3, 1.0)))
    monkeypatch.setattr(cli, "kp_pressure_at_fixed_point", no_estimate)
    with pytest.raises(SystemExit) as exc:
        main_kp_estimate(["--model", str(path), "--oracle", "ball", "--pad", "1", "--r", "2", "--N", "20000"])
    assert exc.value.code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceededError"


def test_f2_ising_gets_a_truncation_budget(tmp_path, capsys):
    """c on B_1 of F_2 Ising asks the ball oracle at pad 3 for B_4, 161
    sites of a tree, which elimination answers: `kp-estimate` writes a
    record with a finite budget where it once exited 4 at a 45-site limit."""
    names = ("a", "b")
    path = tmp_path / "ising_f2.json"
    path.write_text(json.dumps({
        "group": {"kind": "Free", "k": 2}, "alphabet": 2,
        "relations": {n: [[True, True], [True, True]] for n in names}, "vertex_log_weights": [0.0, 0.1],
        "edge_log_weights": {n: [[0.3, -0.3], [-0.3, 0.3]] for n in names}}))
    main_kp_estimate(["--model", str(path), "--oracle", "ball", "--pad", "1", "--r", "2", "--N", "2000"])
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert (out["budget_beta"], out["budget_c"]) == (0.6867276119982335, 0.07585818002124356)
    assert out["budget_total"] == pytest.approx(27.158347793445, rel=1e-12)


@pytest.mark.parametrize("main_fn", [main_pressure, main_entropy])
def test_non_integer_size_is_a_usage_error(main_fn, hc_model, capsys):
    """`--sizes 8.5` is argparse's usage error (exit 2) naming --sizes, not a
    ValueError traceback."""
    with pytest.raises(SystemExit) as exc:
        main_fn(["--model", hc_model, "--builder", "torus", "--sizes", "8,8.5"])
    assert exc.value.code == 2
    assert "--sizes" in capsys.readouterr().err


def test_m_outer_zero_is_refused(hc_model, capsys):
    """`--M-outer 0` reaches the schema, which refuses it as it refuses 1
    (exit 2), in place of running with the default M_outer."""
    for m_outer in ("0", "1"):
        with pytest.raises(SystemExit) as exc:
            main_kp_estimate(["--model", hc_model, "--nu", "mu", "--M-outer", m_outer, "--r", "2", "--N", "400"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and "M_outer" in err["message"]


def test_record_names_the_kernel_backend(hc_model):
    config = {"experiment": "pressure", "model": hc_model,
              "params": {"sizes": [8], "builder_desc": {"builder": "torus", "d": 1}}}
    record = run_config(config)
    assert record["kernel_backend"] == kernels.BACKEND in ("c", "python")
    assert list(record["outputs"][0]) == ["n", "log_Z", "pressure_estimate", "stderr", "method", "seed"]


@pytest.mark.parametrize("method", ["exact", "cycles", "mcmc"])
def test_every_route_writes_the_sweep_fields(method, hc_model, tmp_path):
    """Each route's pressure and entropy rows carry exactly the fields of
    finitemodel.SWEEP_FIELDS, in order, and so do the console scripts' CSV
    headers."""
    for experiment, main_fn in (("pressure", main_pressure), ("entropy", main_entropy)):
        record = run_config({"experiment": experiment, "model": hc_model, "params": {
            "builder_desc": {"builder": "torus", "d": 1}, "sizes": [6, 8], "method": method,
            "mcmc": SWEEP_MCMC}})
        assert [list(row) for row in record["outputs"]] == [list(finitemodel.SWEEP_FIELDS[experiment])] * 2
        out = tmp_path / f"{experiment}.csv"
        main_fn(["--model", hc_model, "--builder", "torus", "--sizes", "6", "--method", method, "--out", str(out)])
        assert out.read_text().splitlines()[0].split(",") == list(finitemodel.SWEEP_FIELDS[experiment])


EMPTY_SPACES = {
    # an odd cycle or an odd torus has no proper 2-colouring
    "cycles-Z1": (1, ["--sizes", "3"], "cycle_decomposition"),
    "exact-Z1": (1, ["--sizes", "3", "--method", "exact"], "exact"),
    "auto-Z2": (2, ["--d", "2", "--sizes", "3"], "exact"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_SPACES))
def test_entropy_of_an_empty_derived_space_is_a_typed_error(case, tmp_path, capsys):
    """The checkerboard on an odd torus has no configuration.  Its entropy
    row was nan after a RuntimeWarning on the cycles route and a bare numpy
    ValueError on the exact one; it is now an EmptyFiberError (exit 11),
    with no warning, while the pressure still reports log Z = -inf."""
    d, args, pressure_method = EMPTY_SPACES[case]
    relation = [[False, True], [True, False]]
    path = tmp_path / "checkerboard.json"
    path.write_text(json.dumps({"group": {"kind": "Zd", "d": d}, "alphabet": 2, "vertex_log_weights": [0.0, 0.0],
                                "relations": {f"e{i + 1}": relation for i in range(d)}}))
    argv = ["--model", str(path), "--builder", "torus", *args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main_entropy(argv)
    assert exc.value.code == 11
    assert json.loads(capsys.readouterr().err)["error"] == "EmptyFiberError"
    main_pressure(argv)
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert (row["log_Z"], row["pressure_estimate"], row["method"]) == ("-inf", "-inf", pressure_method)


def test_entropy_takes_exact_up_to_the_exact_cap(tmp_path, monkeypatch, capsys):
    """On a random F_2 map of n = 22 sites, within auto's 24 exact sites,
    `entropy --method exact` answers (it once exited 3 at a table cap of 20)
    and `auto` takes it too (it once took mcmc, and gave 0.38022779188740086
    with stderr 0.004328132881313971 at the default settings).  The row is
    the full table's entropy, to 1e-12, and within 2 stderr of that figure."""
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(hardcore_model_dict("Free", 2, 2.5)))
    rows = []
    for method in ("exact", "auto"):
        main_entropy(["--model", str(path), "--builder", "random_perm", "--k", "2", "--sizes", "22",
                      "--seed", "3", "--method", method, "--json"])
        rows += json.loads(capsys.readouterr().out)["outputs"]
    assert rows[0] == rows[1] and rows[0]["method"] == "exact" and rows[0]["stderr"] == 0.0
    monkeypatch.setattr(reference, "TABLE_CAP", 22)
    model = load_model(str(path))
    space = finitemodel.DerivedSpace(soficmaps.build_random_perm(2, 22, 3), model.structure, model.potential)
    assert rows[0]["entropy_rate"] == pytest.approx(reference.shannon_entropy_exact(space) / 22, abs=1e-12)
    assert abs(rows[0]["entropy_rate"] - 0.38022779188740086) < 2 * 0.004328132881313971


def _records_on_both_backends(configs) -> list:
    """[(twin, here)] for each RunConfig: the record of the forced Python
    twins, run in a subprocess, and this process's record, each without
    its backend's name, which is checked, and its wall time."""
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "SOFICLAB_KERNEL": "python",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys; from soficlab.cli import run_config; "
         "print(json.dumps([run_config(c) for c in json.loads(sys.argv[1])]))", json.dumps(configs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    twins = json.loads(out.stdout)
    assert len(twins) == len(configs)
    pairs = []
    for twin, config in zip(twins, configs):
        assert twin.pop("kernel_backend") == "python"
        here = run_config(config)
        assert here.pop("kernel_backend") == kernels.BACKEND
        for record in (twin, here):
            record.pop("wall_time_s")
        pairs.append((twin, here))
    return pairs


@pytest.mark.parametrize("nu,params", [
    ("mu", {"N": 4000, "N_inner": 50}),
    ("fixed0", {"N": 20000}),
])
def test_kp_transfer_record_is_the_same_on_both_backends(hc_model, nu, params):
    """The transfer oracle's lookups are kernels: at two seeds, the records of
    the forced Python twins are byte-equal JSON to this process's, apart
    from the backend's name and the wall time."""
    configs = [{"experiment": "kp-estimate", "model": hc_model, "seed": seed,
                "params": {"r": 6, "oracle": "transfer", "nu": nu, **params}} for seed in (4, 9)]
    for twin, here in _records_on_both_backends(configs):
        assert json.dumps(twin) == json.dumps(here)



def test_kp_transfer_record_at_the_benchmark_radius_is_pinned(hc_model):
    """The transfer route against mu at r = 16, the benchmark's radius,
    with 200 patterns of 100 pasts: on both backends the record is
    byte-equal JSON, and its value, stderr and parts are the figures
    recorded before the window sampler and the lookup's branch-free block
    were compiled."""
    config = {"experiment": "kp-estimate", "model": hc_model, "seed": 3,
              "params": {"oracle": "transfer", "r": 16, "nu": "mu", "N": 20_000, "N_inner": 100}}
    ((twin, here),) = _records_on_both_backends([config])
    assert json.dumps(twin) == json.dumps(here)
    outputs = here["outputs"]
    assert (outputs["value"], outputs["stderr"], outputs["parts"]) == (
        0.4683391696959127, 0.024197533353547247,
        {"info": 0.4683391696959127, "info_stderr": 0.024197533353547247, "phi": 0.0})


@pytest.mark.skipif(kernels.BACKEND != "c", reason="C kernel not loaded")
def test_kp_record_is_the_same_with_rows_split_over_cores(hc_model, tmp_path, monkeypatch):
    """Records of the transfer route (nu mu and fixed0) and of the SAW route
    on F_2, minus the wall time, are byte-equal JSON whether the compiled
    percolation kernels run their rows in one call or in two ranges."""
    f2_model = tmp_path / "f2.json"
    f2_model.write_text(json.dumps(hardcore_model_dict("Free", 2, 0.3)))
    configs = [
        {"experiment": "kp-estimate", "model": hc_model, "seed": 4,
         "params": {"r": 6, "oracle": "transfer", "nu": "mu", "N": 4000, "N_inner": 50}},
        {"experiment": "kp-estimate", "model": hc_model, "seed": 9,
         "params": {"r": 6, "oracle": "transfer", "nu": "fixed0", "N": 20000}},
        {"experiment": "kp-estimate", "model": str(f2_model), "seed": 2,
         "params": {"r": 3, "N": 400, "oracle": "saw", "saw_boundary": "self_consistent"}},
    ]
    records = []
    for workers in (1, 2):
        monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
        monkeypatch.setattr(kernels, "ROWS_PER_WORKER", 1)
        records.append([run_config(config) for config in configs])
        for record in records[-1]:
            record.pop("wall_time_s")
    assert json.dumps(records[0]) == json.dumps(records[1])

# (group kind, rank, lambda, params, seed, oracle used, value, stderr); the
# figures are those recorded before the tree recursion was compiled
TREE_RECORDS = [
    ("Free", 2, 1.0, {"oracle": "auto", "saw_boundary": "free", "r": 3, "N": 1001}, 7, "saw",
     0.38438775657223523, 0.005792237144901572),
    ("Free", 2, 1.0, {"oracle": "auto", "saw_boundary": "self_consistent", "r": 3, "N": 1001}, 7, "saw",
     0.40677059022896245, 0.005349065868721495),
    ("Free", 1, 2.5, {"oracle": "auto", "saw_boundary": "free", "r": 5, "N": 3000}, 1, "transfer",
     0.7595767541273933, 0.006898172228779492),
    ("Free", 1, 2.5, {"oracle": "auto", "saw_boundary": "self_consistent", "r": 5, "N": 3000}, 1, "transfer",
     0.7595767541273933, 0.006898172228779492),
    ("Free", 1, 2.5, {"oracle": "saw", "saw_boundary": "free", "r": 5, "N": 3000}, 1, "saw",
     0.7591933011311203, 0.006903062016420166),
    ("Free", 1, 2.5, {"oracle": "saw", "saw_boundary": "self_consistent", "r": 5, "N": 3000}, 1, "saw",
     0.7595767541273933, 0.006898172228779492),
    ("Zd", 1, 1.0, {"oracle": "saw", "nu": "mu", "r": 4, "N": 1000, "N_inner": 20}, 5, "saw",
     0.4301250778294169, 0.04510832909124372),
    ("Zd", 1, 2.5, {"oracle": "saw", "saw_boundary": "self_consistent", "nu": "mu", "r": 6, "N": 700,
                    "N_inner": 7}, 1, "saw", 0.8333643600194958, 0.06490017552922771),
]


# (group kind, rank, lambda, params, seed, oracle used, value, stderr) of the
# transfer oracle under both nu and the ball oracle on Z^2 under both pasts;
# the figures are those recorded before the random-past kernels lost their
# row offset and past-ball size
ROUTE_RECORDS = [
    ("Zd", 1, 1.0, {"oracle": "transfer", "r": 6, "N": 2000}, 3, "transfer",
     0.4849600826927065, 0.003682674218164559),
    ("Zd", 1, 1.0, {"oracle": "transfer", "nu": "mu", "r": 6, "N": 2000, "N_inner": 20}, 3, "transfer",
     0.4308541478725754, 0.03410704343153505),
    ("Zd", 2, 1.0, {"oracle": "ball", "pad": 1, "r": 1, "N": 300}, 2, "ball",
     0.2848491310836703, 0.012533497932285892),
    ("Zd", 2, 1.0, {"oracle": "ball", "pad": 1, "r": 2, "past": "lex", "N": 1}, 2, "ball",
     0.5280674302004967, 0.0),
]


# (experiment, group kind, rank, builder, sizes, method, seed, rows) of
# hardcore size sweeps at activity 2.5, `mcmc` at SWEEP_MCMC; the rows are
# those recorded before the pressure and the entropy sweeps became one.
# Exact entropy rows hold to 1e-12, every other row bitwise
SWEEP_MCMC = {"grid_points": 5, "samples_per_point": 40}
SWEEP_RECORDS = [
    ("pressure", "Zd", 2, {"builder": "torus", "d": 2}, [4], "exact", 0,
     [{"n": 16, "log_Z": 10.853918958535582, "pressure_estimate": 0.6783699349084739, "stderr": 0.0,
       "method": "exact", "seed": 0}]),
    ("entropy", "Zd", 2, {"builder": "torus", "d": 2}, [4], "exact", 0,
     [{"n": 16, "entropy_rate": 0.36420427102881314, "stderr": 0.0, "method": "exact"}]),
    ("pressure", "Free", 2, {"builder": "random_perm", "k": 2}, [12], "exact", 3,
     [{"n": 12, "log_Z": 7.451023891237498, "pressure_estimate": 0.6209186576031248, "stderr": 0.0,
       "method": "exact", "seed": 3}]),
    ("entropy", "Free", 2, {"builder": "random_perm", "k": 2}, [12], "exact", 3,
     [{"n": 12, "entropy_rate": 0.37883974229004247, "stderr": 0.0, "method": "exact"}]),
    ("pressure", "Zd", 1, {"builder": "torus", "d": 1}, [8, 16], "auto", 0,
     [{"n": 8, "log_Z": 6.161471000009063, "pressure_estimate": 0.7701838750011328, "stderr": 0.0,
       "method": "cycle_decomposition", "seed": 0},
      {"n": 16, "log_Z": 12.309273240393857, "pressure_estimate": 0.7693295775246161, "stderr": 0.0,
       "method": "cycle_decomposition", "seed": 0}]),
    ("entropy", "Zd", 1, {"builder": "torus", "d": 1}, [8, 16], "auto", 0,
     [{"n": 8, "entropy_rate": 0.4482863268275732, "stderr": 0.0, "method": "cycles"},
      {"n": 16, "entropy_rate": 0.4493071541415918, "stderr": 0.0, "method": "cycles"}]),
    ("pressure", "Zd", 1, {"builder": "folner", "d": 1}, [3], "cycles", 0,
     [{"n": 3, "log_Z": 2.1400661634962708, "pressure_estimate": 0.7133553878320903, "stderr": 0.0,
       "method": "cycle_decomposition", "seed": 0}]),
    ("entropy", "Zd", 1, {"builder": "folner", "d": 1}, [3], "cycles", 0,
     [{"n": 3, "entropy_rate": 0.4438581137514564, "stderr": 0.0, "method": "cycles"}]),
    ("pressure", "Zd", 1, {"builder": "torus", "d": 1}, [8], "mcmc", 3,
     [{"n": 8, "log_Z": 5.526204223185709, "pressure_estimate": 0.6907755278982136,
       "stderr": 0.026450743283629834, "method": "mcmc", "seed": 3}]),
    ("entropy", "Zd", 1, {"builder": "torus", "d": 1}, [8], "mcmc", 3,
     [{"n": 8, "entropy_rate": 0.3666376814977313, "stderr": 0.03231181863970351, "method": "mcmc"}]),
    ("pressure", "Zd", 2, {"builder": "torus", "d": 2}, [4], "mcmc", 3,
     [{"n": 16, "log_Z": 10.620673741435034, "pressure_estimate": 0.6637921088396896,
       "stderr": 0.03623689562306346, "method": "mcmc", "seed": 3}]),
    ("entropy", "Zd", 2, {"builder": "torus", "d": 2}, [4], "mcmc", 3,
     [{"n": 16, "entropy_rate": 0.34566742036713144, "stderr": 0.041768992813632555, "method": "mcmc"}]),
]


def test_size_sweep_records_are_pinned(tmp_path):
    """Pressure and entropy sweeps by every route (exact on Z^2 and F_2,
    cycles on Z^1 tori and a Folner box, mcmc on Z^1 and Z^2) give the same record on both backends and the pinned
    rows."""
    configs = []
    for experiment, kind, rank, builder, sizes, method, seed, _ in SWEEP_RECORDS:
        path = tmp_path / f"{kind}{rank}.json"
        path.write_text(json.dumps(hardcore_model_dict(kind, rank, 2.5)))
        configs.append({"experiment": experiment, "model": str(path), "seed": seed, "params": {
            "builder_desc": builder, "sizes": sizes, "method": method, "mcmc": SWEEP_MCMC}})
    for (twin, here), (experiment, *_, method, _, rows) in zip(_records_on_both_backends(configs), SWEEP_RECORDS):
        assert json.dumps(twin) == json.dumps(here)
        if experiment == "entropy" and method == "exact":
            for row, pinned in zip(here["outputs"], rows, strict=True):
                assert row == {**pinned, "entropy_rate": pytest.approx(pinned["entropy_rate"], abs=1e-12)}
        else:
            assert here["outputs"] == rows


def _check_pinned_records(records, tmp_path):
    """Each kp-estimate record of `records`, run on both backends, is the
    same JSON apart from the backend's name and the wall time, and gives the
    pinned oracle, value and stderr."""
    configs = []
    for kind, rank, lam, params, seed, *_ in records:
        path = tmp_path / f"{kind}{rank}_{lam}.json"
        path.write_text(json.dumps(hardcore_model_dict(kind, rank, lam)))
        configs.append({"experiment": "kp-estimate", "model": str(path), "seed": seed, "params": params})
    for (twin, here), (*_, oracle, value, stderr) in zip(_records_on_both_backends(configs), records):
        assert json.dumps(twin) == json.dumps(here)
        assert (here["outputs"]["oracle"], here["outputs"]["value"], here["outputs"]["stderr"]) == (
            oracle, value, stderr)


def test_kp_tree_record_is_the_same_on_both_backends(tmp_path):
    """The tree oracle's recursion is a kernel: on F_1 and F_2 hardcore
    (both shells, `oracle: auto`, and `oracle: saw` on F_1) and on Z^1 with
    `nu: mu` through the SAW oracle, the records of the forced Python twins
    are byte-equal JSON to this process's, apart from the backend's name and
    the wall time, and each value and stderr is the pinned figure."""
    _check_pinned_records(TREE_RECORDS, tmp_path)


def test_kp_transfer_and_ball_records_are_pinned(tmp_path):
    """The transfer oracle under `nu: fixed0` and `nu: mu`, and the ball
    oracle on Z^2 at pad 1 under the percolation and the lexicographic
    past, give the pinned value and stderr on both backends."""
    _check_pinned_records(ROUTE_RECORDS, tmp_path)


def test_too_wide_ball_query_is_refused_before_its_elimination(tmp_path, monkeypatch):
    """The Z^2 hardcore `past: lex` query through the ball oracle at pad 2
    needs tables of up to 2^31 entries at r = 22: it exits 3 from the
    elimination plan, which stops at its first message past the cap, of
    2^27 entries.  The only tables contracted are those of the truncation
    budget, none wider than 9 sites; the query once contracted tables up to
    its 26-site messages (3.4 s, 1.1 GB) before it was refused."""
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(hardcore_model_dict("Zd", 2, 1.0)))
    widths = []
    contract = enumeration._contract
    monkeypatch.setattr(enumeration, "_contract", lambda factors, out: widths.append(len(out)) or contract(factors, out))
    with pytest.raises(CapExceededError, match=r"over 27 sites .* past the cap") as exc:
        run_config({"experiment": "kp-estimate", "model": str(path), "seed": 1,
                    "params": {"oracle": "ball", "pad": 2, "r": 22, "past": "lex", "N": 1}})
    assert exc.value.exit_code == 3
    assert max(widths) <= 9


# a full shift on 65 symbols over Z^2, schema-valid, one symbol past the sweep kernels
A65 = {"group": {"kind": "Zd", "d": 2}, "alphabet": 65,
       "relations": {g: [[True] * 65] * 65 for g in ("e1", "e2")}, "vertex_log_weights": [0.0] * 65}


def test_mcmc_refuses_an_alphabet_past_the_sweep_kernels(tmp_path, monkeypatch):
    """`pressure` and `entropy` on the 65-symbol full shift, under `method:
    mcmc` on the 2x2 torus and under `auto` on the 5x5 torus (past auto's 24
    exact sites, so mcmc too), are a CapExceededError (exit 3) that
    names the 64-symbol limit and the exact and cycles routes, before any
    uniform is drawn, on both backends; each was a bare ValueError (exit 1)."""
    path = tmp_path / "a65.json"
    path.write_text(json.dumps(A65))
    configs = [{"experiment": experiment, "model": str(path), "params": {
        "builder_desc": {"builder": "torus", "d": 2}, "sizes": [m], "method": method}}
        for experiment in ("pressure", "entropy") for method, m in (("mcmc", 2), ("auto", 5))]
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "SOFICLAB_KERNEL": "python",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys; from soficlab.cli import run_config\n"
         "for c in json.loads(sys.argv[1]):\n"
         "    try: run_config(c)\n"
         "    except Exception as e: print(json.dumps([type(e).__name__, getattr(e, 'exit_code', 1), str(e)]))"
         "\n", json.dumps(configs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    twins = [json.loads(line) for line in out.stdout.splitlines()]

    def drawn(*args, **kwargs):
        raise AssertionError("a uniform was drawn")

    monkeypatch.setattr(sampling, "glauber_sweeps", drawn)
    monkeypatch.setattr(kernels.Pcg64, "random", drawn)
    here = []
    for config in configs:
        with pytest.raises(CapExceededError) as exc:
            run_config(config)
        here.append([type(exc.value).__name__, exc.value.exit_code, str(exc.value)])
    assert twins == here
    for name, code, message in here:
        assert code == 3
        assert "at most 64 symbols" in message and "exact and cycles routes" in message


def test_lambda_param_rewrites_activity(hc_model):
    base = {"experiment": "pressure", "model": hc_model,
            "params": {"sizes": [64], "builder_desc": {"builder": "torus", "d": 1}}}
    at_two = run_config({**base, "params": {**base["params"], "lambda": 2.0}})["outputs"][0]
    # hardcore line at activity 2: T = [[1, 2], [1, 0]] has Perron root 2
    assert at_two["pressure_estimate"] == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(SchemaError):
        run_config({**base, "params": {**base["params"], "lambda": -1.0}})


def test_ssm_profile_reducible_relation_exit_code(tmp_path, capsys):
    data = {"group": {"kind": "Zd", "d": 1}, "alphabet": 2,
            "relations": {"e1": [[True, True], [False, True]]}, "vertex_log_weights": [0.0, 0.0]}
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main_ssm_profile(["--model", str(path), "--rmax", "3"])
    assert exc.value.code == 12
    assert "ReducibleTransferError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, params, message",
    [
        (hardcore_model_dict("Zd", 2, 1.0), {"oracle": "transfer"}, "rank-1"),
        ({**hardcore_model_dict("Zd", 1, 1.0), "relations": {"e1": [[True, True], [True, True]]}},
         {"oracle": "saw"}, "hardcore"),
        (hardcore_model_dict("Zd", 2, 1.0), {"oracle": "saw", "saw_boundary": "self_consistent"}, "tree groups"),
        (hardcore_model_dict("Free", 2, 0.3), {"past": "lex"}, "Z^d"),
        (hardcore_model_dict("Free", 2, 0.3), {"nu": "mu"}, "rank-1"),
        (hardcore_model_dict("Zd", 1, 1.0), {"nu": "mu", "past": "lex"}, "percolation"),
        (hardcore_model_dict("Zd", 2, 1.0), {"oracle": "saw", "r": 1, "N": 100},
         "tree groups (F_k and Z^1) only; off them oracle: ball"),
    ],
)
def test_run_oracle_the_model_cannot_use_is_schema_error(model, params, message, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps({"experiment": "kp-estimate", "model": str(model_path),
                                  "params": {"r": 2, "N": 10, **params}}))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(config)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and message in err["message"]
