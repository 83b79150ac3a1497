import csv
import json
import math

import pytest

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
from soficlab.gibbs import entropy_rate_estimate
from soficlab.modelfile import hardcore_model_dict, load_model, parse_model
from soficlab.errors import SchemaError

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


def test_pressure_csv(hc_model, tmp_path):
    out = tmp_path / "pressure.csv"
    main_pressure(
        ["--model", hc_model, "--builder", "torus", "--d", "1", "--sizes", "8,16,64", "--out", str(out)]
    )
    rows = list(csv.DictReader(out.open()))
    assert [r["n"] for r in rows] == ["8", "16", "64"]
    assert abs(float(rows[-1]["pressure_estimate"]) - golden_pressure()) < 1e-6
    assert rows[0]["method"] == "transfer_cycle"


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
    ca = {**base, "params": {**base["params"], "builder_desc": {"builder": "torus", "d": 1}, "method": "transfer"}}
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
    ],
)
def test_run_unknown_name_is_schema_error(params, experiment, hc_model, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": experiment, "model": hc_model, "params": params}))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaError" and "nope" in err["message"]


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
    ],
    ids=["N_inner-zero", "N_inner-negative", "N-below-two-N_inner", "M_outer-one", "fixed0-N-zero",
         "fixed0-N-one"],
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
    direct = entropy_rate_estimate(model.structure, model.potential, builder, [8], method="mcmc",
                                   seed=2, mcmc_kwargs=block)
    assert record["outputs"] == direct


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
