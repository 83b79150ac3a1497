import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from soficlab import kernels
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
from soficlab.sampling import GlauberEngine

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
    direct = entropy_rate_estimate(model.structure, model.potential, builder, [8], method="mcmc",
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


def test_record_names_the_kernel_backend(hc_model):
    config = {"experiment": "pressure", "model": hc_model,
              "params": {"sizes": [8], "builder_desc": {"builder": "torus", "d": 1}}}
    record = run_config(config)
    assert record["kernel_backend"] == kernels.BACKEND in ("c", "python")
    assert list(record["outputs"][0]) == ["n", "log_Z", "pressure_estimate", "stderr", "method", "seed"]


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
    for twin, config in zip(twins, configs):
        assert twin.pop("kernel_backend") == "python"
        here = run_config(config)
        assert here.pop("kernel_backend") == kernels.BACKEND
        for record in (twin, here):
            record.pop("wall_time_s")
        assert json.dumps(twin) == json.dumps(here)


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


def test_kp_tree_record_is_the_same_on_both_backends(tmp_path):
    """The tree oracle's recursion is a kernel: on F_1 and F_2 hardcore
    (both shells, `oracle: auto`, and `oracle: saw` on F_1) and on Z^1 with
    `nu: mu` through the SAW oracle, the records of the forced Python twins
    are byte-equal JSON to this process's, apart from the backend's name and
    the wall time, and each value and stderr is the pinned figure."""
    configs = []
    for kind, rank, lam, params, seed, *_ in TREE_RECORDS:
        path = tmp_path / f"{kind}{rank}_{lam}.json"
        path.write_text(json.dumps(hardcore_model_dict(kind, rank, lam)))
        configs.append({"experiment": "kp-estimate", "model": str(path), "seed": seed, "params": params})
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
    for twin, config, (*_, oracle, value, stderr) in zip(twins, configs, TREE_RECORDS):
        assert twin.pop("kernel_backend") == "python"
        here = run_config(config)
        assert here.pop("kernel_backend") == kernels.BACKEND
        for record in (twin, here):
            record.pop("wall_time_s")
        assert json.dumps(twin) == json.dumps(here)
        assert (here["outputs"]["oracle"], here["outputs"]["value"], here["outputs"]["stderr"]) == (
            oracle, value, stderr)


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
