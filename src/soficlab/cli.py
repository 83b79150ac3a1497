"""Batch command-line front end: one RunConfig run path (`run_config`) that
`soficlab run` and every console script share, and CSV/JSON output."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np
from jsonschema import Draft202012Validator

from . import groups
from .constraints import check_tssm
from .errors import SchemaError, SoficLabError
from .finitemodel import METHODS, pressure_estimate
from .gibbs import entropy_rate_estimate, ssm_profile, uniform_bound_c
from .marginals import make_oracle
from .modelbuild import build_sofic
from .modelfile import Model, load_graph, load_model, parse_model
from .randominfo import kp_pressure_at_fixed_point, kp_pressure_at_measure
from .saw import hardcore_marginal_via_saw
from .soficmaps import good_vertices
from .version import __version__

RUNCONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiment"],
    "properties": {
        "experiment": {
            "enum": [
                "pressure",
                "entropy",
                "tssm-check",
                "ssm-profile",
                "kp-estimate",
                "saw-marginal",
                "sofic-stats",
            ]
        },
        "model": {"type": "string"},
        "graph": {"type": "string"},
        "params": {"type": "object"},
        "seed": {"type": "integer"},
        "output": {"type": "string"},
    },
}


# params an experiment cannot run without; saw-marginal also takes its graph
# from the RunConfig's top-level "graph"
REQUIRED_PARAMS = {
    "pressure": ("sizes",),
    "entropy": ("sizes",),
    "sofic-stats": ("builder",),
    "saw-marginal": ("graph",),
}


def _emit(record: dict, fmt: str, out_path: str | None, csv_fields=None):
    if fmt == "csv":
        buf = io.StringIO()
        rows = record["outputs"]
        writer = csv.DictWriter(buf, fieldnames=csv_fields or list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in writer.fieldnames})
        text = buf.getvalue()
    else:
        text = json.dumps(record, indent=2, default=_jsonable) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------- experiments


def run_sofic_stats(params: dict, seed: int) -> dict:
    desc = {
        "builder": params["builder"],
        **{k: v for k, v in params.items() if k in ("d", "k", "m", "n", "size")},
        "seed": seed,
    }
    sm = build_sofic(desc, seed=seed)
    report = good_vertices(sm, groups.ball(sm.spec, int(params.get("r", 2))))
    return {"provenance": sm.provenance, **report.to_dict()}


def run_tssm_check(model: Model, params: dict) -> dict:
    verdict = check_tssm(
        model.structure,
        model.spec,
        m=int(params.get("range", 1)),
        radius=int(params.get("radius", 3)),
        k_max=int(params.get("kmax", 3)),
    )
    out = {
        "kind": verdict.kind,
        "range_radius": verdict.range_radius,
        "tested_radius": verdict.tested_radius,
        "tested_support": verdict.tested_support,
        "complete": verdict.complete,
        "safe_symbol": verdict.safe_symbol,
    }
    if verdict.witness is not None:
        out["witness"] = {
            "sites": [list(g) for g in verdict.witness.sites],
            "values": list(verdict.witness.values),
        }
    return out


def run_pressure(model: Model, params: dict, seed: int):
    builder = params["builder_desc"]
    sizes = params["sizes"]
    return pressure_estimate(
        model.structure,
        model.potential,
        builder,
        sizes,
        method=params.get("method", "auto"),
        seed=seed,
        mcmc_kwargs=params.get("mcmc"),
    )


def run_entropy(model: Model, params: dict, seed: int):
    builder = params["builder_desc"]
    return entropy_rate_estimate(
        model.structure,
        model.potential,
        builder,
        params["sizes"],
        method=params.get("method", "auto"),
        seed=seed,
        mcmc_kwargs=params.get("mcmc"),
    )


def run_ssm_profile(model: Model, params: dict):
    rmax = int(params.get("rmax", 8))
    prof = ssm_profile(model.structure, model.potential, model.spec, rmax)
    return [{"r": r + 1, "beta_hat": float(b)} for r, b in enumerate(prof)]


def run_kp_estimate(model: Model, params: dict, seed: int) -> dict:
    r = int(params.get("r", 16))
    N = int(params.get("N", 200_000))
    nu = params.get("nu", "fixed0")
    if nu not in ("fixed0", "mu"):
        raise SchemaError(f"unknown nu {nu!r}; expected fixed0 or mu")
    past = params.get("past", "percolation")
    if past == "lex" and model.spec.kind != "zd":
        raise SchemaError("past lex is the lexicographic order of Z^d")
    if nu == "mu":
        if model.spec.rank != 1:
            raise SchemaError("nu mu samples the measure exactly only on rank-1 groups")
        if past != "percolation":
            raise SchemaError(f"nu mu averages over percolation pasts only, got past {past!r}")
        N_inner = int(params.get("N_inner", 100))
        if N_inner < 1:
            raise SchemaError(f"params.N_inner must be at least 1, got {N_inner}")
        M_outer = int(params.get("M_outer", N // N_inner))
        if M_outer < 2:
            raise SchemaError(
                f"nu mu needs M_outer >= 2 patterns for a standard error (M_outer defaults to "
                f"N // N_inner), got {M_outer}"
            )
    else:
        least = 2 if past == "percolation" else 1  # random pasts need two for a standard error
        if N < least:
            raise SchemaError(f"params.N must be at least {least} under past {past!r}, got {N}")
    oracle = make_oracle(
        params.get("oracle", "auto"),
        model.structure,
        model.potential,
        model.spec,
        r,
        pad=int(params.get("pad", 4)),
        saw_boundary=params.get("saw_boundary", "free"),
    )
    if nu == "mu":
        est = kp_pressure_at_measure(
            model.structure,
            model.potential,
            model.spec,
            oracle,
            r,
            N_inner=N_inner,
            M_outer=M_outer,
            seed=seed,
        )
    else:
        est = kp_pressure_at_fixed_point(
            model.structure, model.potential, model.spec, oracle, r, N, seed,
            past=past,
        )
    budget_r = min(r, int(params.get("budget_profile_radius", 12 if model.spec.rank == 1 else 1)))
    beta = float(ssm_profile(model.structure, model.potential, model.spec, budget_r)[-1])
    c_radius = min(r, 2) if model.spec.rank == 1 else 1
    c_hat = uniform_bound_c(model.structure, model.potential, model.spec, c_radius).c_hat
    return {
        "value": est.value,
        "stderr": est.stderr,
        "r": est.r,
        "N": est.n_samples,
        "oracle": est.oracle,
        "nu": nu,
        "budget_beta": beta,
        "budget_c": c_hat,
        "budget_total": 3.0 * beta / c_hat,
        "parts": est.parts,
    }


def run_saw_marginal(params: dict) -> dict:
    adj, lam, pins = load_graph(params["graph"])
    if params.get("lambda") is not None:
        lam = params["lambda"]
    root = int(params.get("root", 0))
    p = hardcore_marginal_via_saw(adj, root, lam, pins)
    return {"root": root, "lambda": lam, "p_occupied": p, "pins": pins}


# ---------------------------------------------------------------- dispatch


def _with_lambda(model: Model, lam) -> Model:
    """The binary model with its occupied-symbol activity set to lam."""
    weights = list(model.raw["vertex_log_weights"])
    if len(weights) != 2:
        raise SchemaError("params.lambda needs a binary alphabet")
    if not isinstance(lam, (int, float)) or not lam > 0:
        raise SchemaError(f"params.lambda must be a positive number, got {lam!r}")
    weights[1] = math.log(lam)
    return parse_model({**model.raw, "vertex_log_weights": weights})


def run_config(config: dict) -> dict:
    errors = sorted(Draft202012Validator(RUNCONFIG_SCHEMA).iter_errors(config), key=str)
    if errors:
        raise SchemaError("; ".join(e.message for e in errors[:3]))
    experiment = config["experiment"]
    params = dict(config.get("params", {}))
    seed = int(config.get("seed", 0))
    started = time.time()
    if "model" not in config and experiment not in ("sofic-stats", "saw-marginal"):
        raise SchemaError(f"{experiment} needs a model")
    if experiment == "saw-marginal" and "graph" in config:
        params["graph"] = config["graph"]
    for key in REQUIRED_PARAMS.get(experiment, ()):
        if key not in params:
            raise SchemaError(f"{experiment} needs params.{key}")
    model = load_model(config["model"]) if "model" in config else None
    if model is not None and params.get("lambda") is not None:
        model = _with_lambda(model, params["lambda"])
    if experiment == "sofic-stats":
        outputs = run_sofic_stats(params, seed)
    elif experiment == "tssm-check":
        outputs = run_tssm_check(model, params)
    elif experiment == "ssm-profile":
        outputs = run_ssm_profile(model, params)
    elif experiment == "kp-estimate":
        outputs = run_kp_estimate(model, params, seed)
    elif experiment == "saw-marginal":
        outputs = run_saw_marginal(params)
    elif experiment in ("pressure", "entropy"):
        if "builder_desc" not in params:
            if model.sofic is None:
                raise SchemaError("pressure/entropy need a builder: --builder, params.builder_desc or a model 'sofic' block")
            params["builder_desc"] = {
                "builder": model.sofic["builder"],
                **model.sofic.get("params", {}),
                "seed": model.sofic.get("seed", 0),
            }
        runner = run_pressure if experiment == "pressure" else run_entropy
        outputs = runner(model, params, seed)
    else:  # pragma: no cover - schema guards
        raise SchemaError(f"unknown experiment {experiment!r}")
    return {
        "experiment": experiment,
        "inputs": {k: v for k, v in config.items() if k != "output"},
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
    }


def _scalar_of(record: dict):
    out = record["outputs"]
    if isinstance(out, dict) and "value" in out:
        return float(out["value"]), float(out.get("stderr", 0.0))
    if isinstance(out, list) and out and "pressure_estimate" in out[-1]:
        return float(out[-1]["pressure_estimate"]), float(out[-1].get("stderr", 0.0))
    if isinstance(out, list) and out and "entropy_rate" in out[-1]:
        return float(out[-1]["entropy_rate"]), float(out[-1].get("stderr", 0.0))
    raise SchemaError("experiment type does not expose a comparable scalar")


def compare_configs(config_a: dict, config_b: dict, tolerance: float) -> dict:
    ra = run_config(config_a)
    rb = run_config(config_b)
    if ra["experiment"] != rb["experiment"]:
        raise SchemaError("compare needs two runs of the same experiment type")
    va, sa = _scalar_of(ra)
    vb, sb = _scalar_of(rb)
    joint = math.hypot(sa, sb)
    margin = tolerance + 3.0 * joint
    diff = abs(va - vb)
    return {
        "experiment": ra["experiment"],
        "value_a": va,
        "value_b": vb,
        "stderr_a": sa,
        "stderr_b": sb,
        "difference": diff,
        "tolerance": tolerance,
        "joint_stderr": joint,
        "margin": margin,
        "arithmetic": f"|{va:.9g} - {vb:.9g}| = {diff:.3g} vs {tolerance:.3g} + 3*{joint:.3g} = {margin:.3g}",
        "verdict": "PASS" if diff <= margin else "FAIL",
        "records": [ra, rb],
    }


# ---------------------------------------------------------------- arg parsing


def _add_builder_flags(p: argparse.ArgumentParser):
    p.add_argument("--builder", choices=["torus", "folner", "random_perm"])
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--k", type=int, default=1)


def _run_and_exit(fn):
    try:
        return fn()
    except SoficLabError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        sys.exit(exc.exit_code)


def _console(args, config: dict, csv_fields=None):
    """Run a console script's RunConfig and write its record.

    The record's inputs are the RunConfig itself, so `soficlab run` replays
    them.  Scripts with csv_fields write CSV unless --json is given.
    """
    if getattr(args, "lam", None) is not None:
        config["params"]["lambda"] = args.lam
    fmt = "csv" if csv_fields and not args.json else "json"
    _run_and_exit(lambda: _emit(run_config(config), fmt, args.out, csv_fields))


def main_sofic_stats(argv=None):
    p = argparse.ArgumentParser(prog="sofic-stats", description="Window-goodness report for a sofic builder")
    _add_builder_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    params = {"builder": args.builder, "d": args.d, "k": args.k, "r": args.r}
    params.update({key: v for key, v in (("m", args.m), ("n", args.n)) if v is not None})
    _console(args, {"experiment": "sofic-stats", "params": params, "seed": args.seed})


def main_tssm_check(argv=None):
    p = argparse.ArgumentParser(prog="tssm-check", description="Bounded TSSM verdict for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--range", type=int, default=1)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--out")
    args = p.parse_args(argv)
    params = {"range": args.range, "radius": args.radius, "kmax": args.kmax}
    _console(args, {"experiment": "tssm-check", "model": args.model, "params": params})


def _size_sweep(experiment: str, description: str, csv_fields: list, argv):
    """The shared front end of `pressure` and `entropy`."""
    p = argparse.ArgumentParser(prog=experiment, description=description)
    p.add_argument("--model", required=True)
    _add_builder_flags(p)
    p.add_argument("--sizes", required=True)
    p.add_argument("--method", default="auto", choices=["auto", *METHODS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    params = {"sizes": [int(x) for x in args.sizes.split(",") if x], "method": args.method}
    if args.builder:
        size_key = "d" if args.builder in ("torus", "folner") else "k"
        params["builder_desc"] = {"builder": args.builder, size_key: getattr(args, size_key), "seed": args.seed}
    _console(args, {"experiment": experiment, "model": args.model, "params": params, "seed": args.seed}, csv_fields)


def main_pressure(argv=None):
    _size_sweep("pressure", "Normalized log partition values per size",
                ["n", "log_Z", "pressure_estimate", "stderr", "method", "seed"], argv)


def main_entropy(argv=None):
    _size_sweep("entropy", "Entropy-rate estimates per size", ["n", "entropy_rate", "stderr", "method"], argv)


def main_ssm_profile(argv=None):
    p = argparse.ArgumentParser(prog="ssm-profile", description="Empirical mixing profile beta(r)")
    p.add_argument("--model", required=True)
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    _console(args, {"experiment": "ssm-profile", "model": args.model, "params": {"rmax": args.rmax}},
             ["r", "beta_hat"])


def main_kp_estimate(argv=None):
    p = argparse.ArgumentParser(prog="kp-estimate", description="Random-past pressure estimate")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--oracle", default="auto", choices=["auto", "transfer", "ball", "saw"])
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--N", type=int, default=200_000)
    p.add_argument("--nu", default="fixed0", choices=["fixed0", "mu"])
    p.add_argument("--past", default="percolation", choices=["percolation", "lex"])
    p.add_argument("--saw-boundary", default="free", choices=["free", "self_consistent"])
    p.add_argument("--N-inner", type=int, default=100)
    p.add_argument("--M-outer", type=int)
    p.add_argument("--pad", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    args = p.parse_args(argv)
    params = {"r": args.r, "N": args.N, "nu": args.nu, "oracle": args.oracle, "pad": args.pad,
              "N_inner": args.N_inner, "past": args.past, "saw_boundary": args.saw_boundary}
    if args.M_outer:
        params["M_outer"] = args.M_outer
    _console(args, {"experiment": "kp-estimate", "model": args.model, "params": params, "seed": args.seed})


def main_saw_marginal(argv=None):
    p = argparse.ArgumentParser(prog="saw-marginal", description="Hardcore root marginal via the SAW tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--out")
    args = p.parse_args(argv)
    _console(args, {"experiment": "saw-marginal", "graph": args.graph, "params": {"root": args.root}})


def main(argv=None):
    p = argparse.ArgumentParser(prog="soficlab", description="Finite-model laboratory for Gibbs measures on sofic groups")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a JSON RunConfig")
    runp.add_argument("config")
    cmpp = sub.add_parser("compare", help="run two configs and compare their scalar outputs")
    cmpp.add_argument("config_a")
    cmpp.add_argument("config_b")
    cmpp.add_argument("--tolerance", type=float, default=0.0)
    cmpp.add_argument("--out")
    args = p.parse_args(argv)

    def go():
        if args.command == "run":
            with open(args.config) as fh:
                config = json.load(fh)
            record = run_config(config)
            out_path = config.get("output")
            _emit(record, "json", out_path)
        else:
            with open(args.config_a) as fh:
                ca = json.load(fh)
            with open(args.config_b) as fh:
                cb = json.load(fh)
            result = compare_configs(ca, cb, args.tolerance)
            _emit({"experiment": "compare", "outputs": result, "inputs": {}, "seed": None,
                   "version": __version__, "wall_time_s": 0}, "json", args.out)
            if result["verdict"] != "PASS":
                sys.exit(1)

    _run_and_exit(go)


if __name__ == "__main__":
    main()
