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

from . import groups, kernels
from .constraints import check_tssm, hardcore
from .enumeration import SiteGraph, site_marginal
from .errors import InconsistentPinsError, SchemaError, SoficLabError
from .finitemodel import SWEEP_FIELDS, size_sweep
from .gibbs import ssm_profile
from .marginals import make_oracle
from .modelbuild import build_sofic, builder_generators
from .modelfile import Model, load_graph, load_model, parse_model
from .randominfo import kp_pressure_at_fixed_point, kp_pressure_at_measure, truncation_budget
from .schema import BUILDERS, METHODS, PARAMS, RUNCONFIG, check, read_json
from .soficmaps import good_vertices
from .version import __version__

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
    if not any(key in params for key in ("m", "n", "size")):
        raise SchemaError("sofic-stats needs a size: params.m, params.n or params.size")
    desc = {
        "builder": params["builder"],
        **{k: v for k, v in params.items() if k in ("d", "k", "m", "n", "size")},
        "seed": seed,
    }
    sm = build_sofic(desc, seed=seed)
    report = good_vertices(sm, groups.ball(sm.spec, params.get("r", 2)))
    return {"provenance": sm.provenance, **report.to_dict()}


def run_tssm_check(model: Model, params: dict) -> dict:
    m, radius = params.get("range", 1), params.get("radius", 3)
    if m > radius:
        raise SchemaError(f"params.range must be at most params.radius = {radius}, got {m}")
    verdict = check_tssm(model.structure, model.spec, m=m, radius=radius, k_max=params.get("kmax", 3))
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


def run_size_sweep(experiment: str, model: Model, params: dict, seed: int):
    """A pressure or entropy sweep over the builder of params.builder_desc,
    else of the model's sofic block, which must make as many generators as
    the model's group has."""
    desc = params.get("builder_desc")
    if desc is None:
        if model.sofic is None:
            raise SchemaError("pressure/entropy need a builder: --builder, params.builder_desc or a model 'sofic' block")
        desc = {"builder": model.sofic["builder"], **model.sofic.get("params", {}), "seed": model.sofic.get("seed", 0)}
    generators = builder_generators(desc)
    if generators != model.spec.rank:
        raise SchemaError(f"the {desc['builder']} builder makes {generators} generators; "
                          f"the model's group has {model.spec.rank}")
    return size_sweep(experiment, model.structure, model.potential, desc, params["sizes"],
                      method=params.get("method", "auto"), seed=seed, mcmc_kwargs=params.get("mcmc"))


def run_ssm_profile(model: Model, params: dict):
    prof = ssm_profile(model.structure, model.potential, model.spec, params.get("rmax"))
    return [{"r": r + 1, "beta_hat": float(b)} for r, b in enumerate(prof)]


def run_kp_estimate(model: Model, params: dict, seed: int) -> dict:
    r = params.get("r", 16)
    N = params.get("N", 200_000)
    nu = params.get("nu", "fixed0")
    past = params.get("past", "percolation")
    if past == "lex" and model.spec.kind != "zd":
        raise SchemaError("past lex is the lexicographic order of Z^d")
    if nu == "mu":
        if model.spec.rank != 1:
            raise SchemaError("nu mu samples the measure exactly only on rank-1 groups")
        if past != "percolation":
            raise SchemaError(f"nu mu averages over percolation pasts only, got past {past!r}")
        N_inner = params.get("N_inner", 100)
        M_outer = params.get("M_outer", N // N_inner)
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
        pad=params.get("pad", 4),
        saw_boundary=params.get("saw_boundary", "free"),
    )
    # the budget is deterministic, so computing it first changes no record;
    # a model whose budget is refused fails before the estimate is run
    beta, c_hat = truncation_budget(model.structure, model.potential, model.spec, r)
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
    lam = params.get("lambda", lam)
    root = params.get("root", 0)
    if root >= len(adj):
        raise SchemaError(f"params.root must be a vertex of the graph, below n = {len(adj)}, got {root}")
    graph = SiteGraph(len(adj), [(u, 0, w) for u in range(len(adj)) for w in adj[u] if u < w])
    lams = lam if isinstance(lam, list) else [lam] * len(adj)
    activities = [((v,), np.array([0.0, math.log(x)])) for v, x in enumerate(lams)]
    p = float(site_marginal(graph, hardcore(1, 1.0)[0], None, root, pins, activities)[1])
    if math.isnan(p):
        raise InconsistentPinsError("two adjacent vertices are pinned occupied")
    return {"root": root, "lambda": lam, "p_occupied": p, "pins": pins}


# ---------------------------------------------------------------- dispatch


def _with_lambda(model: Model, lam) -> Model:
    """The binary model with its occupied-symbol activity set to lam."""
    weights = list(model.raw["vertex_log_weights"])
    if len(weights) != 2:
        raise SchemaError("params.lambda needs a binary alphabet")
    weights[1] = math.log(lam)
    return parse_model({**model.raw, "vertex_log_weights": weights})


def run_config(config: dict) -> dict:
    check(config, RUNCONFIG, "")
    experiment = config["experiment"]
    params = dict(config.get("params", {}))
    seed = config.get("seed", 0)
    started = time.time()
    if "model" not in config and experiment not in ("sofic-stats", "saw-marginal"):
        raise SchemaError(f"{experiment} needs a model")
    if experiment == "saw-marginal" and "graph" in config:
        params["graph"] = config["graph"]
    check(params, PARAMS[experiment], "params")
    model = load_model(config["model"]) if "model" in config else None
    if model is not None and "lambda" in params:
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
        outputs = run_size_sweep(experiment, model, params, seed)
    else:  # pragma: no cover - schema guards
        raise SchemaError(f"unknown experiment {experiment!r}")
    return {
        "experiment": experiment,
        "inputs": {k: v for k, v in config.items() if k != "output"},
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        "kernel_backend": kernels.BACKEND,
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
    p.add_argument("--builder", choices=BUILDERS)
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


def _size_sweep(experiment: str, description: str, argv):
    """The shared front end of `pressure` and `entropy`, which write the
    fields of finitemodel.SWEEP_FIELDS as CSV unless --json is given."""
    p = argparse.ArgumentParser(prog=experiment, description=description)
    p.add_argument("--model", required=True)
    _add_builder_flags(p)
    # argparse makes a ValueError here its usage error (exit 2) naming --sizes
    p.add_argument("--sizes", required=True, type=lambda text: [int(x) for x in text.split(",") if x])
    p.add_argument("--method", default="auto", choices=["auto", *METHODS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    params = {"sizes": args.sizes, "method": args.method}
    if args.builder:
        size_key = "d" if args.builder in ("torus", "folner") else "k"
        params["builder_desc"] = {"builder": args.builder, size_key: getattr(args, size_key), "seed": args.seed}
    _console(args, {"experiment": experiment, "model": args.model, "params": params, "seed": args.seed},
             SWEEP_FIELDS[experiment])


def main_pressure(argv=None):
    _size_sweep("pressure", "Normalized log partition values per size", argv)


def main_entropy(argv=None):
    _size_sweep("entropy", "Entropy-rate estimates per size", argv)


def main_ssm_profile(argv=None):
    p = argparse.ArgumentParser(prog="ssm-profile", description="Empirical mixing profile beta(r)")
    p.add_argument("--model", required=True)
    p.add_argument("--rmax", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    params = {} if args.rmax is None else {"rmax": args.rmax}
    _console(args, {"experiment": "ssm-profile", "model": args.model, "params": params},
             ["r", "beta_hat"])


def main_kp_estimate(argv=None):
    p = argparse.ArgumentParser(prog="kp-estimate", description="Random-past pressure estimate")
    accepted = PARAMS["kp-estimate"]["properties"]
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--oracle", default="auto", choices=accepted["oracle"]["enum"])
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--N", type=int, default=200_000)
    p.add_argument("--nu", default="fixed0", choices=accepted["nu"]["enum"])
    p.add_argument("--past", default="percolation", choices=accepted["past"]["enum"])
    p.add_argument("--saw-boundary", default="free", choices=accepted["saw_boundary"]["enum"])
    p.add_argument("--N-inner", type=int, default=100)
    p.add_argument("--M-outer", type=int)
    p.add_argument("--pad", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    args = p.parse_args(argv)
    params = {"r": args.r, "N": args.N, "nu": args.nu, "oracle": args.oracle, "pad": args.pad,
              "N_inner": args.N_inner, "past": args.past, "saw_boundary": args.saw_boundary}
    if args.M_outer is not None:
        params["M_outer"] = args.M_outer
    _console(args, {"experiment": "kp-estimate", "model": args.model, "params": params, "seed": args.seed})


def main_saw_marginal(argv=None):
    p = argparse.ArgumentParser(prog="saw-marginal", description="Exact hardcore root marginal of a finite graph")
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
            config = read_json(args.config, "RunConfig")
            record = run_config(config)
            out_path = config.get("output")
            _emit(record, "json", out_path)
        else:
            result = compare_configs(read_json(args.config_a, "RunConfig"),
                                     read_json(args.config_b, "RunConfig"), args.tolerance)
            _emit({"experiment": "compare", "outputs": result, "inputs": {}, "seed": None,
                   "version": __version__, "wall_time_s": 0}, "json", args.out)
            if result["verdict"] != "PASS":
                sys.exit(1)

    _run_and_exit(go)


if __name__ == "__main__":
    main()
