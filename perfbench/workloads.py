"""The benchmark's workloads: a pinned RunConfig each, and the check of its output.

Each workload's RunConfig goes through soficlab.cli.run_config unchanged, so
the benchmark times the path `soficlab run config.json` takes.  Sizes are set
so that one run takes about 1-10 s on a 2-core machine with the Python sweep
kernel, which lets a measurement window hold several runs and report medians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import references

# Monte Carlo checks accept |estimate - reference| <= Z_GATE * stderr.
# Comparing two commits takes about a hundred runs at different seeds; at 3
# standard errors about one comparison in four would fail a check by chance
# (z-scores over 40 seeds per workload had standard deviation 1.03-1.10), at
# 4 about one in a hundred.
Z_GATE = 4.0


def hardcore_model(kind: str, rank: int, lam: float) -> dict:
    """Model-file dict of the hardcore model (the schema of soficlab.modelfile)."""
    names = [f"e{i + 1}" for i in range(rank)] if kind == "Zd" else [chr(ord("a") + i) for i in range(rank)]
    return {
        "group": {"kind": kind, ("d" if kind == "Zd" else "k"): rank},
        "alphabet": 2,
        "relations": {n: [[True, True], [True, False]] for n in names},
        "vertex_log_weights": [0.0, math.log(lam)],
    }


@dataclass
class Workload:
    name: str
    why: str
    model: dict
    params: dict
    experiment: str
    # check(outputs) -> (passed, one-line explanation)
    check: Callable[[object], tuple[bool, str]]
    kernel_equality: bool = False

    def config(self, model_path: str, seed: int) -> dict:
        return {"experiment": self.experiment, "model": model_path, "params": self.params, "seed": seed}


def _within(value: float, ref: float, margin: float, what: str) -> tuple[bool, str]:
    diff = abs(value - ref)
    return diff <= margin, f"|{value:.7f} - {ref:.7f}| = {diff:.2e} vs {what} = {margin:.2e}"


def check_tdi(outputs) -> tuple[bool, str]:
    row = outputs[-1]
    return _within(row["pressure_estimate"], references.hard_square_pressure(),
                   Z_GATE * row["stderr"], f"{Z_GATE:g}*stderr")


def check_kp_saw(outputs) -> tuple[bool, str]:
    return _within(outputs["value"], references.bethe_pressure(0.3, 4),
                   Z_GATE * outputs["stderr"], f"{Z_GATE:g}*stderr")


def check_ssm(outputs) -> tuple[bool, str]:
    beta = {row["r"]: row["beta_hat"] for row in outputs}
    if sorted(beta) != [1, 2]:
        return False, f"expected radii 1 and 2, got {sorted(beta)}"
    exact1 = references.hard_square_beta(1)
    if exact1 != Fraction(15, 34):
        return False, f"brute-force beta(1) = {exact1}, expected 15/34"
    if abs(beta[1] - float(exact1)) > 1e-12:
        return False, f"beta(1) = {beta[1]!r}, expected 15/34"
    ok, text = _within(beta[2], float(references.hard_square_beta(2)), 1e-12, "tolerance")
    return ok, f"beta(1) = 15/34; beta(2): {text}"


def check_kp_transfer(outputs) -> tuple[bool, str]:
    # 3*beta/c is the truncation budget of acceptance criteria 3-4
    margin = Z_GATE * outputs["stderr"] + 3.0 * outputs["budget_beta"] / outputs["budget_c"]
    return _within(outputs["value"], references.line_pressure(1.0), margin,
                   f"{Z_GATE:g}*stderr + 3*beta/c")


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="tdi_z2",
            why="thermodynamic integration on a 16x16 Z^2 torus: the heat-bath sweep kernel is nearly all of the run",
            model=hardcore_model("Zd", 2, 1.0),
            experiment="pressure",
            params={
                "builder_desc": {"builder": "torus", "d": 2},
                "sizes": [16],
                "method": "mcmc",
                "mcmc": {"grid_points": 32, "samples_per_point": 250},
            },
            check=check_tdi,
            kernel_equality=True,
        ),
        Workload(
            name="kp_saw_f2",
            why="random-past pressure on F_2 through the SAW oracle: per-query tree builds, nearly no memo hits",
            model=hardcore_model("Free", 2, 0.3),
            experiment="kp-estimate",
            params={"oracle": "saw", "saw_boundary": "self_consistent", "r": 5, "N": 1000},
            check=check_kp_saw,
        ),
        Workload(
            name="ssm_z2",
            why="mixing profile on Z^2 to r=2: 4,352 pinned DFS site marginals, the exact-enumeration engine alone",
            model=hardcore_model("Zd", 2, 1.0),
            experiment="ssm-profile",
            params={"rmax": 2},
            check=check_ssm,
        ),
        Workload(
            name="kp_transfer_z1",
            why="random-past pressure on Z^1 against mu: one vectorised transfer-oracle batch of 800k rows, the memory peak",
            model=hardcore_model("Zd", 1, 1.0),
            experiment="kp-estimate",
            params={"oracle": "transfer", "r": 16, "nu": "mu", "N": 800_000, "N_inner": 100},
            check=check_kp_transfer,
        ),
    ]
}
