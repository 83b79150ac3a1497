"""Truncated and random information functions, and the random-past pressure
and entropy estimators built from them.

The truncated information of a pattern x given a site set D is
f_r(x, D) = -log mu(x at center | x on D within B_r); averaging over random
pasts and adding the potential read at the center gives, for a fixed point
pattern of a safe symbol or for patterns sampled from mu itself, a Monte
Carlo estimator of the pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import groups, pasts
from .constraints import ConstraintStructure, Potential, detect_safe_symbol
from .errors import BallMismatchError, NoSafeSymbolError, SchemaError, ZeroProbabilityError
from .gibbs import ssm_profile, uniform_bound_c
from .groups import GroupSpec
from .marginals import make_oracle
from .pasts import lex_past_mask
from .transfer import build_transfer


@dataclass
class InfoEstimate:
    value: float
    stderr: float
    r: int
    n_samples: int
    oracle: str
    parts: dict = field(default_factory=dict)


def _checked(p):
    """The oracle conditionals p, each of which must lie in (0, 1].  The
    check is two reductions, so it allocates nothing unless it fails (a nan
    fails both)."""
    arr = np.asarray(p)
    if arr.size and not (arr.min() > 0.0 and arr.max() <= 1.0):
        bad = ~((arr > 0.0) & (arr <= 1.0))
        raise ZeroProbabilityError(
            f"oracle conditional {arr[bad].flat[0]!r} is not in (0, 1]: the pattern's center "
            "has probability zero given its conditioning sites"
        )
    return p


def info_fn_truncated(oracle, spec: GroupSpec, values, mask, r: int) -> float:
    """f_r(x, D) = -log of the oracle conditional of the center symbol given
    the D-sites of x inside B_r: the query is x and D sliced to the ball
    order prefix B_r."""
    L_r = len(groups.ball(spec, r).elements)
    p = oracle.conditional(np.asarray(values)[:L_r], np.asarray(mask)[:L_r])
    return -math.log(_checked(p))


def _streamed_info(oracle, spec: GroupSpec, r: int, patterns: np.ndarray, n_inner: int, rng) -> np.ndarray:
    """f = -log of the oracle conditional on len(patterns) * n_inner rows.

    Row k pairs patterns[k // n_inner] with the k-th percolation past on B_r
    drawn from rng, truncated to the pattern width.  The oracle fills f in
    one `percolation_batch`, which bounds its own rows in memory (the
    transfer and tree oracles draw each past inside their kernels, the ball
    oracle takes bounded chunks); f is then checked and logged in place, in
    slices of at most `pasts.CHUNK_FLOATS` entries, so only the flat f
    grows with the row count.
    """
    n = len(patterns) * n_inner
    f = np.empty(n)
    oracle.percolation_batch(patterns, n_inner, len(groups.ball(spec, r).elements), rng, f)
    step = pasts.CHUNK_FLOATS
    for lo in range(0, n, step):
        part = f[lo:lo + step]
        np.negative(np.log(_checked(part), out=part), out=part)
    return f


def random_info(
    oracle,
    spec: GroupSpec,
    values,
    r: int,
    N: int,
    seed: int,
    past: str = "percolation",
) -> InfoEstimate:
    """Monte Carlo mean of f_r(x, P ∩ B_r) over N random pasts P.

    The percolation past draws i.i.d. uniforms on B_r; the N rows go
    through `_streamed_info`, one `percolation_batch` of the oracle, so the
    cost in memory is the N values of f.  It needs N >= 2 pasts for a
    standard error.  The lexicographic past (Z^d only) is deterministic, so a
    single evaluation suffices.
    """
    values = np.asarray(values, dtype=np.int64)
    L_r = len(groups.ball(spec, r).elements)
    vals = values[:L_r]
    if past == "lex":
        mask = lex_past_mask(spec, r)
        f = info_fn_truncated(oracle, spec, vals, mask, r)
        return InfoEstimate(f, 0.0, r, 1, oracle.name)
    if past != "percolation":
        raise SchemaError(f"unknown past {past!r}; expected percolation or lex")
    if N < 2:
        raise SchemaError(f"the percolation past needs N >= 2 pasts for a standard error, got {N}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, r, 0x1FF0]))
    f = _streamed_info(oracle, spec, r, vals[None, :], N, rng)
    return InfoEstimate(float(f.mean()), float(f.std(ddof=1) / math.sqrt(N)), r, N, oracle.name)


def _potentials_at_center(potential: Potential, spec: GroupSpec, patterns: np.ndarray) -> np.ndarray:
    """phi read at the identity of each row of (M, |B_1|+) ball patterns,
    h(x_0) + J_0(x_0, x_{s_0}) + J_1(x_0, x_{s_1}) + ..., added in that order."""
    b1 = groups.ball(spec, 1)
    center = patterns[:, 0]
    out = potential.h[center]
    for s in range(spec.n_generators):
        idx = b1.index[groups.generator(spec, s)]
        out = out + potential.J[s, center, patterns[:, idx]]
    return out


def potential_at_center(potential: Potential, spec: GroupSpec, values) -> float:
    """phi read at the identity of a ball pattern: h(x_0) + sum_s J_s(x_0, x_s)."""
    return float(_potentials_at_center(potential, spec, np.asarray(values)[None, :])[0])


def kp_pressure_at_fixed_point(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    oracle,
    r: int,
    N: int,
    seed: int,
    past: str = "percolation",
) -> InfoEstimate:
    """Pressure estimate I(x_safe) + phi(x_safe) at the all-safe fixed point."""
    safe = detect_safe_symbol(structure)
    if safe is None:
        raise NoSafeSymbolError("fixed-point pressure formula needs a safe symbol")
    L = len(groups.ball(spec, r).elements)
    values = np.full(L, safe, dtype=np.int64)
    est = random_info(oracle, spec, values, r, N, seed, past=past)
    phi0 = potential_at_center(potential, spec, values)
    return InfoEstimate(
        est.value + phi0,
        est.stderr,
        r,
        est.n_samples,
        oracle.name,
        parts={"info": est.value, "phi": phi0},
    )


def kp_pressure_at_measure(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    oracle,
    r: int,
    N_inner: int,
    M_outer: int,
    seed: int,
) -> InfoEstimate:
    """Pressure as an integral against nu = mu: outer Monte Carlo over
    patterns of (random information + potential at the center).

    M_outer patterns of the infinite-volume measure are sampled exactly from
    its transfer chain, so the group must have rank 1, and f is averaged
    over N_inner random pasts for each.  The M_outer * N_inner (pattern,
    past) rows go through `_streamed_info` pattern-major, and no array of
    all rows' values or masks is built.  The info
    part alone estimates the entropy of mu.  The fixed-point estimator is
    `kp_pressure_at_fixed_point`.
    """
    if spec.rank != 1:
        raise SchemaError("the pressure against mu samples the measure exactly only on rank-1 groups")
    rng = np.random.default_rng(np.random.SeedSequence([seed, r, 0x0AEA]))
    windows = build_transfer(structure, potential).sample_windows(r, M_outer, rng)
    cols = [groups.line_offset(spec, g) + r for g in groups.ball(spec, r).elements]
    # one int64 copy in C order, the rows the compiled kernels read uncopied
    patterns = np.ascontiguousarray(windows[:, cols], dtype=np.int64)
    f = _streamed_info(oracle, spec, r, patterns, N_inner, rng).reshape(M_outer, N_inner)
    info_means = f.mean(axis=1)
    phis = _potentials_at_center(potential, spec, patterns)
    totals = info_means + phis
    value = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(M_outer))
    return InfoEstimate(
        value,
        stderr,
        r,
        M_outer * N_inner,
        oracle.name,
        parts={
            "info": float(info_means.mean()),
            "info_stderr": float(info_means.std(ddof=1) / math.sqrt(M_outer)),
            "phi": float(phis.mean()),
        },
    )


def percolative_entropy(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    oracle,
    r: int,
    N_inner: int,
    M_outer: int,
    seed: int,
) -> InfoEstimate:
    """Entropy of mu as the mu-average of the random information function."""
    est = kp_pressure_at_measure(structure, potential, spec, oracle, r, N_inner, M_outer, seed)
    return InfoEstimate(
        est.parts["info"], est.parts["info_stderr"], r, est.n_samples, est.oracle, parts=est.parts
    )


def default_truncation_radius(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    target_accuracy: float,
    r_max: int = 20,
) -> int:
    """Smallest r with beta(r)/c below a sixth of the target accuracy, so the
    truncation and Monte Carlo error budgets split evenly."""
    c_hat = uniform_bound_c(structure, potential, spec, min(2, r_max)).c_hat
    prof = ssm_profile(structure, potential, spec, r_max)
    for r in range(1, r_max + 1):
        if prof[r - 1] / c_hat < target_accuracy / 6.0:
            return r
    return r_max


def truncation_gap(oracle, spec: GroupSpec, values, mask, r: int, r_prime: int) -> float:
    """|f_r - f_{r'}| for the same pattern and site set."""
    if r > r_prime:
        raise ValueError("need r <= r'")
    f1 = info_fn_truncated(oracle, spec, values, mask, r)
    f2 = info_fn_truncated(oracle, spec, values, mask, r_prime)
    return abs(f1 - f2)


def truncation_budget(
    structure: ConstraintStructure, potential: Potential, spec: GroupSpec, r: int
) -> tuple[float, float]:
    """(beta, c) of the truncation budget 3 beta / c of a radius-r estimate:
    beta(min(r, 12)) and c on B_min(r, 2) on rank-1 groups, where the
    transfer routes make both cheap; beta(1) and c on B_1 elsewhere, where
    both enumerate.  The only code that picks these radii."""
    beta_r, c_r = (min(r, 12), min(r, 2)) if spec.rank == 1 else (1, 1)
    beta = float(ssm_profile(structure, potential, spec, beta_r)[-1])
    return beta, uniform_bound_c(structure, potential, spec, c_r).c_hat


def locality_experiment(
    structure: ConstraintStructure,
    potential: Potential,
    spec_a: GroupSpec,
    spec_b: GroupSpec,
    r: int,
    N: int,
    seed: int,
) -> dict:
    """Fixed-point pressure on two groups sharing a ball, with the mixing bound.

    Requires the rooted labeled (r+1)-balls to be isomorphic; reports both
    estimates, each from the `auto` oracle, and the bound beta_a/c_a +
    beta_b/c_b of the two models' truncation budgets (`truncation_budget`).
    """
    if not groups.balls_isomorphic(spec_a, spec_b, r + 1):
        raise BallMismatchError("the two groups do not share the (r+1)-ball")

    results = {}
    bound = 0.0
    for tag, spec in (("a", spec_a), ("b", spec_b)):
        oracle = make_oracle("auto", structure, potential, spec, r)
        results[tag] = kp_pressure_at_fixed_point(structure, potential, spec, oracle, r, N, seed)
        beta, c = truncation_budget(structure, potential, spec, r)
        bound += beta / c
    return {
        "p_a": results["a"],
        "p_b": results["b"],
        "difference": abs(results["a"].value - results["b"].value),
        "bound": bound,
        "joint_stderr": math.hypot(results["a"].stderr, results["b"].stderr),
    }
