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

from . import groups
from .constraints import ConstraintStructure, Potential, detect_safe_symbol
from .errors import NoSafeSymbolError, SchemaError, ZeroProbabilityError
from .gibbs import ssm_profile, uniform_bound_c
from .groups import GroupSpec
from .kernels import Pcg64
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


def _streamed_info(oracle, patterns: np.ndarray, n_inner: int, rng, means: bool = False) -> np.ndarray:
    """f = -log of the oracle conditional on len(patterns) * n_inner rows,
    or with means=True the mean of f over each pattern's n_inner rows.

    Row k pairs patterns[k // n_inner], a pattern on B_r, with the k-th
    percolation past on B_r drawn from rng, in one `percolation_batch` of
    the oracle, which hands the conditionals over in chunks of at most
    `pasts.CHUNK_FLOATS` rows (the compiled kernels from their worker
    threads).  Each chunk is checked and logged in place as it arrives;
    then the rows are stored, since the mean and spread of the fixed point
    need all of them, or, in chunks of whole patterns, each pattern's mean,
    so that nothing of size len(patterns) * n_inner is held.
    """
    out = np.empty(len(patterns) if means else len(patterns) * n_inner)

    def consume(lo, hi, p):
        info = np.negative(np.log(_checked(p), out=p), out=p)
        if means:
            out[lo // n_inner:hi // n_inner] = info.reshape(-1, n_inner).mean(axis=1)
        else:
            out[lo:hi] = info

    oracle.percolation_batch(patterns, n_inner, rng, consume, n_inner if means else 1)
    return out


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
    cost in memory is the N values of f and one chunk per range.  It needs
    N >= 2 pasts for a standard error.  The lexicographic past (Z^d only) is
    deterministic, so a single evaluation suffices.
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
    rng = Pcg64([seed, r, 0x1FF0])
    f = _streamed_info(oracle, vals[None, :], N, rng)
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
    past) rows go through `_streamed_info` pattern-major, which keeps only
    each pattern's mean: no array of all rows' values, masks or
    conditionals is built, and the patterns stay in the windows' own small
    integer dtype.  The parts "info" and "info_stderr" alone estimate the
    entropy of mu and its standard error.  The fixed-point estimator is
    `kp_pressure_at_fixed_point`.
    """
    if spec.rank != 1:
        raise SchemaError("the pressure against mu samples the measure exactly only on rank-1 groups")
    rng = Pcg64([seed, r, 0x0AEA])
    cols = [groups.line_offset(spec, g) + r for g in groups.ball(spec, r).elements]
    # in the windows' dtype, int8 up to 127 symbols, and the windows
    # themselves dropped: each range of the kernels converts only its own
    # chunk of patterns to int64
    patterns = build_transfer(structure, potential).sample_windows(r, M_outer, rng)[:, cols]
    info_means = _streamed_info(oracle, patterns, N_inner, rng, means=True)
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
