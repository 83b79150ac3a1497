"""Specifications, derived Gibbs measures, and mixing diagnostics.

Exact tables are built by enumeration, up to TABLE_CAP sites; they are the
tests' reference for the log Z and mean energy that `finitemodel`'s exact
route computes by elimination, with no table.  Finite-window conditional kernels are true
conditionals of the Boltzmann weights (interface edge terms counted in both
directions), which is what the exact-table cross checks require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import enumeration, groups
from .constraints import ConstraintStructure, Pattern, Potential, core_symbols
from .enumeration import SiteGraph
from .errors import BudgetExceededError, CapExceededError, EmptyFiberError
from .finitemodel import DerivedSpace, _iter_Xn, derived_energy
from .groups import GroupSpec
from .marginals import make_oracle
from .sampling import sample_derived_gibbs
from .transfer import build_transfer

SSM_BOUNDARY_PATTERNS = 8192  # of one shell in `ssm_profile`: on Z^2 over 2 symbols, r <= 2
UNIFORM_BOUND_SUBSETS = 4096  # the pinned subsets of B_r that `uniform_bound_c` tries
TABLE_CAP = 20  # the most sites of a full table of `derived_gibbs_exact`


@dataclass
class BallDistribution:
    """Distribution over patterns on the ball B_r, keyed by value tuples in ball order."""

    spec: GroupSpec
    radius: int
    table: dict

    def check_normalized(self, tol: float = 1e-12):
        total = sum(self.table.values())
        if abs(total - 1.0) > tol:
            raise ValueError(f"distribution sums to {total}")


def tv_tables(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def specification_ball(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    r: int,
    boundary: Pattern,
) -> BallDistribution:
    """Exact conditional distribution on A^{B_r} given a boundary on the shell.

    The boundary pattern must cover the B_1-boundary of B_r (word length
    exactly r+1) and be admissible with some interior filling.  The table
    is the positive entries of `enumeration.joint_distribution` of the interior.
    """
    b = groups.ball(spec, r + 1)
    shell = set(groups.boundary_shell(spec, r))
    missing = shell - set(boundary.sites)
    if missing:
        raise ValueError(f"boundary must cover the whole shell; missing {sorted(missing)[:3]}")
    graph = SiteGraph.from_ball(b)
    pins = {b.index[g]: v for g, v in zip(boundary.sites, boundary.values) if g in shell}
    interior = [i for i, g in enumerate(b.elements) if g not in shell]
    table = enumeration.joint_distribution(graph, structure, potential, interior, pins=pins)
    if table is None:
        raise EmptyFiberError("no interior completion of the given boundary")
    keys = product(range(structure.alphabet), repeat=len(interior))  # C order: the last site fastest
    return BallDistribution(spec, r, {key: p for key, p in zip(keys, table.ravel().tolist()) if p > 0.0})


@dataclass
class ExactGibbs:
    space: DerivedSpace
    configs: np.ndarray  # (N, n) int8
    log_weights: np.ndarray
    log_Z: float
    probs: np.ndarray


def derived_gibbs_exact(space: DerivedSpace) -> ExactGibbs:
    if space.n > TABLE_CAP:
        raise CapExceededError(f"n={space.n} exceeds exact table cap {TABLE_CAP}")
    configs, logws = [], []

    def visit(values, lw):
        configs.append(tuple(values))
        logws.append(lw)

    _iter_Xn(space, visit)
    if not configs:
        raise EmptyFiberError("the derived space has no configuration to tabulate")
    arr = np.array(configs, dtype=np.int8)
    logws = np.array(logws)
    m = logws.max()
    raw = np.exp(logws - m)
    z = raw.sum()
    return ExactGibbs(space, arr, logws, m + math.log(z), raw / z)


def shannon_entropy_exact(space: DerivedSpace, table: ExactGibbs | None = None) -> float:
    t = derived_gibbs_exact(space) if table is None else table
    p = t.probs[t.probs > 0]
    return float(-(p * np.log(p)).sum())


def mean_energy_exact(table: ExactGibbs) -> float:
    return float(
        sum(p * derived_energy(table.space, x) for p, x in zip(table.probs, table.configs))
    )


def pushforward_tables(space: DerivedSpace, r: int, probe) -> list[dict]:
    """Per-vertex window distributions (Pi_v^{sigma,r})_* mu_n.

    probe = ("exact",) uses the full table; probe = ("sampled", n_samples,
    thin, burn, seed) estimates from heat-bath samples.
    """
    b = groups.ball(space.spec, r)
    W = np.stack([space.sm.sigma_array(g) for g in b.elements])
    L = W.shape[0]
    a = space.structure.alphabet
    codes = a ** np.arange(L)
    n_codes = a**L
    if n_codes > 10**7:
        raise CapExceededError("window too large to tabulate; reduce r")
    if probe[0] == "exact":
        table = derived_gibbs_exact(space)
        weights = table.probs
        samples = table.configs
    elif probe[0] == "sampled":
        _, n_samples, thin, burn, seed = probe
        samples = sample_derived_gibbs(space, sweeps=burn, seed=seed, n_samples=n_samples, thin=thin)
        weights = np.full(len(samples), 1.0 / len(samples))
    else:
        raise ValueError(f"unknown probe {probe[0]!r}")
    out = []
    for v in range(space.n):
        window_codes = samples[:, W[:, v]] @ codes
        mass = np.bincount(window_codes, weights=weights, minlength=n_codes)
        nz = np.flatnonzero(mass)
        out.append(
            {tuple(int(c // codes[i] % a) for i in range(L)): float(mass[c]) for c in nz}
        )
    return out


def local_weakstar_gap(
    space: DerivedSpace, reference: BallDistribution, r: int, eps: float, probe
) -> float:
    """Fraction of vertices whose window pushforward is farther than eps in TV."""
    ref = reference.table
    tables = pushforward_tables(space, r, probe)
    bad = sum(1 for t in tables if tv_tables(t, ref) > eps)
    return bad / space.n


def ssm_profile(structure: ConstraintStructure, potential: Potential, spec: GroupSpec, r_max: int) -> np.ndarray:
    """Empirical strong-spatial-mixing profile beta(r), r = 1..r_max.

    beta(r) is the largest change of the center conditional when the boundary
    condition on the shell at distance r+1 is varied over admissible values;
    it lower-bounds the true decay function on the tested family.  On rank-1
    groups every radius is read from the scaled powers of the transfer
    matrix (`TransferMatrix.mixing_profile`).  Elsewhere each radius is
    `_beta_enumeration`, one joint table of the center and the shell; it is
    budgeted by that table's size: shells with more than
    SSM_BOUNDARY_PATTERNS patterns over the whole alphabet raise
    BudgetExceededError.  (The table holds boundary values outside the core
    symbols too, so counting core-valued patterns alone would not bound it.)
    On both routes boundaries of probability zero, such as those of a
    periodic line, are skipped.
    """
    if spec.rank == 1:
        return build_transfer(structure, potential).mixing_profile(r_max, core_symbols(structure))
    out = np.zeros(r_max + 1)
    for r in range(1, r_max + 1):
        shell = groups.boundary_shell(spec, r)
        if structure.alphabet ** len(shell) > SSM_BOUNDARY_PATTERNS:
            raise BudgetExceededError(
                f"{structure.alphabet}^{len(shell)} boundary patterns at r={r}; lower r_max"
            )
        out[r] = _beta_enumeration(structure, potential, spec, r)
    return out[1:]


def _beta_enumeration(structure, potential, spec, r) -> float:
    """beta(r) from one joint table of the center and the shell on B_{r+1}:
    the center conditional given each core-valued boundary of positive mass.

    The table is `enumeration.joint_distribution` of the center, then the
    shell, with nothing pinned: one axis per site over the whole alphabet.
    Its core-valued boundaries are read in place, with no dict of keys."""
    b = groups.ball(spec, r + 1)
    shell = [b.index[g] for g in groups.boundary_shell(spec, r)]
    center = b.index[groups.identity(spec)]
    a = structure.alphabet
    table = enumeration.joint_distribution(SiteGraph.from_ball(b), structure, potential, [center, *shell])
    if table is None:
        raise EmptyFiberError("no admissible boundary at this radius")
    core = list(core_symbols(structure))
    if core != list(range(a)):  # else every boundary is core-valued: no copy
        table = table[np.ix_(range(a), *[core] * len(shell))]
    # one row per core-valued boundary, one column per center symbol
    conditionals = np.moveaxis(table, 0, -1).reshape(-1, a)
    conditionals = conditionals[conditionals.any(axis=1)]
    if not len(conditionals):
        raise EmptyFiberError("no admissible boundary at this radius")
    conditionals /= conditionals.sum(axis=1, keepdims=True)
    return float(np.max(conditionals.max(axis=0) - conditionals.min(axis=0)))


@dataclass
class UniformBound:
    c_hat: float
    log_c_formula: float
    witness: dict = field(default_factory=dict)

    @property
    def satisfies_formula(self) -> bool:
        return math.log(self.c_hat) >= self.log_c_formula if self.c_hat > 0 else False


def uniform_bound_c(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    r: int,
) -> UniformBound:
    """Empirical minimum single-site conditional probability over conditionings
    inside B_r, against the closed-form positive lower bound
    |A|^(-|M|^4) e^(-2|phi||M|^4) |A|^(-|M|^6) with |M| = |B_1|.

    Every conditional comes from the `auto` oracle of `marginals.make_oracle`
    at pad 3; the ball oracle is bounded, like every elimination, by its
    plan's table cap alone (CapExceededError).  Conditionings are
    core-valued pins on subsets of B_r minus the center, in ball order; those
    whose pins break the relation on an edge between two pinned sites are
    skipped, and the rows of all the others go to the oracle in one batch.
    """
    oracle = make_oracle("auto", structure, potential, spec, r, pad=3)
    b = groups.ball(spec, r)
    a = structure.alphabet
    core = core_symbols(structure)
    conditionings = []
    n_checked = 0
    for size in range(len(b)):
        for subset in combinations(range(1, len(b)), size):
            n_checked += 1
            if n_checked > UNIFORM_BOUND_SUBSETS:
                size = None
                break
            edges = [(i, s, j) for (i, s, j) in b.edges if i in subset and j in subset]
            for values in product(core, repeat=size):
                pins = dict(zip(subset, values))
                if all(structure.allowed[s][pins[i], pins[j]] for (i, s, j) in edges):
                    conditionings.append((subset, values))
        if size is None:
            break
    # one row per center symbol and conditioning, all asked in one batch
    rows = np.zeros((len(conditionings), a, len(b)), dtype=np.int64)
    rows[:, :, 0] = np.arange(a)
    masks = np.zeros(rows.shape, dtype=bool)
    for k, (subset, values) in enumerate(conditionings):
        rows[k][:, list(subset)] = values
        masks[k][:, list(subset)] = True
    probs = oracle.batch(rows.reshape(-1, len(b)), masks.reshape(-1, len(b))).reshape(-1, a)[:, list(core)]
    # the first smallest positive conditional, in conditioning then symbol order
    positive = np.where(probs > 0.0, probs, math.inf).ravel()
    c_hat = math.inf
    witness = {}
    if (positive < math.inf).any():
        k = int(np.argmin(positive))
        subset, values = conditionings[k // len(core)]
        c_hat = float(positive[k])
        witness = {"subset": subset, "values": values, "symbol": core[k % len(core)]}
    m_size = len(groups.ball(spec, 1))
    log_c_formula = (
        -(m_size**4 + m_size**6) * math.log(structure.alphabet)
        - 2.0 * potential.norm() * m_size**4
    )
    return UniformBound(c_hat, log_c_formula, witness)


def transfer_reference_marginal(
    structure: ConstraintStructure, potential: Potential, spec: GroupSpec, r: int
) -> BallDistribution:
    """Infinite-volume marginal on B_r for rank-1 groups, in ball order."""
    if spec.rank != 1:
        raise ValueError("transfer reference needs rank 1")
    tm = build_transfer(structure, potential)
    by_offset = tm.window_distribution(r)
    b = groups.ball(spec, r)
    # ball order -> offset positions within [-r..r]
    positions = [groups.line_offset(spec, g) + r for g in b.elements]
    table = {}
    for word, p in by_offset.items():
        key = tuple(word[pos] for pos in positions)
        table[key] = table.get(key, 0.0) + p
    return BallDistribution(spec, r, table)
