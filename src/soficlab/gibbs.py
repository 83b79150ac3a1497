"""Mixing diagnostics of the specification: the empirical strong-spatial-mixing
profile and the uniform lower bound on single-site conditionals, the two parts
of the truncation budget of `randominfo.truncation_budget`.

Finite-window conditionals are true conditionals of the Boltzmann weights
(interface edge terms counted in both directions), read from exact
elimination or from the transfer chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby, islice, product

import numpy as np

from . import enumeration, groups
from .constraints import ConstraintStructure, Potential, core_symbols
from .enumeration import SiteGraph
from .errors import BudgetExceededError, EmptyFiberError
from .groups import GroupSpec
from .marginals import make_oracle
from .transfer import build_transfer

SSM_BOUNDARY_PATTERNS = 8192  # of one shell in `ssm_profile`: on Z^2 over 2 symbols, r <= 2
SSM_RMAX = 8  # the largest radius of an `ssm_profile` whose r_max is not given
UNIFORM_BOUND_SUBSETS = 4096  # the pinned subsets of B_r that `uniform_bound_c` tries


def ssm_profile(structure: ConstraintStructure, potential: Potential, spec: GroupSpec,
                r_max: int | None = None) -> np.ndarray:
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
    periodic line, are skipped.  Without r_max the profile runs to
    SSM_RMAX, and on the enumeration route stops before the first radius
    past that budget; only a budget that refuses r = 1 raises then.
    """
    given = r_max is not None
    r_max = r_max if given else SSM_RMAX
    if spec.rank == 1:
        return build_transfer(structure, potential).mixing_profile(r_max, core_symbols(structure))
    out = []
    for r in range(1, r_max + 1):
        shell = groups.boundary_shell(spec, r)
        if structure.alphabet ** len(shell) > SSM_BOUNDARY_PATTERNS:
            if out and not given:
                break
            raise BudgetExceededError(
                f"{structure.alphabet}^{len(shell)} boundary patterns at r={r}; lower r_max"
            )
        out.append(_beta_enumeration(structure, potential, spec, r))
    return np.array(out)


def _beta_enumeration(structure, potential, spec, r) -> float:
    """beta(r) from one joint table of the center and the shell on B_{r+1}:
    the center conditional given each core-valued boundary of positive mass.

    The table is `enumeration.joint_distribution` of the center, then the
    shell, with nothing pinned: one axis per site over the whole alphabet.
    Its core-valued boundaries are read in place, with no dict of keys, as
    the columns of one row per center symbol."""
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
    # one row per center symbol, one column per core-valued boundary: each
    # reduction over the boundaries runs along a contiguous row
    columns = table.reshape(a, -1)
    columns = columns.compress(columns.any(axis=0), axis=1)
    if not columns.shape[1]:
        raise EmptyFiberError("no admissible boundary at this radius")
    # each boundary's total is the sum of a contiguous row of a (boundary, symbol) table, added in its order
    columns = columns / np.ascontiguousarray(columns.T).sum(axis=1)
    return float(np.max(columns.max(axis=1) - columns.min(axis=1)))


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
    core-valued pins on subsets of B_r minus the center: the first
    UNIFORM_BOUND_SUBSETS subsets by size, then in `combinations` order,
    each with its values in `product` order.  Those whose pins break the
    relation on an edge between two pinned sites are skipped, and the rows
    of all the others go to the oracle in one batch.  The conditionings of
    one subset size are arrays: a row of pins over B_r per (subset, values)
    pair, tested against each edge between non-center sites at once.
    """
    oracle = make_oracle("auto", structure, potential, spec, r, pad=3)
    b = groups.ball(spec, r)
    n, a = len(b), structure.alphabet
    core = core_symbols(structure)
    subsets = list(islice(chain.from_iterable(combinations(range(1, n), k) for k in range(n)), UNIFORM_BOUND_SUBSETS))
    inner = [(i, s, j) for (i, s, j) in b.edges if i and j]  # the center is never pinned
    owners, pinned, held = [], [], []  # per conditioning: its subset, its pins over B_r (0 where free), its mask
    first = 0
    for size, group in groupby(subsets, len):
        group, patterns = list(group), list(product(core, repeat=size))
        m, p = len(group), len(patterns)
        sites = np.array(group, dtype=np.intp).reshape(m, size)
        patterns = np.array(patterns, dtype=np.int64).reshape(p, size)
        values = np.zeros((m, p, n), dtype=np.int64)
        values[np.arange(m)[:, None, None], np.arange(p)[:, None], sites[:, None, :]] = patterns
        mask = np.zeros((m, n), dtype=bool)
        mask[np.arange(m)[:, None], sites] = True
        ok = np.ones((m, p), dtype=bool)
        for (i, s, j) in inner:
            ok &= ~(mask[:, i] & mask[:, j])[:, None] | structure.allowed[s][values[:, :, i], values[:, :, j]]
        ok = ok.ravel()  # subset-major, values-minor: the conditionings' order
        owner = np.repeat(np.arange(m), p)[ok]
        owners.append(first + owner)
        pinned.append(values.reshape(m * p, n)[ok])
        held.append(mask[owner])
        first += m
    owners = np.concatenate(owners)
    # one row per center symbol and conditioning, all asked in one batch
    rows = np.repeat(np.concatenate(pinned)[:, None, :], a, axis=1)
    rows[:, :, 0] = np.arange(a)
    masks = np.repeat(np.concatenate(held)[:, None, :], a, axis=1)
    probs = oracle.batch(rows.reshape(-1, n), masks.reshape(-1, n)).reshape(-1, a)[:, list(core)]
    # the first smallest positive conditional, in conditioning then symbol order
    positive = np.where(probs > 0.0, probs, math.inf).ravel()
    c_hat = math.inf
    witness = {}
    if (positive < math.inf).any():
        k = int(np.argmin(positive))
        subset = subsets[owners[k // len(core)]]
        c_hat = float(positive[k])
        witness = {"subset": subset, "values": tuple(rows[k // len(core), 0, list(subset)].tolist()),
                   "symbol": core[k % len(core)]}
    m_size = len(groups.ball(spec, 1))
    log_c_formula = (
        -(m_size**4 + m_size**6) * math.log(structure.alphabet)
        - 2.0 * potential.norm() * m_size**4
    )
    return UniformBound(c_hat, log_c_formula, witness)
