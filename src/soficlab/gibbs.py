"""Specifications, derived Gibbs measures, entropies, and mixing diagnostics.

Exact tables are built by enumeration; finite-window conditional kernels are
true conditionals of the Boltzmann weights (interface edge terms counted in
both directions), which is what the exact-table cross checks require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import enumeration, groups
from .config import exact_table_cap
from .constraints import ConstraintStructure, Pattern, Potential, core_symbols
from .enumeration import SiteGraph
from .errors import BudgetExceededError, CapExceededError, EmptyFiberError, NoSafeSymbolError
from .finitemodel import DerivedSpace, _iter_Xn, choose_method, derived_energy, partition_cycle_decomposition
from .finitemodel import partition_mcmc, partition_transfer_cycle
from .groups import GroupSpec
from .marginals import BallEnumerationOracle, make_oracle
from .sampling import GlauberEngine
from .schema import MCMC, check
from .transfer import build_transfer


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

    def tv(self, other: "BallDistribution") -> float:
        keys = set(self.table) | set(other.table)
        return 0.5 * sum(abs(self.table.get(k, 0.0) - other.table.get(k, 0.0)) for k in keys)


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
    exactly r+1) and be admissible with some interior filling.
    """
    b = groups.ball(spec, r + 1)
    shell = set(groups.boundary_shell(spec, r))
    missing = shell - set(boundary.sites)
    if missing:
        raise ValueError(f"boundary must cover the whole shell; missing {sorted(missing)[:3]}")
    graph = SiteGraph.from_ball(b)
    pins = {b.index[g]: v for g, v in zip(boundary.sites, boundary.values) if g in shell}
    interior = [i for i, g in enumerate(b.elements) if g not in shell]
    dist = enumeration.joint_distribution(graph, structure, potential, interior, pins=pins)
    if not dist:
        raise EmptyFiberError("no interior completion of the given boundary")
    return BallDistribution(spec, r, dist)


@dataclass
class ExactGibbs:
    space: DerivedSpace
    configs: np.ndarray  # (N, n) int8
    log_weights: np.ndarray
    log_Z: float
    probs: np.ndarray


def derived_gibbs_exact(space: DerivedSpace, cap: int | None = None) -> ExactGibbs:
    cap = exact_table_cap() if cap is None else cap
    if space.n > cap:
        raise CapExceededError(f"n={space.n} exceeds exact table cap {cap}")
    configs, logws = [], []

    def visit(values, lw):
        configs.append(tuple(values))
        logws.append(lw)

    _iter_Xn(space, visit)
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


def sample_derived_gibbs(
    space: DerivedSpace, sweeps: int, seed: int, n_samples: int = 1, thin: int = 1, burn: int | None = None
) -> np.ndarray:
    """Heat-bath samples of the derived Gibbs measure, shape (n_samples, n).

    Runs `sweeps` burn-in sweeps from the all-safe configuration (default
    burn-in is the full `sweeps` budget when sampling once), then `thin`
    sweeps between retained samples.
    """
    if space.safe_symbol is None:
        raise NoSafeSymbolError("heat-bath sampling needs a safe symbol")
    rng = np.random.default_rng(np.random.SeedSequence([seed, space.n, 0x6B5]))
    engine = GlauberEngine(space.sm, space.structure, space.potential)
    x = engine.initial_state(space.safe_symbol)
    engine.sweeps(x, sweeps if burn is None else burn, rng)
    out = np.empty((n_samples, space.n), dtype=np.int8)
    out[0] = x
    for i in range(1, n_samples):
        engine.sweeps(x, thin, rng)
        out[i] = x
    return out


def empirical_distribution(x: np.ndarray, sm, r: int) -> BallDistribution:
    """Average over vertices of point masses at the B_r pullback windows."""
    b = groups.ball(sm.spec, r)
    W = np.stack([sm.sigma_array(g) for g in b.elements])  # (L, n)
    vals = np.asarray(x)[W]  # (L, n)
    table: dict[tuple, float] = {}
    inc = 1.0 / sm.n
    for v in range(sm.n):
        key = tuple(int(a) for a in vals[:, v])
        table[key] = table.get(key, 0.0) + inc
    return BallDistribution(sm.spec, r, table)


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
        samples = sample_derived_gibbs(
            space, sweeps=burn, seed=seed, n_samples=n_samples, thin=thin, burn=burn
        )
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


def ssm_profile(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    r_max: int,
    method: str = "auto",
    max_boundary_patterns: int = 8192,
) -> np.ndarray:
    """Empirical strong-spatial-mixing profile beta(r), r = 1..r_max.

    beta(r) is the largest change of the center conditional when the boundary
    condition on the shell at distance r+1 is varied over admissible values;
    it lower-bounds the true decay function on the tested family.  The
    enumeration route reads every boundary from one joint table of the center
    and the shell, computed by variable elimination; it is budgeted by that
    table's size: shells with more than max_boundary_patterns patterns over
    the whole alphabet raise BudgetExceededError.  (The table holds boundary
    values outside the core symbols too, so counting core-valued patterns
    alone would not bound it.)  The transfer route (rank 1) reads every
    radius from the scaled powers of the transfer matrix
    (`TransferMatrix.mixing_profile`); on both routes boundaries of
    probability zero, such as those of a periodic line, are skipped.
    """
    if method == "auto":
        method = "transfer" if spec.rank == 1 else "enumeration"
    if method == "transfer":
        return build_transfer(structure, potential).mixing_profile(r_max, core_symbols(structure))
    if method != "enumeration":
        raise ValueError(f"unknown method {method!r}")
    out = np.zeros(r_max + 1)
    for r in range(1, r_max + 1):
        shell = groups.boundary_shell(spec, r)
        if structure.alphabet ** len(shell) > max_boundary_patterns:
            raise BudgetExceededError(
                f"{structure.alphabet}^{len(shell)} boundary patterns at r={r}; lower r_max"
            )
        out[r] = _beta_enumeration(structure, potential, spec, r)
    return out[1:]


def _beta_enumeration(structure, potential, spec, r) -> float:
    """beta(r) from one joint table of the center and the shell on B_{r+1}:
    the center conditional given each core-valued boundary of positive mass.

    The table is the dense elimination table of `enumeration._eliminate`,
    one axis per site (center first, then the shell) over the whole
    alphabet, normalised as `joint_distribution` normalises it; its
    core-valued boundaries are read in place, with no dict of keys."""
    b = groups.ball(spec, r + 1)
    shell = [b.index[g] for g in groups.boundary_shell(spec, r)]
    center = b.index[groups.identity(spec)]
    a = structure.alphabet
    res = enumeration._eliminate(SiteGraph.from_ball(b), structure, potential, {},
                                 np.arange(a), [center, *shell])
    if res is None:
        raise EmptyFiberError("no admissible boundary at this radius")
    table = res[1] / res[1].sum()
    core = list(core_symbols(structure))
    # one row per core-valued boundary, one column per center symbol
    conditionals = np.moveaxis(table[np.ix_(range(a), *[core] * len(shell))], 0, -1).reshape(-1, a)
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
    max_subsets: int = 4096,
) -> UniformBound:
    """Empirical minimum single-site conditional probability over conditionings
    inside B_r, against the closed-form positive lower bound
    |A|^(-|M|^4) e^(-2|phi||M|^4) |A|^(-|M|^6) with |M| = |B_1|.

    Every conditional comes from the `auto` oracle of `marginals.make_oracle`
    at pad 3; the ball oracle is budgeted by ball size.  Conditionings are
    core-valued pins on subsets of B_r minus the center, in ball order; those
    whose pins break the relation on an edge between two pinned sites are
    skipped, and the rows of all the others go to the oracle in one batch.
    """
    oracle = make_oracle("auto", structure, potential, spec, r, pad=3)
    if oracle.name == "ball" and len(oracle.ball) > 45:
        raise BudgetExceededError("ball too large for enumeration-backed c estimate")
    b = groups.ball(spec, r)
    a = structure.alphabet
    core = core_symbols(structure)
    conditionings = []
    n_checked = 0
    for size in range(len(b)):
        for subset in combinations(range(1, len(b)), size):
            n_checked += 1
            if n_checked > max_subsets:
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


def entropy_rate_estimate(
    structure: ConstraintStructure,
    potential: Potential,
    builder: dict,
    sizes,
    method: str = "auto",
    seed: int = 0,
    mcmc_kwargs: dict | None = None,
    sample_kwargs: dict | None = None,
):
    """Per-size H(mu_n)/n via the exact table, the transfer/cycle identities,
    or log Z (MCMC) minus a sampled energy expectation; mcmc_kwargs are a
    RunConfig's params.mcmc, checked before any size runs."""
    from .modelbuild import build_sofic

    check(mcmc_kwargs or {}, MCMC, "params.mcmc")
    rows = []
    for size in sizes:
        sm = build_sofic({**builder, "size": int(size)}, seed=seed)
        space = DerivedSpace(sm, structure, potential)
        chosen = choose_method(builder, space, method, exact_table_cap())
        stderr = 0.0
        if chosen == "exact":
            rate = shannon_entropy_exact(space) / space.n
        elif chosen == "transfer":
            mean_e = build_transfer(structure, potential).mean_energy_per_site_cycle(space.n)
            rate = partition_transfer_cycle(space).log_Z / space.n - mean_e
        elif chosen == "cycles":
            tm = build_transfer(structure, potential)
            res = partition_cycle_decomposition(space)
            mean_e = sum(
                length * tm.mean_energy_per_site_cycle(length)
                for length in res.diagnostics["cycle_lengths"]
                if length > 1
            )
            for length in res.diagnostics["cycle_lengths"]:
                if length == 1:
                    w = np.exp(potential.h + np.diag(potential.J[0]))
                    p = w / w.sum()
                    mean_e += float(p @ (potential.h + np.diag(potential.J[0])))
            rate = (res.log_Z - mean_e) / space.n
        else:
            res = partition_mcmc(space, seed=seed, **(mcmc_kwargs or {}))
            sk = {"sweeps": 200, "n_samples": 200, "thin": 2, **(sample_kwargs or {})}
            samples = sample_derived_gibbs(
                space, sweeps=sk["sweeps"], seed=seed + 1, n_samples=sk["n_samples"], thin=sk["thin"], burn=sk["sweeps"]
            )
            energies = np.array([derived_energy(space, s) for s in samples])
            se_e = energies.std(ddof=1) / math.sqrt(len(energies))
            rate = (res.log_Z - energies.mean()) / space.n
            stderr = (res.stderr + se_e) / space.n
        rows.append({"n": space.n, "entropy_rate": rate, "stderr": stderr, "method": chosen})
    return rows


def safe_boundary_reference_marginal(
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    r: int,
    pad: int = 3,
) -> BallDistribution:
    """Approximate infinite-volume marginal on B_r from enumeration on
    B_{r+pad} with an all-safe boundary shell; the gap to the true marginal
    is budgeted by the mixing profile at the pad distance.  The ball and its
    shell are those of the ball oracle at the same pad."""
    oracle = BallEnumerationOracle(structure, potential, spec, r, pad=pad)
    inner = list(range(len(groups.ball(spec, r).elements)))  # ball-order prefix
    table = enumeration.joint_distribution(oracle.graph, structure, potential, inner, pins=oracle.shell_pins)
    return BallDistribution(spec, r, table)


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
