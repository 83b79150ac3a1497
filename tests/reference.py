"""Reference routes that only the tests use, built on soficlab: full Gibbs
tables of derived spaces by enumeration, window pushforwards and local weak*
gaps, the group-side specification on a ball, the infinite-volume window
marginal of a rank-1 transfer chain, the correction lemma's membership,
error sets and greedy repair, and earlier forms of four package routes
(the elimination's final einsum, beta's conditionals as rows, the
conditionings of c one at a time, and balls grown by letters) that the
faster forms are checked against byte for byte.

Unlike `oracles.py`, this module imports the package; each route here is
still independent of the one a test checks it against (the tables enumerate
where `partition_exact` eliminates, the window marginal recurses over the
chain where the oracles read `conditional_tables`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from soficlab import enumeration, gibbs, groups
from soficlab.constraints import ConstraintStructure, Pattern, Potential, core_symbols
from soficlab.enumeration import SiteGraph
from soficlab.errors import CapExceededError, EmptyFiberError, NoConsistentColorError, NoSafeSymbolError
from soficlab.finitemodel import DerivedSpace, derived_energy
from soficlab.groups import CayleyBall, GroupSpec
from soficlab.sampling import sample_derived_gibbs
from soficlab.transfer import TransferMatrix, build_transfer

TABLE_CAP = 20  # the most sites of a full table of `derived_gibbs_exact`


# ---------------------------------------------------------------- Gibbs tables


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
    """The full Gibbs table of the derived space: `enumeration.all_configs`
    of the labeled sofic graph, in its DFS order, and without a safe symbol
    only the configurations whose B_2 window at every window-good vertex is
    one of `_admissible_windows`."""
    if space.n > TABLE_CAP:
        raise CapExceededError(f"n={space.n} exceeds exact table cap {TABLE_CAP}")
    configs, logws = enumeration.all_configs(SiteGraph.from_sofic(space.sm), space.structure, space.potential)
    if space.safe_symbol is None:
        windows, table = space._window_arrays[:, space.mm_good].T, space._admissible_windows
        keep = np.array([all(tuple(values[i] for i in window) in table for window in windows)
                         for values in configs], dtype=bool)
        configs, logws = [c for c, k in zip(configs, keep) if k], logws[keep]
    if not configs:
        raise EmptyFiberError("the derived space has no configuration to tabulate")
    arr = np.array(configs, dtype=np.int8)
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


def window_distribution(tm: TransferMatrix, r: int) -> dict:
    """Infinite-volume marginal of the stationary chain on the interval
    [-r..r], keyed by value tuples."""
    pi = tm.stationary()
    P = tm.step_probs()
    out: dict[tuple, float] = {}

    def rec(prefix, prob):
        if len(prefix) == 2 * r + 1:
            out[tuple(prefix)] = prob
            return
        for b in range(tm.alphabet):
            step = P[prefix[-1], b] if prefix else None
            rec(prefix + [b], prob * (step if prefix else pi[b]))

    rec([], 1.0)
    return {k: v for k, v in out.items() if v > 0.0}


def transfer_reference_marginal(
    structure: ConstraintStructure, potential: Potential, spec: GroupSpec, r: int
) -> BallDistribution:
    """Infinite-volume marginal on B_r for rank-1 groups, in ball order."""
    if spec.rank != 1:
        raise ValueError("transfer reference needs rank 1")
    tm = build_transfer(structure, potential)
    by_offset = window_distribution(tm, r)
    b = groups.ball(spec, r)
    # ball order -> offset positions within [-r..r]
    positions = [groups.line_offset(spec, g) + r for g in b.elements]
    table = {}
    for word, p in by_offset.items():
        key = tuple(word[pos] for pos in positions)
        table[key] = table.get(key, 0.0) + p
    return BallDistribution(spec, r, table)


# ---------------------------------------------------------------- correction lemma


def pullback(space: DerivedSpace, x: np.ndarray, v: int, r: int) -> Pattern:
    """The B_r pullback name of x at v: pattern g -> x(sigma^g(v))."""
    b = groups.ball(space.spec, r)
    values = tuple(int(x[space.sm.sigma_array(g)[v]]) for g in b.elements)
    return Pattern(b.elements, values)


def _edge_violations(space: DerivedSpace, x: np.ndarray):
    """Boolean (S, n): edge v -> sigma^s(v) exists, is not a self-loop, and is violated."""
    out = np.zeros((space.sm.n_generators, space.n), dtype=bool)
    idx = np.arange(space.n)
    for s in range(space.sm.n_generators):
        dst = space.sm.perms[s]
        real = dst != idx
        out[s] = real & ~space.structure.allowed[s][x, x[dst]]
    return out


def is_in_Xn(space: DerivedSpace, x: np.ndarray) -> bool:
    x = np.asarray(x)
    if _edge_violations(space, x).any():
        return False
    if space.safe_symbol is None:
        W = space._window_arrays
        table = space._admissible_windows
        for v in space.mm_good:
            if tuple(int(x[W[i, v]]) for i in range(W.shape[0])) not in table:
                return False
    return True


def error_set(space: DerivedSpace, x: np.ndarray) -> np.ndarray:
    """Window-good vertices whose pulled-back B_2 window is not admissible."""
    x = np.asarray(x)
    good = space.mm_good
    if good.size == 0:
        return good
    W = space._window_arrays[:, good]  # (L, n_good)
    vals = x[W]
    ok = np.ones(good.size, dtype=bool)
    for (i, s, j) in space.mm_ball.edges:
        ok &= space.structure.allowed[s][vals[i], vals[j]]
    if space.safe_symbol is None:
        table = space._admissible_windows
        for col in np.flatnonzero(ok):
            if tuple(int(v) for v in vals[:, col]) not in table:
                ok[col] = False
    return good[~ok]


def extend_locally_consistent(
    space: DerivedSpace, partial: dict, certificate=None
) -> np.ndarray:
    """Greedy extension of a consistent partial configuration to all of V_n.

    Vertices ascend, candidate symbols ascend; with a safe symbol the greedy
    step can never get stuck, which is the certificate that the result lies
    in the derived space.  Without a safe symbol a TSSM certificate must be
    supplied, and a stuck step raises NoConsistentColorError.
    """
    if space.safe_symbol is None and (certificate is None or certificate.kind == "violated"):
        raise NoSafeSymbolError(
            "greedy extension needs a safe symbol or an explicit TSSM certificate"
        )
    x = np.full(space.n, -1, dtype=np.int8)
    for v, val in partial.items():
        x[int(v)] = val
    allowed = space.structure.allowed
    out = space.sm.perms
    inn = space.sm.perms_inv
    for v in range(space.n):
        if x[v] >= 0:
            continue
        placed = False
        for c in range(space.structure.alphabet):
            ok = True
            for s in range(space.sm.n_generators):
                o = out[s, v]
                if o != v and x[o] >= 0 and not allowed[s, c, x[o]]:
                    ok = False
                    break
                i = inn[s, v]
                if i != v and x[i] >= 0 and not allowed[s, x[i], c]:
                    ok = False
                    break
            if ok:
                x[v] = c
                placed = True
                break
        if not placed:
            raise NoConsistentColorError(
                f"no admissible symbol at vertex {v}; certificate wrong or input inconsistent"
            )
    if space.safe_symbol is None and not is_in_Xn(space, x):
        raise NoConsistentColorError(
            "greedy extension left an inadmissible window; certificate wrong or input inconsistent"
        )
    return x


def correct_errors(space: DerivedSpace, x: np.ndarray) -> np.ndarray:
    """Rewrite x inside the window-neighborhood of its error set to land in X^n.

    Agrees with x off sigma^{B_2}(error_set(x)); on maps with window-bad
    vertices the rewrite region additionally absorbs endpoints of violated
    edges that no good window sees, so the output is always a member of the
    derived space.
    """
    x = np.asarray(x, dtype=np.int8)
    errs = error_set(space, x)
    mask = np.zeros(space.n, dtype=bool)
    if errs.size:
        for g in space.mm_ball.elements:
            mask[space.sm.sigma_array(g)[errs]] = True
    viol = _edge_violations(space, x)
    for s in range(space.sm.n_generators):
        bad = np.flatnonzero(viol[s])
        # edges with one masked endpoint are repaired by the greedy refill;
        # only violations entirely outside the mask need absorbing
        uncovered = bad[~(mask[bad] | mask[space.sm.perms[s][bad]])]
        if uncovered.size:
            mask[uncovered] = True
            mask[space.sm.perms[s][uncovered]] = True
    partial = {int(v): int(x[v]) for v in np.flatnonzero(~mask)}
    return extend_locally_consistent(space, partial)


# ------------------------------------------------------------- earlier routes


def einsum_product(factors, out):
    """The final step of elimination by np.einsum, as `enumeration._product`
    replaced it: the product of (scope, table) factors whose scopes lie
    inside out, on the axes of out."""
    if not factors:
        return np.ones(())
    label = {v: k for k, v in enumerate({v for scope, _ in factors for v in scope} | set(out))}
    args = []
    for scope, table in factors:
        args += [table, [label[v] for v in scope]]
    return np.einsum(*args, [label[v] for v in out])


def beta_by_rows(structure: ConstraintStructure, potential: Potential, spec: GroupSpec, r: int) -> float:
    """beta(r) of `gibbs._beta_enumeration` read from its joint table as
    one row per core-valued boundary and one column per center symbol."""
    b = groups.ball(spec, r + 1)
    shell = [b.index[g] for g in groups.boundary_shell(spec, r)]
    a = structure.alphabet
    table = enumeration.joint_distribution(SiteGraph.from_ball(b), structure, potential, [0, *shell])
    core = list(core_symbols(structure))
    if core != list(range(a)):
        table = table[np.ix_(range(a), *[core] * len(shell))]
    conditionals = np.moveaxis(table, 0, -1).reshape(-1, a)
    conditionals = conditionals[conditionals.any(axis=1)]
    conditionals /= conditionals.sum(axis=1, keepdims=True)
    return float(np.max(conditionals.max(axis=0) - conditionals.min(axis=0)))


def uniform_bound_conditionings(structure: ConstraintStructure, spec: GroupSpec, r: int):
    """(conditionings, rows, masks) of `gibbs.uniform_bound_c`, built one
    conditioning at a time: every core-valued pin set (subset, values) on
    subsets of B_r minus the center, the first gibbs.UNIFORM_BOUND_SUBSETS
    subsets by size, skipping those that break a relation between two
    pinned sites; and the (conditioning, center symbol, site) rows and
    masks that go to the oracle."""
    b = groups.ball(spec, r)
    a = structure.alphabet
    core = core_symbols(structure)
    conditionings = []
    n_checked = 0
    for size in range(len(b)):
        for subset in combinations(range(1, len(b)), size):
            n_checked += 1
            if n_checked > gibbs.UNIFORM_BOUND_SUBSETS:
                size = None
                break
            edges = [(i, s, j) for (i, s, j) in b.edges if i in subset and j in subset]
            for values in product(core, repeat=size):
                pins = dict(zip(subset, values))
                if all(structure.allowed[s][pins[i], pins[j]] for (i, s, j) in edges):
                    conditionings.append((subset, values))
        if size is None:
            break
    rows = np.zeros((len(conditionings), a, len(b)), dtype=np.int64)
    rows[:, :, 0] = np.arange(a)
    masks = np.zeros(rows.shape, dtype=bool)
    for k, (subset, values) in enumerate(conditionings):
        rows[k][:, list(subset)] = values
        masks[k][:, list(subset)] = True
    return conditionings, rows, masks


def uniform_bound_by_loop(structure: ConstraintStructure, potential: Potential, spec: GroupSpec, r: int):
    """(c_hat, witness) of `gibbs.uniform_bound_c` from the conditionings of
    `uniform_bound_conditionings`, asked of the oracle that `gibbs` makes."""
    oracle = gibbs.make_oracle("auto", structure, potential, spec, r, pad=3)
    conditionings, rows, masks = uniform_bound_conditionings(structure, spec, r)
    core = core_symbols(structure)
    n = rows.shape[-1]
    probs = oracle.batch(rows.reshape(-1, n), masks.reshape(-1, n)).reshape(-1, structure.alphabet)[:, list(core)]
    positive = np.where(probs > 0.0, probs, math.inf).ravel()
    if not (positive < math.inf).any():
        return math.inf, {}
    k = int(np.argmin(positive))
    subset, values = conditionings[k // len(core)]
    return float(positive[k]), {"subset": subset, "values": values, "symbol": core[k % len(core)]}


def grow_ball_by_letters(prev: CayleyBall, cap: int) -> CayleyBall:
    """B_{r+1} from B_r = prev as `groups._next_ball` grows it on Z^d, on
    every group: the shell from `apply_letter` on each element of shell r
    and letter, less what prev holds, and each edge by an index lookup."""
    spec, r = prev.spec, prev.radius
    signed = [s for i in range(spec.rank) for s in (i + 1, -(i + 1))]
    index = prev.index
    shell = sorted({h for g in prev.shell(r) for letter in signed
                    if (h := groups.apply_letter(spec, letter, g)) not in index})
    total = len(prev) + len(shell)
    if total > cap:
        raise CapExceededError(f"ball size exceeds cap {cap}")
    elements = prev.elements + tuple(shell)
    index = dict(index)
    index.update((g, i) for i, g in enumerate(shell, len(prev)))
    lo = len(prev) - prev.shell_sizes[r]
    keep = len(prev.edges)
    while keep and prev.edges[keep - 1][0] >= lo:
        keep -= 1
    edges = list(prev.edges[:keep])
    for i in range(lo, total):
        g = elements[i]
        for s in range(spec.rank):
            j = index.get(groups.apply_letter(spec, s + 1, g))
            if j is not None:
                edges.append((i, s, j))
    return CayleyBall(spec=spec, radius=r + 1, elements=elements, index=index, edges=tuple(edges),
                      shell_sizes=prev.shell_sizes + (len(shell),))
