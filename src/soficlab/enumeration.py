"""Exact counting over labeled site graphs.

Partition values, mean log-weights, site marginals and joint tables of a
few sites come from min-degree variable elimination over the pairwise
factors of the Boltzmann weight, planned from the factor scopes first and
then contracted and rescaled step by step (bucket elimination: Dechter 1999;
Koller & Friedman 2009, ch. 9; the mean in the first-order expectation
semiring: Li & Eisner 2009).  Pruned depth-first enumeration (`_dfs`) gives
full tables (`all_configs`), the budgeted admissibility search, and the
tests' independent oracle.  These exact routes are what the transfer-matrix
and self-avoiding-walk routes are checked against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintStructure, Potential
from .errors import CapExceededError, SchemaError

# the most entries of one elimination table, a message or the final table:
# 2^26 float64, 512 MiB.  Each call's plan gives every table's scope before
# any is built, and stops at the first past the cap.  The hardcore lex query
# on Z^2 with the ball oracle at pad 2 needs scopes of 26 sites at r = 20,
# which fit, and more at r = 22
ELIMINATION_TABLE_CAP = 2**26


@dataclass
class SiteGraph:
    """Directed graph with generator-labeled edges on sites {0..n-1}.

    Self-loop edges carry energy but never constraints.
    """

    n: int
    edges: list  # (src, generator, dst)

    @staticmethod
    def from_ball(ball) -> "SiteGraph":
        return SiteGraph(len(ball.elements), list(ball.edges))

    @staticmethod
    def from_sofic(sm) -> "SiteGraph":
        edges = []
        for s in range(sm.n_generators):
            dst = sm.perms[s]
            for v in range(sm.n):
                edges.append((v, s, int(dst[v])))
        return SiteGraph(sm.n, edges)


def _compile(graph: SiteGraph, structure: ConstraintStructure, potential: Potential | None):
    """Per-site lists of constraints/weights against earlier sites, plus self terms."""
    a = structure.alphabet
    allowed = [structure.allowed[s].tolist() for s in range(structure.n_generators)]
    if potential is None:
        h = [0.0] * a
        J = [[[0.0] * a for _ in range(a)] for _ in range(structure.n_generators)]
    else:
        h = potential.h.tolist()
        J = [potential.J[s].tolist() for s in range(structure.n_generators)]
    back = [[] for _ in range(graph.n)]  # at site k: (s, earlier_site, outgoing?)
    selfs = [[] for _ in range(graph.n)]
    for (i, s, j) in graph.edges:
        if i == j:
            selfs[i].append(s)
        elif i < j:
            back[j].append((s, i, False))  # edge i->j, j assigned later: incoming at j
        else:
            back[i].append((s, j, True))  # edge i->j, i assigned later: outgoing at i
    return a, allowed, h, J, back, selfs


def _dfs(graph, structure, potential, pins, symbols, visit, node_budget=None):
    """Visit every admissible total configuration with its total log-weight."""
    a, allowed, h, J, back, selfs = _compile(graph, structure, potential)
    n = graph.n
    cand_all = list(symbols) if symbols is not None else list(range(a))
    values = [0] * n
    budget = [node_budget if node_budget is not None else -1]

    def rec(k: int, logw: float) -> bool:
        if k == n:
            visit(values, logw)
            return True
        if budget[0] == 0:
            return False
        if budget[0] > 0:
            budget[0] -= 1
        pinned = pins.get(k)
        cands = cand_all if pinned is None else [pinned]
        constraints = back[k]
        self_gens = selfs[k]
        for c in cands:
            w = h[c]
            ok = True
            for (s, j, outgoing) in constraints:
                other = values[j]
                if outgoing:
                    if not allowed[s][c][other]:
                        ok = False
                        break
                    w += J[s][c][other]
                else:
                    if not allowed[s][other][c]:
                        ok = False
                        break
                    w += J[s][other][c]
            if not ok:
                continue
            for s in self_gens:
                w += J[s][c][c]
            values[k] = c
            if not rec(k + 1, logw + w):
                return False
        return True

    return rec(0, 0.0)


def has_admissible_filling(graph, structure, pins, symbols=None, node_budget=None):
    """True/False, or None if the node budget ran out first."""

    class _Stop(Exception):
        pass

    def visit(values, lw):
        raise _Stop

    try:
        completed = _dfs(graph, structure, None, pins, symbols, visit, node_budget)
    except _Stop:
        return True
    return False if completed else None


def _factors(graph, structure, potential, pins, extra=None):
    """Log-weight tables of the Boltzmann weight, one per scope.

    A scope is a sorted tuple of unpinned sites, each over the whole
    alphabet; a pinned site is a one-value domain, so its axis is dropped
    and its terms fold into the tables of its unpinned neighbours (or into
    the scalar table of scope ()).  Parallel edges share one table.

    The tables come from one set per call and generator s: the log-table
    where(allowed[s], J[s], -inf), its transpose, its row and column views
    and the self-loop diagonal J[s][c, c].  A scope with one term holds one
    of these objects, h itself or a 0-d slice of one (never a copy), so that
    `_eliminate` scales each distinct object once; a scope with several
    terms holds their sum, added in site then edge order.  No table is
    written in place.  `extra` adds further (scope, log-table) factors, one
    axis per site of the scope (distinct sites): views sliced at the pins,
    their axes put in site order.
    """
    a = structure.alphabet
    h = np.zeros(a) if potential is None else potential.h
    J = np.zeros((structure.n_generators, a, a)) if potential is None else potential.J
    tables = []  # per generator: (log-table, transpose, rows, columns, diagonal)
    for s in range(structure.n_generators):
        log = np.where(structure.allowed[s], J[s], -np.inf)
        tables.append((log, log.T, list(log), list(log.T), J[s].diagonal()))
    logs: dict[tuple, np.ndarray] = {}

    def add(scope, table):
        logs[scope] = logs[scope] + table if scope in logs else table

    for i in range(graph.n):
        if i in pins:
            add((), h[pins[i], ...])
        else:
            add((i,), h)
    for (i, s, j) in graph.edges:
        log, transpose, rows, cols, diagonal = tables[s]
        pi, pj = pins.get(i), pins.get(j)
        if i == j:  # a self-loop carries energy but no constraint
            if pi is None:
                add((i,), diagonal)
            else:
                add((), J[s][pi, pi, ...])
        elif pi is None and pj is None:
            if i < j:
                add((i, j), log)
            else:
                add((j, i), transpose)
        elif pi is None:
            add((i,), cols[pj])
        elif pj is None:
            add((j,), rows[pi])
        else:
            add((), log[pi, pj, ...])
    for scope, table in extra or ():
        free = [i for i in scope if i not in pins]
        add(tuple(sorted(free)), table[(*[pins.get(i, slice(None)) for i in scope], ...)].transpose(np.argsort(free)))
    return logs


def _contract(factors, out):
    """Sum of the product of (scope, table) factors over every site not in out."""
    if not factors:
        return np.ones(())
    label = {v: k for k, v in enumerate({v for scope, _ in factors for v in scope} | set(out))}
    args = []
    for scope, table in factors:
        args += [table, [label[v] for v in scope]]
    return np.einsum(*args, [label[v] for v in out])


# the iterator np.einsum multiplies over: `_product` allocates its result
# through the same one, so the result has einsum's memory layout
_EINSUM_ITER = dict(flags=["external_loop", "buffered", "delay_bufalloc", "grow_inner", "reduce_ok", "refs_ok",
                           "zerosize_ok"], order="K")


def _product(factors, out):
    """`_contract` of (scope, table) factors whose scopes all lie inside
    out, which sums nothing: the same bytes in the same memory layout, by
    broadcasting.

    Each entry is the product of the factors' entries in operand order, as
    in einsum's inner loop.  einsum's result is not C-ordered: its iterator
    orders the axes by the operands' strides, and `.sum()` and every
    reshape of the table read that layout.  So a result of two axes or
    more is the array that iterator allocates for these operands and axes.
    A result with no axis is a scalar, as einsum returns it, and one
    factor gives its table, on out's axes."""
    if not factors:
        return np.ones(())
    if len(out) < 2:  # each table has out's one axis or none: broadcasting aligns them, in the one layout
        acc = factors[0][1]
        for _, table in factors[1:]:
            acc = acc * table
        return acc[()] if acc.ndim == 0 else acc
    pos = {v: k for k, v in enumerate(out)}
    views, axes = [], []
    for scope, table in factors:
        axis, shape = [-1] * len(out), [1] * len(out)  # table's axis and length on each axis of out
        for k, v in enumerate(scope):
            axis[pos[v]], shape[pos[v]] = k, table.shape[k]
        view = table.transpose([k for k in axis if k >= 0])
        views.append(view.reshape(shape))
        axes.append(axis)
    if len(views) == 1:
        return view
    acc = views[0]
    for view in views[1:-1]:  # on the axes of the factors so far: each entry's product runs in the same order
        acc = acc * view
    it = np.nditer([table for _, table in factors] + [None], op_axes=axes + [None],
                   op_flags=[["readonly", "nbo", "aligned"]] * len(factors)
                   + [["readwrite", "nbo", "aligned", "allocate", "no_broadcast"]], **_EINSUM_ITER)
    return np.multiply(acc, views[-1], out=it.operands[-1])


def _check_width(sites: int, alphabet: int):
    """CapExceededError when a table over `sites` sites passes ELIMINATION_TABLE_CAP."""
    if alphabet**sites > ELIMINATION_TABLE_CAP:
        raise CapExceededError(f"the elimination plan needs a table over {sites} sites of {alphabet} symbols, "
                               f"{alphabet}^{sites} entries, past the cap of {ELIMINATION_TABLE_CAP}")


def _plan(scopes, sites, out, alphabet=1):
    """The min-degree order (ties to the lower site) that eliminates every
    site of `sites` outside out, from the factor scopes alone: a list of
    (site, its message's scope: its sorted neighbours when it goes), taken
    off a heap keyed by (degree, site) that skips stale entries.  The first
    message past the table cap over `alphabet` symbols is a CapExceededError."""
    nbrs = {i: set() for i in sites}
    for scope in scopes:
        for i in scope:
            nbrs[i].update(scope)
            nbrs[i].discard(i)
    todo = set(nbrs) - set(out)
    heap = [(len(nbrs[i]), i) for i in todo]
    heapq.heapify(heap)
    steps = []
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in todo or degree != len(nbrs[v]):
            continue
        _check_width(degree, alphabet)
        todo.remove(v)
        near = nbrs[v]
        scope = tuple(sorted(near))
        steps.append((v, scope))
        for i in scope:
            nbrs[i] |= near
            nbrs[i].discard(i)
            nbrs[i].discard(v)
            if i in todo:
                heapq.heappush(heap, (len(nbrs[i]), i))
    return steps


def _mean_term(factors, energies, out, combine=_contract):
    """The energy part of combining factors = [(scope, value table)] with
    energies[j] the energy table of factor j: the sum over j of the
    combination (`_contract` or `_product`) with factor j's energy in place
    of its value."""
    return sum(combine(factors[:j] + [(factors[j][0], g)] + factors[j + 1:], out)
               for j, g in enumerate(energies))


def _eliminate(graph, structure, potential, pins, keep, extra=None, energy=False):
    """The result of `_eliminate_scaled`, or None when no admissible
    configuration exists.

    Each factor table is scaled by its own maximum, so weights far below it
    flush to 0: hardcore with vertex_log_weights [0, 1000] leaves no mass.
    So when the potential's elimination finds none, the same plan runs
    once more with no potential; if that finds mass, the configurations
    exist and their weights underflowed, a SchemaError naming the
    potential's range.  Where the first elimination finds mass, this costs
    nothing.
    """
    res = _eliminate_scaled(graph, structure, potential, pins, keep, extra, energy)
    if res is None and potential is not None and (
            _eliminate_scaled(graph, structure, None, pins, keep, extra) is not None):
        raise SchemaError(
            f"vertex_log_weights range over [{float(potential.h.min())!r}, {float(potential.h.max())!r}] and "
            f"edge_log_weights over [{float(potential.J.min())!r}, {float(potential.J.max())!r}]: exact "
            "elimination scales each factor by its largest weight, and at this spread the smaller weights "
            "underflow to 0 and leave no mass, although admissible configurations exist"
        )
    return res


def _eliminate_scaled(graph, structure, potential, pins, keep, extra=None, energy=False):
    """Min-degree variable elimination of every unpinned site outside keep.

    Returns (log_scale, table, energy_table), where exp(log_scale) * table
    is the unnormalised weight of the unpinned sites of keep (in keep order,
    indexed by symbol), or None when the scaled tables hold no mass.
    With energy, exp(log_scale) * energy_table weighs each configuration by
    its log-weight too, from (value, energy) pairs: log-table L gives (f, f
    L), 0 where f is; a bucket's energy takes one contraction per factor
    with its energy in place of its value; scaling divides both parts;
    merging gives (f1 f2, f1 g2 + g1 f2).  The values are the same bytes
    either way.  The final table is checked against ELIMINATION_TABLE_CAP
    first, each message as `_plan` reaches it, all before any table is
    contracted.  Each bucket comes from an index from sites to scopes, in
    the order the scopes entered the factor set, and its message is an
    einsum contraction.  Once every site outside keep is gone, each scope
    left lies inside out, so the final table, and each energy term of it,
    is a product with nothing summed: `_product` broadcasts it in einsum's
    bytes and layout.
    """
    a = structure.alphabet
    out = [i for i in keep if i not in pins]
    _check_width(len(out), a)
    logs = _factors(graph, structure, potential, pins, extra)
    steps = _plan(logs, [i for i in range(graph.n) if i not in pins], out, a)
    log_scale = 0.0
    factors, energies = {}, {}
    holders = {i: {} for i in range(graph.n)}  # site -> the scopes of factors that hold it, in order
    # id -> (table, max, exp(table - max), its energy): a table object shared
    # by several scopes is scaled once; the entry holds the table, so its id
    # stays its own
    scaled = {}
    for scope, table in logs.items():
        if id(table) not in scaled:
            m = table.max()
            if m == -np.inf:
                return None
            f = np.exp(table - m)
            g = np.multiply(f, table, out=np.zeros_like(f), where=f > 0.0) if energy else None
            scaled[id(table)] = (table, float(m), f, g)
        _, m, factors[scope], energies[scope] = scaled[id(table)]
        log_scale += m
        for i in scope:
            holders[i][scope] = None
    for v, scope in steps:
        held = list(holders[v])
        for s in held:
            for i in s:
                del holders[i][s]
        bucket = [(s, factors.pop(s)) for s in held]
        parts = [energies.pop(s) for s in held]
        msg = _contract(bucket, scope)
        msg_e = _mean_term(bucket, parts, scope) if energy else None
        del bucket, parts  # the bucket's tables go before the message is scaled
        m = msg.max()
        if m == 0.0:
            return None
        log_scale += math.log(m)
        msg = msg / m
        msg_e = msg_e / m if energy else None
        if scope in factors:
            if energy:
                energies[scope] = factors[scope] * msg_e + energies[scope] * msg
            factors[scope] = factors[scope] * msg
        else:
            factors[scope], energies[scope] = msg, msg_e
            for i in scope:
                holders[i][scope] = None
    final = list(factors.items())  # every scope now lies inside out: a product, nothing summed
    table = _product(final, out)
    if not table.sum() > 0.0:
        return None
    return log_scale, table, _mean_term(final, list(energies.values()), out, _product) if energy else None


def log_partition(graph, structure, potential, pins=None, extra=None) -> float:
    """log Z given the pins, -inf when they admit no configuration;
    `extra` as in `_factors`."""
    res = _eliminate(graph, structure, potential, pins or {}, [], extra)
    return -math.inf if res is None else res[0] + math.log(float(res[1]))


def log_partition_and_mean(graph, structure, potential, pins=None, extra=None) -> tuple[float, float]:
    """log Z, the same bytes as `log_partition`, and the Gibbs mean of the
    log-weight (the mean energy) from the same plan carrying (value, energy)
    pairs; (-inf, nan) when the pins admit no configuration."""
    res = _eliminate(graph, structure, potential, pins or {}, [], extra, energy=True)
    if res is None:
        return -math.inf, math.nan
    log_scale, z, mean = res
    return log_scale + math.log(float(z)), float(mean) / float(z)


def site_marginal(graph, structure, potential, site: int, pins=None, extra=None) -> np.ndarray:
    """Exact marginal distribution of one site given the pins, `extra` as
    in `_factors`; nan when the pins admit no configuration."""
    pins = pins or {}
    res = _eliminate(graph, structure, potential, pins, [site], extra)
    if res is None:
        return np.full(structure.alphabet, np.nan)
    if site in pins:
        return np.eye(structure.alphabet)[pins[site]]
    return res[1] / res[1].sum()


def joint_distribution(graph, structure, potential, sites, pins=None) -> np.ndarray | None:
    """Exact joint distribution of the unpinned sites of `sites` given the
    pins: a dense table with one axis per such site, in the order of
    `sites`, indexed by symbol and summing to 1, or None when the pins admit
    no configuration."""
    res = _eliminate(graph, structure, potential, pins or {}, list(sites))
    return None if res is None else res[1] / res[1].sum()


def all_configs(graph, structure, potential, pins=None):
    """Every admissible configuration with its log-weight."""
    configs, logws = [], []

    def visit(values, lw):
        configs.append(tuple(values))
        logws.append(lw)

    _dfs(graph, structure, potential, pins or {}, None, visit)
    return configs, np.array(logws)
