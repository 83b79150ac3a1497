"""Exact counting over labeled site graphs.

Partition values, site marginals and joint tables of a few sites come from
min-degree variable elimination over the pairwise factors of the Boltzmann
weight, planned from the factor scopes first and then contracted and
rescaled step by step (bucket elimination: Dechter 1999; Koller & Friedman
2009, ch. 9).  Pruned depth-first enumeration (`_dfs`) visits every
admissible configuration; it gives full tables (`all_configs`), the
derived-space enumeration of finitemodel (streamed through `_Stream`, which
keeps log Z and the mean log-weight), the budgeted admissibility search, and
the tests' independent oracle for the elimination route.  These exact routes
are what the transfer-matrix and self-avoiding-walk routes are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintStructure, Potential
from .errors import CapExceededError

# the most entries of one elimination table, a message or the final table:
# 2^26 float64, 512 MiB.  Each call's plan gives every table's scope before
# any is built, so the widest is checked once.  The hardcore lex query on
# Z^2 with the ball oracle at pad 2 needs scopes of 26 sites at r = 20,
# which fit, and of 31 at r = 22, a 16 GiB table
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


class _Stream:
    """Streaming log-sum-exp of log-weights lw, which also carries the sum
    of w * lw, so that one pass gives log Z and the mean of lw."""

    __slots__ = ("m", "acc", "acc_lw")

    def __init__(self):
        self.m = -math.inf
        self.acc = 0.0  # sum of exp(lw - m)
        self.acc_lw = 0.0  # sum of exp(lw - m) * lw

    def add(self, lw: float):
        if lw <= self.m:
            e = math.exp(lw - self.m)
            self.acc += e
            self.acc_lw += e * lw
        elif self.acc:
            scale = math.exp(self.m - lw)
            self.acc = self.acc * scale + 1.0
            self.acc_lw = self.acc_lw * scale + lw
            self.m = lw
        else:
            self.m, self.acc, self.acc_lw = lw, 1.0, lw

    def logsum(self) -> float:
        if self.acc == 0.0:
            return -math.inf
        return self.m + math.log(self.acc)

    def mean(self) -> float:
        """The w-weighted mean of lw; nan when nothing was added."""
        return self.acc_lw / self.acc if self.acc else math.nan


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


def _factors(graph, structure, potential, pins):
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
    written in place.
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


def _plan(scopes, sites, out):
    """The min-degree order (ties to the lower site) that eliminates every
    site of `sites` outside out, from the factor scopes alone: a list of
    (site, the sorted neighbours it has when it goes, its message's scope)."""
    nbrs = {i: set() for i in sites}
    for scope in scopes:
        for i in scope:
            nbrs[i].update(scope)
            nbrs[i].discard(i)
    todo = set(nbrs) - set(out)
    steps = []
    while todo:
        v = min(todo, key=lambda i: (len(nbrs[i]), i))
        todo.remove(v)
        scope = tuple(sorted(nbrs[v]))
        steps.append((v, scope))
        for i in scope:
            nbrs[i].update(scope)
            nbrs[i].discard(i)
            nbrs[i].discard(v)
    return steps


def _eliminate(graph, structure, potential, pins, keep):
    """Min-degree variable elimination of every unpinned site outside keep.

    Returns (log_scale, table), where exp(log_scale) * table is the unnormalised
    weight of the unpinned sites of keep (in keep order, indexed by symbol),
    or None when no admissible configuration exists.  The plan (`_plan`)
    comes first, from the factor scopes; when its widest message or the
    final table would pass ELIMINATION_TABLE_CAP entries, the call is a
    CapExceededError before any table is contracted or scaled.
    """
    a = structure.alphabet
    logs = _factors(graph, structure, potential, pins)
    out = [i for i in keep if i not in pins]
    steps = _plan(logs, [i for i in range(graph.n) if i not in pins], out)
    widest = max([len(out)] + [len(scope) for _, scope in steps])
    if a**widest > ELIMINATION_TABLE_CAP:
        raise CapExceededError(f"the elimination plan needs a table over {widest} sites of {a} symbols, "
                               f"{a}^{widest} entries, past the cap of {ELIMINATION_TABLE_CAP}")
    log_scale = 0.0
    factors = {}
    # id -> (table, max, exp(table - max)): a table object shared by several
    # scopes is scaled once; the entry holds the table, so its id stays its own
    scaled = {}
    for scope, table in logs.items():
        if id(table) not in scaled:
            m = table.max()
            if m == -np.inf:
                return None
            scaled[id(table)] = (table, float(m), np.exp(table - m))
        _, m, factors[scope] = scaled[id(table)]
        log_scale += m
    for v, scope in steps:
        bucket = [s for s in factors if v in s]
        msg = _contract([(s, factors.pop(s)) for s in bucket], scope)
        m = msg.max()
        if m == 0.0:
            return None
        log_scale += math.log(m)
        msg = msg / m
        factors[scope] = factors[scope] * msg if scope in factors else msg
    table = _contract(list(factors.items()), out)
    if not table.sum() > 0.0:
        return None
    return log_scale, table


def log_partition(graph, structure, potential, pins=None) -> float:
    res = _eliminate(graph, structure, potential, pins or {}, [])
    return -math.inf if res is None else res[0] + math.log(float(res[1]))


def site_marginal(graph, structure, potential, site: int, pins=None) -> np.ndarray:
    """Exact marginal distribution of one site given the pins."""
    pins = pins or {}
    res = _eliminate(graph, structure, potential, pins, [site])
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
