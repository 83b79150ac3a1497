"""Pruned depth-first enumeration over labeled site graphs.

This is the package's independent counting oracle: exact partition values,
site marginals, and finite-window distributions are all computed here by
direct enumeration, so that transfer-matrix and self-avoiding-walk routes can
be checked against it rather than against themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintStructure, Potential


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
    """Streaming log-sum-exp accumulator."""

    __slots__ = ("m", "acc")

    def __init__(self):
        self.m = -math.inf
        self.acc = 0.0

    def add(self, lw: float):
        if lw <= self.m:
            self.acc += math.exp(lw - self.m)
        else:
            self.acc = self.acc * math.exp(self.m - lw) + 1.0 if self.acc else 1.0
            self.m = lw

    def logsum(self) -> float:
        if self.acc == 0.0:
            return -math.inf
        return self.m + math.log(self.acc)


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

    completed = rec(0, 0.0)
    return completed


def has_admissible_filling(graph, structure, pins, symbols=None, node_budget=None):
    """True/False, or None if the node budget ran out first."""
    found = []

    class _Stop(Exception):
        pass

    def visit(values, lw):
        found.append(True)
        raise _Stop

    try:
        completed = _dfs(graph, structure, None, pins, symbols, visit, node_budget)
    except _Stop:
        return True
    return False if completed else None


def log_partition(graph, structure, potential, pins=None, symbols=None) -> float:
    acc = _Stream()
    _dfs(graph, structure, potential, pins or {}, symbols, lambda v, lw: acc.add(lw))
    return acc.logsum()


def site_marginal(graph, structure, potential, site: int, pins=None, symbols=None) -> np.ndarray:
    """Exact marginal distribution of one site given the pins."""
    accs = [_Stream() for _ in range(structure.alphabet)]

    def visit(values, lw):
        accs[values[site]].add(lw)

    _dfs(graph, structure, potential, pins or {}, symbols, visit)
    logs = np.array([acc.logsum() for acc in accs])
    if np.all(np.isneginf(logs)):
        return np.full(structure.alphabet, np.nan)
    m = np.max(logs)
    p = np.exp(logs - m)
    return p / p.sum()


def joint_distribution(graph, structure, potential, sites, pins=None, symbols=None) -> dict:
    """Exact joint distribution of a tuple of sites given the pins."""
    sites = list(sites)
    table: dict[tuple, _Stream] = {}

    def visit(values, lw):
        key = tuple(values[i] for i in sites)
        if key not in table:
            table[key] = _Stream()
        table[key].add(lw)

    _dfs(graph, structure, potential, pins or {}, symbols, visit)
    logs = {k: acc.logsum() for k, acc in table.items()}
    if not logs:
        return {}
    m = max(logs.values())
    raw = {k: math.exp(v - m) for k, v in logs.items()}
    z = sum(raw.values())
    return {k: v / z for k, v in raw.items()}


def all_configs(graph, structure, potential, pins=None, symbols=None):
    """Every admissible configuration with its log-weight."""
    configs, logws = [], []

    def visit(values, lw):
        configs.append(tuple(values))
        logws.append(lw)

    _dfs(graph, structure, potential, pins or {}, symbols, visit)
    return configs, np.array(logws)
