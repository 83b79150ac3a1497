"""Trees of self-avoiding walks and exact hardcore marginals (Weitz unfolding).

The tree of self-avoiding walks of a finite graph G rooted at v has one node
per self-avoiding walk from v; a step that closes a cycle becomes a leaf
pinned occupied or empty according to a fixed ordering of the edges at the
revisited vertex.  The hardcore occupation probability at the root of the
tree equals the occupation probability of v in G exactly, for any choice of
the edge ordering; ours orders edges by neighbor index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, InconsistentPinsError

FREE, PIN_OCCUPIED, PIN_EMPTY = 0, 1, 2
SAW_TREE_MAX_NODES = 5_000_000


@dataclass
class SawTree:
    graph_vertex: list  # original vertex per tree node
    parent: list
    children: list  # list[list[int]]
    pin: list  # FREE / PIN_OCCUPIED / PIN_EMPTY
    root: int = 0
    n_nodes: int = field(init=False)

    def __post_init__(self):
        self.n_nodes = len(self.parent)


def build_saw_tree(adj: list, root: int) -> SawTree:
    """Unfold a simple undirected graph (sorted adjacency lists) at the root.

    Walks never backtrack along the edge they just used; stepping onto any
    other already-visited vertex creates a pinned leaf.  The pin is occupied
    iff, at the revisited vertex, the closing edge is larger (by neighbor
    index) than the edge by which the walk originally left it.
    """
    graph_vertex = [root]
    parent = [-1]
    children = [[]]
    pin = [FREE]
    # stack entries: (tree node, walk as dict vertex -> successor vertex on the walk)
    stack = [(0, {root: None})]
    while stack:
        node, on_walk = stack.pop()
        u = graph_vertex[node]
        prev = parent[node]
        prev_vertex = graph_vertex[prev] if prev >= 0 else None
        for w in adj[u]:
            if w == prev_vertex:
                continue
            idx = len(graph_vertex)
            if idx > SAW_TREE_MAX_NODES:
                raise BudgetExceededError(f"SAW tree exceeds its cap of {SAW_TREE_MAX_NODES:,} nodes")
            if w in on_walk:
                # closing edge (w, u) vs the edge (w, on_walk[w]) the walk left by
                state = PIN_OCCUPIED if u > on_walk[w] else PIN_EMPTY
                graph_vertex.append(w)
                parent.append(node)
                children.append([])
                pin.append(state)
                children[node].append(idx)
            else:
                graph_vertex.append(w)
                parent.append(node)
                children.append([])
                pin.append(FREE)
                children[node].append(idx)
                walk = dict(on_walk)
                walk[u] = w
                walk[w] = None
                stack.append((idx, walk))
    return SawTree(graph_vertex, parent, children, pin)


def root_occupation(tree: SawTree, lam) -> float:
    """Hardcore occupation probability at the root, R/(1+R) via the standard
    tree recursion R_v = lam * prod_children 1/(1+R_c); a pinned-occupied
    child forces R_v = 0 and a pinned-empty child contributes factor 1."""
    lam_of = (lambda v: lam[v]) if hasattr(lam, "__getitem__") else (lambda v: lam)
    ratio = np.zeros(tree.n_nodes)
    # children always have larger indices, so a reverse sweep is a postorder
    for node in range(tree.n_nodes - 1, -1, -1):
        if tree.pin[node] != FREE:
            continue
        r = lam_of(tree.graph_vertex[node])
        for c in tree.children[node]:
            p = tree.pin[c]
            if p == PIN_OCCUPIED:
                r = 0.0
                break
            if p == PIN_EMPTY:
                continue
            r *= 1.0 / (1.0 + ratio[c])
        ratio[node] = r
    r = ratio[tree.root]
    return float(r / (1.0 + r))


def _surgery(adj: list, pins: dict):
    """Remove pinned-empty vertices; pinned-occupied vertices also remove
    their neighborhoods.  Returns (kept vertex list, induced adjacency)."""
    n = len(adj)
    occupied = {v for v, s in pins.items() if s == 1}
    for v in occupied:
        for w in adj[v]:
            if w in occupied:
                raise InconsistentPinsError(f"adjacent occupied pins {v}, {w}")
    drop = set(pins)
    for v in occupied:
        drop.update(adj[v])
    kept = [v for v in range(n) if v not in drop]
    return kept, drop


def hardcore_marginal_via_saw(adj: list, v: int, lam, pins: dict | None = None) -> float:
    """Exact P(v occupied) in the hardcore model on a finite graph with pins.

    pins maps vertices to 0 (empty) or 1 (occupied); conditioning on an
    occupied vertex empties its neighborhood, conditioning on an empty vertex
    just deletes it, and the SAW unfolding runs on what is left.
    """
    pins = pins or {}
    if v in pins:
        _surgery(adj, pins)  # still validate consistency
        return float(pins[v])
    kept, drop = _surgery(adj, pins)
    if v in drop:
        return 0.0  # v adjacent to a pinned-occupied vertex
    relabel = {u: i for i, u in enumerate(kept)}
    sub_adj = [sorted(relabel[w] for w in adj[u] if w not in drop) for u in kept]
    if hasattr(lam, "__getitem__"):
        sub_lam = np.asarray([lam[u] for u in kept], dtype=float)
    else:
        sub_lam = lam
    tree = build_saw_tree(sub_adj, relabel[v])
    return root_occupation(tree, sub_lam)


def weitz_threshold(delta: int) -> float:
    """Hardcore uniqueness threshold (D-1)^(D-1) / (D-2)^D for degree D >= 3."""
    if delta < 3:
        raise ValueError("threshold defined for degree >= 3")
    return (delta - 1) ** (delta - 1) / (delta - 2) ** delta
