import numpy as np
import pytest

from soficlab import saw
from soficlab.errors import BudgetExceededError, InconsistentPinsError
from soficlab.saw import (
    FREE,
    PIN_EMPTY,
    PIN_OCCUPIED,
    build_saw_tree,
    hardcore_marginal_via_saw,
    root_occupation,
    weitz_threshold,
)

from oracles import brute_hardcore_marginal, random_connected_graph


def test_single_vertex():
    tree = build_saw_tree([[]], 0)
    assert tree.n_nodes == 1 and tree.pin == [FREE]
    for lam in (0.5, 1.0, 2.0):
        assert root_occupation(tree, lam) == pytest.approx(lam / (1 + lam))


def test_path_p2():
    tree = build_saw_tree([[1], [0]], 0)
    assert tree.n_nodes == 2
    # endpoint of a single edge: enumeration over {00, 01, 10}
    for lam in (0.5, 1.0, 3.0):
        assert root_occupation(tree, lam) == pytest.approx(lam / (1 + 2 * lam))


def test_triangle_pins():
    adj = [[1, 2], [0, 2], [0, 1]]
    tree = build_saw_tree(adj, 0)
    pins = sorted(p for p in tree.pin if p != FREE)
    assert pins == [PIN_OCCUPIED, PIN_EMPTY] or pins == [PIN_EMPTY, PIN_OCCUPIED]
    assert root_occupation(tree, 1.0) == pytest.approx(1 / 4)


def test_cycle_c4():
    adj = [[1, 3], [0, 2], [1, 3], [0, 2]]
    assert hardcore_marginal_via_saw(adj, 0, 1.0) == pytest.approx(2 / 7, abs=1e-12)


def test_zero_activity():
    adj = [[1, 2], [0, 2], [0, 1]]
    assert hardcore_marginal_via_saw(adj, 0, 0.0) == 0.0


def test_pinned_neighbor():
    adj = [[1], [0]]
    assert hardcore_marginal_via_saw(adj, 0, 1.0, {1: 1}) == 0.0
    assert hardcore_marginal_via_saw(adj, 0, 1.0, {1: 0}) == pytest.approx(0.5)
    assert hardcore_marginal_via_saw(adj, 0, 1.0, {0: 1}) == 1.0


def test_inconsistent_pins():
    adj = [[1], [0]]
    with pytest.raises(InconsistentPinsError):
        hardcore_marginal_via_saw(adj, 0, 1.0, {0: 1, 1: 1})


def test_saw_tree_past_its_cap_is_budget_error(monkeypatch):
    k5 = [[w for w in range(5) if w != v] for v in range(5)]
    assert build_saw_tree(k5, 0).n_nodes == 197  # 65 self-avoiding walks, 132 closing leaves
    monkeypatch.setattr(saw, "SAW_TREE_MAX_NODES", 20)
    with pytest.raises(BudgetExceededError, match="cap of 20 nodes"):
        build_saw_tree(k5, 0)


def test_weitz_exactness_random_graphs():
    """SAW marginal equals brute-force enumeration, with random consistent pins."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        adj = random_connected_graph(rng, n)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        root = int(rng.integers(0, n))
        pins = {}
        for u in range(n):
            if u != root and rng.random() < 0.25:
                if any(pins.get(w) == 1 for w in adj[u]):
                    pins[u] = 0
                else:
                    pins[u] = int(rng.integers(0, 2))
        p_saw = hardcore_marginal_via_saw(adj, root, lam, pins)
        p_brute = brute_hardcore_marginal(adj, root, lam, pins)
        assert p_saw == pytest.approx(p_brute, abs=1e-10)


def test_weitz_exactness_per_vertex_activities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        adj = random_connected_graph(rng, n)
        lams = rng.uniform(0.3, 2.0, n)
        root = int(rng.integers(0, n))
        p_saw = hardcore_marginal_via_saw(adj, root, lams)
        p_brute = brute_hardcore_marginal(adj, root, lams, {})
        assert p_saw == pytest.approx(p_brute, abs=1e-10)


def test_thresholds():
    assert weitz_threshold(3) == pytest.approx(4.0)
    assert weitz_threshold(4) == pytest.approx(1.6875)
    assert weitz_threshold(5) == pytest.approx(256 / 243)
    with pytest.raises(ValueError):
        weitz_threshold(2)
