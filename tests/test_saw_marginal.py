"""`saw-marginal` on the exact elimination engine: every graph, trees
included, checked against the independent references of `oracles.py` and
the SAW tree recursion, and its refusals by exit code."""

import json

import numpy as np
import pytest

from soficlab import enumeration
from soficlab.cli import main_saw_marginal, run_saw_marginal
from soficlab.saw import hardcore_marginal_via_saw

from oracles import brute_hardcore_marginal, grid_hardcore_marginal, random_connected_graph


def _graph_file(tmp_path, adj, lam=1.0, pins=None):
    pins = pins or {}
    data = {"n": len(adj), "edges": [[u, w] for u in range(len(adj)) for w in adj[u] if u < w],
            "lambda": lam.tolist() if isinstance(lam, np.ndarray) else lam,
            "pins": {"occupied": [v for v, s in pins.items() if s == 1],
                     "empty": [v for v, s in pins.items() if s == 0]}}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    return str(path)


def _marginal(tmp_path, adj, root, lam=1.0, pins=None):
    return run_saw_marginal({"graph": _graph_file(tmp_path, adj, lam, pins), "root": root})["p_occupied"]


def _grid(m):
    adj = [set() for _ in range(m * m)]
    for v in range(m * m):
        for w in (v + 1 if (v + 1) % m else None, v + m if v + m < m * m else None):
            if w is not None:
                adj[v].add(w)
                adj[w].add(v)
    return [sorted(s) for s in adj]


def _random_pins(rng, adj, skip=()):
    """About a quarter of the vertices pinned, never two occupied side by side."""
    pins = {}
    for u in range(len(adj)):
        if u not in skip and rng.random() < 0.25:
            pins[u] = 0 if any(pins.get(w) == 1 for w in adj[u]) else int(rng.integers(0, 2))
    return pins


@pytest.mark.parametrize("m", [6, 7, 12])
@pytest.mark.parametrize("pinned", [False, True])
def test_grids_match_the_row_transfer(m, pinned, tmp_path):
    """The m x m grids, which the SAW unfolding refused from 6 x 6 up, match
    a transfer over the independent sets of a row to 1e-12: free at lambda =
    1, and pinned with one activity per vertex."""
    rng = np.random.default_rng(m)
    adj = _grid(m)
    root = m // 2 * m + m // 2
    lam, pins = 1.0, {}
    if pinned:
        lam, pins = rng.uniform(0.5, 2.0, m * m), _random_pins(rng, adj, skip={root})
    expect = grid_hardcore_marginal(m, m, root, lam, pins)
    assert _marginal(tmp_path, adj, root, lam, pins) == pytest.approx(expect, abs=1e-12)


def test_random_graphs_match_brute_force(tmp_path):
    """300 random graphs of 1 to 9 vertices (criterion 8's generator), half
    with one activity per vertex, with random consistent pins: within 1e-12
    of enumeration."""
    rng = np.random.default_rng(30)
    for k in range(300):
        n = int(rng.integers(1, 10))
        adj = random_connected_graph(rng, n)
        lam = rng.uniform(0.3, 2.0, n) if k % 2 else float(rng.choice([0.5, 1.0, 2.0]))
        root = int(rng.integers(0, n))
        pins = _random_pins(rng, adj)
        expect = brute_hardcore_marginal(adj, root, lam, pins)
        assert _marginal(tmp_path, adj, root, lam, pins) == pytest.approx(expect, abs=1e-12)


def test_trees_match_the_saw_recursion(tmp_path):
    """On trees the SAW unfolding is the tree itself: random trees of up to 60
    vertices with one activity per vertex and random pins agree with
    `hardcore_marginal_via_saw` to 1e-12."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 61))
        adj = [set() for _ in range(n)]
        for v in range(1, n):
            u = int(rng.integers(0, v))
            adj[u].add(v)
            adj[v].add(u)
        adj = [sorted(s) for s in adj]
        lam = rng.uniform(0.3, 3.0, n)
        root = int(rng.integers(0, n))
        pins = _random_pins(rng, adj, skip={root})
        expect = hardcore_marginal_via_saw(adj, root, lam, pins)
        assert _marginal(tmp_path, adj, root, lam, pins) == pytest.approx(expect, abs=1e-12)


def test_small_cases(tmp_path):
    """A single vertex reads lambda / (1 + lambda); a pinned root reads its
    pin; a root next to an occupied pin is empty."""
    for lam in (0.5, 1.0, 3.0):
        assert _marginal(tmp_path, [[]], 0, lam) == pytest.approx(lam / (1 + lam), abs=1e-15)
    path = [[1], [0, 2], [1]]
    assert _marginal(tmp_path, path, 1, 2.0, {1: 1}) == 1.0
    assert _marginal(tmp_path, path, 1, 2.0, {1: 0}) == 0.0
    assert _marginal(tmp_path, path, 1, 2.0, {0: 1}) == 0.0
    assert _marginal(tmp_path, path, 2, 2.0, {0: 1}) == pytest.approx(2 / 3, abs=1e-15)


def test_too_wide_a_graph_exits_3_before_any_table(tmp_path, monkeypatch, capsys):
    """The 20 x 20 grid needs a 2^27-entry table: the plan refuses it with
    CapExceededError (exit 3) and no table is contracted."""
    contracted = []
    contract = enumeration._contract
    monkeypatch.setattr(enumeration, "_contract", lambda factors, out: contracted.append(out) or contract(factors, out))
    with pytest.raises(SystemExit) as exc:
        main_saw_marginal(["--graph", _graph_file(tmp_path, _grid(20)), "--root", "210"])
    assert exc.value.code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CapExceededError"
    assert contracted == []


def test_adjacent_occupied_pins_exit_7(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main_saw_marginal(["--graph", _graph_file(tmp_path, [[1], [0, 2], [1]], pins={0: 1, 1: 1}), "--root", "2"])
    assert exc.value.code == 7
    assert json.loads(capsys.readouterr().err)["error"] == "InconsistentPinsError"
