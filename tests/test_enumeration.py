"""Variable elimination against sums over the DFS enumeration of every
configuration, on random small site graphs, its heap plan against a planner
that scans every site, and the joint-table mixing profile against the
per-boundary pinned loop it replaced."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from soficlab import enumeration, groups, soficmaps
from soficlab.constraints import ConstraintStructure, Potential, core_symbols, hardcore
from soficlab.enumeration import (SiteGraph, _plan, all_configs, joint_distribution, log_partition,
                                  log_partition_and_mean, site_marginal)
from soficlab.gibbs import _beta_enumeration

from oracles import min_degree_plan_scan
from reference import einsum_product


@st.composite
def models(draw):
    """A site graph with n <= 8, alphabet 2-3, 1-2 generators, random allowed
    relations (dead rows included), random h and J, self-loops and parallel
    edges, and random pins (inadmissible ones included)."""
    n = draw(st.integers(1, 8))
    a = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2))
    allowed = np.array(draw(st.lists(st.booleans(), min_size=k * a * a, max_size=k * a * a))).reshape(k, a, a)
    allowed[~allowed.any(axis=(1, 2)), 0, 0] = True  # every relation allows some pair
    weights = st.floats(-2.0, 2.0, allow_nan=False)
    h = draw(st.lists(weights, min_size=a, max_size=a))
    J = draw(st.lists(weights, min_size=k * a * a, max_size=k * a * a))
    site = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(site, st.integers(0, k - 1), site), max_size=3 * n))
    pins = draw(st.dictionaries(site, st.integers(0, a - 1), max_size=n))
    query = draw(st.lists(site, min_size=1, max_size=min(n, 3), unique=True))
    return (SiteGraph(n, edges), ConstraintStructure(a, allowed),
            Potential(np.array(h), np.array(J).reshape(k, a, a)), pins, query)


def _brute(graph, structure, potential, pins, query):
    """log Z, every site marginal, the dense joint table of the unpinned
    sites of query and the weighted mean log-weight, summed over DFS's
    configurations."""
    configs, logw = all_configs(graph, structure, potential, pins=pins)
    if not configs:
        return -math.inf, None, None, math.nan
    m = logw.max()
    w = np.exp(logw - m)
    z = w.sum()
    marginals = np.zeros((graph.n, structure.alphabet))
    free = [i for i in query if i not in pins]
    joint = np.zeros((structure.alphabet,) * len(free))
    for x, wx in zip(configs, w / z):
        marginals[np.arange(graph.n), x] += wx
        joint[tuple(x[i] for i in free)] += wx
    return m + math.log(z), marginals, joint, float(w @ logw) / z


# a three-symbol model on two generators with forbidden pairs in both
# directions; A3[s][1][1] and A3[1][0][1] are false, so a self-loop at symbol 1
# (which carries energy only) and an edge (i, 1, j) pinned to (0, 1) differ
A3 = [[[True, True, False], [True, False, True], [True, True, True]],
      [[True, False, True], [True, False, True], [False, True, True]]]
H3 = [0.1, -0.4, 0.7]
J3 = [[[0.2, -0.1, 0.5], [0.3, 0.0, -0.6], [-0.2, 0.4, 0.1]],
      [[-0.3, 0.2, 0.0], [0.6, -0.5, 0.1], [0.25, 0.15, -0.35]]]
LOOPS = SiteGraph(4, [(0, 0, 0), (0, 0, 1), (1, 1, 1), (1, 1, 2), (3, 0, 2), (2, 1, 2), (3, 1, 3)])
# B_1 of a random_perm map of F_2 on four sites: edges (0, 0, 1) and (1, 1, 0)
# are antiparallel and (3, 0, 2), (3, 1, 2) parallel, so scopes take sums of a
# table and a transpose, and of two tables
PERM4 = SiteGraph.from_sofic(soficmaps.build_random_perm(2, 4, 0))
PATH = SiteGraph(4, [(0, 0, 1), (2, 1, 1), (2, 0, 3)])


def _factor_case(graph, pins):
    """One hand-picked path of the elimination's factor set-up on the model above."""
    return (graph, ConstraintStructure(3, np.array(A3)), Potential(np.array(H3), np.array(J3)), pins, [0, 1, 2])


FACTOR_CASES = [
    (LOOPS, {}),  # self-loops
    (LOOPS, {1: 1, 3: 2}),  # pinned self-loops
    (PERM4, {}),  # parallel and antiparallel edges
    (PERM4, {1: 2}),  # ... one end pinned
    (PERM4, {3: 0, 2: 0}),  # ... both ends pinned
    (PATH, {0: 2}),  # source pinned
    (PATH, {1: 0, 3: 1}),  # target pinned
    (PATH, {0: 2, 1: 0}),  # both ends pinned, allowed
    (PATH, {0: 0, 1: 2}),  # both ends pinned, forbidden: no configuration
    (PATH, {2: 1, 1: 1}),  # both ends pinned, forbidden backwards
]


def elimination_models(test):
    """The random models and the hand-picked factor cases, for a test of one model."""
    for graph, pins in reversed(FACTOR_CASES):
        test = example(_factor_case(graph, pins))(test)
    return settings(max_examples=150, derandomize=True, deadline=None)(given(models())(test))


@elimination_models
def test_elimination_matches_dfs(model):
    """log Z, every site marginal and the dense joint table of one window
    against the DFS sums; the examples cover self-loops, parallel and
    antiparallel edges, and pins at one or both ends of an edge, allowed and
    forbidden.  The (value, energy) pass gives log Z in the same bytes and
    the mean log-weight to 1e-12.  Elimination writes neither the potential
    nor the relations, and a repeated call gives the same bytes."""
    graph, structure, potential, pins, query = model
    inputs = (potential.h.tobytes(), potential.J.tobytes(), structure.allowed.tobytes())
    log_z, marginals, joint, mean = _brute(graph, structure, potential, pins, query)

    def answers():
        return (log_partition(graph, structure, potential, pins=pins),
                [site_marginal(graph, structure, potential, i, pins=pins) for i in range(graph.n)],
                joint_distribution(graph, structure, potential, query, pins=pins))

    ve_log_z, ve_marginals, ve_joint = answers()
    pair_log_z, ve_mean = log_partition_and_mean(graph, structure, potential, pins=pins)
    assert repr(pair_log_z) == repr(ve_log_z)
    if marginals is None:
        assert ve_log_z == -math.inf
        assert math.isnan(ve_mean)
        assert ve_joint is None
        assert all(np.isnan(p).all() for p in ve_marginals)
    else:
        assert ve_log_z == pytest.approx(log_z, abs=1e-12)
        assert ve_mean == pytest.approx(mean, abs=1e-12)
        for i, p in enumerate(ve_marginals):
            assert np.allclose(p, marginals[i], rtol=0.0, atol=1e-13)
        assert ve_joint.shape == joint.shape
        assert np.array_equal(ve_joint > 0.0, joint > 0.0)
        assert np.allclose(ve_joint, joint, rtol=0.0, atol=1e-13)
        assert ve_joint.sum() == pytest.approx(1.0, abs=1e-13)
    assert (potential.h.tobytes(), potential.J.tobytes(), structure.allowed.tobytes()) == inputs
    again = answers()
    assert repr(again[0]) == repr(ve_log_z)
    assert (again[2] is None) if ve_joint is None else again[2].tobytes() == ve_joint.tobytes()
    assert [p.tobytes() for p in again[1]] == [p.tobytes() for p in ve_marginals]


def _answers(model):
    """log Z, log Z with the mean, every site marginal and the joint table
    of model, as bytes and memory layouts."""
    graph, structure, potential, pins, query = model
    joint = joint_distribution(graph, structure, potential, query, pins=pins)
    return (repr(log_partition(graph, structure, potential, pins=pins)),
            repr(log_partition_and_mean(graph, structure, potential, pins=pins)),
            [(p.tobytes(), p.strides) for p in (site_marginal(graph, structure, potential, i, pins=pins)
                                                for i in range(graph.n))],
            None if joint is None else (joint.tobytes(), joint.strides))


@elimination_models
def test_final_product_is_the_einsum_step(model):
    """Every final table of the eliminations of the test above, and each
    energy term of one, is the einsum step it replaced: the same type,
    entries and memory layout, and the same `.sum()`.  Bytes are compared
    up to the sign of a zero, which einsum drops by accumulating into
    zeros and `_mean_term` drops by adding to 0.  Every answer is the same
    bytes with the einsum step in the product's place."""
    calls = []
    product = enumeration._product

    def recorded(factors, out):
        calls.append((factors, out, product(factors, out)))
        return calls[-1][2]

    with mock.patch.object(enumeration, "_product", recorded):
        got = _answers(model)
    for factors, out, table in calls:
        expect = einsum_product(factors, out)
        assert type(table) is type(expect)
        assert np.asarray(table).strides == np.asarray(expect).strides
        assert (table + 0.0).tobytes() == (expect + 0.0).tobytes()
        assert repr(table.sum() + 0.0) == repr(expect.sum() + 0.0)
    with mock.patch.object(enumeration, "_product", einsum_product):
        assert _answers(model) == got


@st.composite
def site_graphs(draw):
    """Factor scopes over up to 40 sites: random edges and a few wider
    scopes, some sites kept out of the plan."""
    n = draw(st.integers(1, 40))
    site = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(site, site).filter(lambda e: e[0] != e[1]).map(sorted), max_size=3 * n))
    wide = draw(st.lists(st.lists(site, min_size=min(n, 3), max_size=6, unique=True).map(sorted), max_size=3))
    out = draw(st.lists(site, max_size=3, unique=True))
    return [tuple(scope) for scope in edges + wide] + [(i,) for i in range(n)], list(range(n)), out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(site_graphs())
@example(([(i, i + 1) for i in range(29)] + [(i,) for i in range(30)], list(range(30)), []))  # a path
@example(([(i, (i + 1) % 12) for i in range(12)] + [(0, 3, 6, 9)], list(range(12)), [5]))  # a cycle with a chord clique
def test_heap_plan_is_the_scan(graph):
    """The heap plan's steps, each a site and its message's scope, are the
    steps of the planner that scans every remaining site for the least
    (degree, site)."""
    scopes, sites, out = graph
    assert _plan(scopes, sites, out) == min_degree_plan_scan(scopes, sites, out)


def _beta_pinned_loop(structure, potential, spec, r) -> float:
    """beta(r) as one pinned DFS marginal of the center per core-valued boundary."""
    b = groups.ball(spec, r + 1)
    shell = [b.index[g] for g in groups.boundary_shell(spec, r)]
    center = b.index[groups.identity(spec)]
    graph = SiteGraph.from_ball(b)
    lo = np.full(structure.alphabet, np.inf)
    hi = np.full(structure.alphabet, -np.inf)
    for values in product(core_symbols(structure), repeat=len(shell)):
        configs, logw = all_configs(graph, structure, potential, pins=dict(zip(shell, values)))
        if not configs:
            continue
        p = np.zeros(structure.alphabet)
        np.add.at(p, [x[center] for x in configs], np.exp(logw - logw.max()))
        p /= p.sum()
        lo = np.minimum(lo, p)
        hi = np.maximum(hi, p)
    return float(np.max(hi - lo))


@pytest.mark.parametrize(
    "spec, lam, r",
    [(groups.zd(2), 1.0, 1), (groups.free(2), 0.3, 1)] + [(groups.zd(1), 1.0, r) for r in range(1, 5)],
)
def test_joint_table_beta_matches_pinned_loop(spec, lam, r):
    structure, potential = hardcore(spec.n_generators, lam)
    expect = _beta_pinned_loop(structure, potential, spec, r)
    assert _beta_enumeration(structure, potential, spec, r) == pytest.approx(expect, abs=1e-15)


def test_elimination_refuses_a_table_past_the_cap_before_allocating(monkeypatch):
    """With ELIMINATION_TABLE_CAP lowered below the widest table of a site
    marginal on B_2 of Z^2, elimination raises CapExceededError (exit 3)
    from its plan, before it contracts any table; at the widest table's
    size it answers as before.  A joint table of more sites than the cap
    allows is refused the same way."""
    from soficlab import enumeration
    from soficlab.errors import CapExceededError

    structure, potential = hardcore(2, 1.0)
    graph = SiteGraph.from_ball(groups.ball(groups.zd(2), 2))
    expect = site_marginal(graph, structure, potential, 0, pins={5: 1})
    sizes = []
    contract = enumeration._contract

    def recorded(factors, out):
        table = contract(factors, out)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(enumeration, "_contract", recorded)
    site_marginal(graph, structure, potential, 0, pins={5: 1})
    widest = max(sizes)
    assert widest >= 8
    sizes.clear()
    monkeypatch.setattr(enumeration, "ELIMINATION_TABLE_CAP", widest - 1)
    with pytest.raises(CapExceededError, match="past the cap") as exc:
        site_marginal(graph, structure, potential, 0, pins={5: 1})
    assert exc.value.exit_code == 3
    assert sizes == []
    monkeypatch.setattr(enumeration, "ELIMINATION_TABLE_CAP", widest)
    assert np.array_equal(site_marginal(graph, structure, potential, 0, pins={5: 1}), expect)
    sizes.clear()
    monkeypatch.setattr(enumeration, "ELIMINATION_TABLE_CAP", 2**3)
    with pytest.raises(CapExceededError):
        joint_distribution(graph, structure, potential, [0, 1, 2, 3])
    assert sizes == []


@pytest.mark.parametrize("seed, sites", [(3, 27), (4, 29)])
def test_a_plan_past_the_cap_is_refused_before_any_table(seed, sites, monkeypatch):
    """log Z of F_2 hardcore on the random_perm maps n = 96, seeds 3 and 4,
    needs elimination tables of up to 2^28 and 2^31 entries: the plan, from
    the factor scopes alone, stops at its first message past the cap (2^27
    and 2^29 entries) and refuses each with no table contracted."""
    from soficlab import enumeration
    from soficlab.errors import CapExceededError

    contracted = []
    contract = enumeration._contract
    monkeypatch.setattr(enumeration, "_contract", lambda factors, out: contracted.append(out) or contract(factors, out))
    graph = SiteGraph.from_sofic(soficmaps.build_random_perm(2, 96, seed))
    with pytest.raises(CapExceededError, match=rf"over {sites} sites of 2 symbols, 2\^{sites} entries, past the cap"):
        log_partition(graph, *hardcore(2, 1.0))
    assert contracted == []
