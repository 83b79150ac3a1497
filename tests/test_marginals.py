"""The conditional oracles against exact routes on random models and pins,
the tree-group SAW batch bitwise against the SAW unfolding, the transfer
batch bitwise against its argmin formula, the memoised batch against
row-by-row queries, and the benchmark tracer's targets against the classes
and functions they patch."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from soficlab import enumeration, groups
from soficlab.constraints import ConstraintStructure, Potential, hardcore
from soficlab.enumeration import SiteGraph
from soficlab.errors import InconsistentPinsError
from soficlab.marginals import BallEnumerationOracle, SawOracle, TransferOracle
from soficlab.saw import hardcore_marginal_via_saw
from soficlab.transfer import build_transfer

from oracles import transfer_batch_argmin

weights = st.floats(-1.5, 1.5, allow_nan=False)


def _rows(draw, n_sites: int, alphabet: int, n_rows: int):
    """n_rows patterns on n_sites with random symbols and random masks off the center."""
    values = np.zeros((n_rows, n_sites), dtype=np.int64)
    masks = np.zeros((n_rows, n_sites), dtype=bool)
    for k in range(n_rows):
        values[k] = draw(st.lists(st.integers(0, alphabet - 1), min_size=n_sites, max_size=n_sites))
        masks[k, 1:] = draw(st.lists(st.booleans(), min_size=n_sites - 1, max_size=n_sites - 1))
    return values, masks


def _unpin_occupied_neighbours(ball, values, masks):
    """Drop each occupied pin adjacent to an earlier kept occupied pin, so
    that the hardcore pins are admissible."""
    for row, mask in zip(values, masks):
        for (i, _s, j) in sorted(ball.edges, key=lambda e: max(e[0], e[2])):
            if mask[i] and mask[j] and row[i] == row[j] == 1:
                mask[max(i, j)] = False


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([(groups.zd(2), 2), (groups.free(2), 3)]), st.floats(0.1, 4.0), st.data())
def test_saw_oracle_matches_elimination(spec_r, lam, data):
    spec, r = spec_r
    structure, potential = hardcore(spec.rank, lam)
    oracle = SawOracle(structure, potential, spec, r)
    ball = groups.ball(spec, r)
    graph = SiteGraph.from_ball(ball)
    values, masks = _rows(data.draw, len(ball), 2, 3)
    _unpin_occupied_neighbours(ball, values, masks)
    got = oracle.batch(values, masks)
    for k in range(len(values)):
        pins = {int(i): int(values[k, i]) for i in np.flatnonzero(masks[k])}
        expect = enumeration.site_marginal(graph, structure, potential, 0, pins=pins)[values[k, 0]]
        assert got[k] == pytest.approx(expect, abs=1e-12)


TREE_BALLS = [(groups.free(1), 4), (groups.zd(1), 4), (groups.free(2), 3), (groups.free(3), 2)]


def _saw_reference(oracle, values, masks) -> list[float]:
    """Row-by-row center conditionals through the SAW unfolding of the
    oracle's ball with its activity vector."""
    out = []
    for v, m in zip(values, masks):
        pins = {int(i): int(v[i]) for i in np.flatnonzero(m)}
        p = hardcore_marginal_via_saw(oracle.adj, 0, oracle.lam, pins)
        out.append(p if v[0] == 1 else 1.0 - p)
    return out


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.sampled_from(TREE_BALLS),
    st.sampled_from(["free", "self_consistent"]),
    st.floats(0.1, 4.0),
    st.data(),
)
def test_tree_batch_is_bitwise_the_saw_unfolding(spec_r, boundary, lam, data):
    """Pins of both kinds, pinned centers and windows of every radius, over
    batches of 1 to 150 rows."""
    spec, r_max = spec_r
    oracle = SawOracle(*hardcore(spec.rank, lam), spec, r_max, boundary=boundary)
    ball = groups.ball(spec, data.draw(st.integers(0, r_max)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_rows = data.draw(st.integers(1, 150))
    values = (rng.random((n_rows, len(ball))) < data.draw(st.floats(0.0, 1.0))).astype(np.int64)
    masks = rng.random((n_rows, len(ball))) < data.draw(st.floats(0.0, 1.0))
    _unpin_occupied_neighbours(ball, values, masks)
    got = oracle.batch(values, masks)
    assert list(got) == _saw_reference(oracle, values, masks)


@pytest.mark.parametrize("spec, r_max", TREE_BALLS)
def test_tree_batch_raises_on_adjacent_occupied_pins(spec, r_max):
    oracle = SawOracle(*hardcore(spec.rank, 1.0), spec, r_max)
    ball = groups.ball(spec, r_max - 1)
    for (i, _s, j) in ball.edges:
        values = np.zeros((2, len(ball)), dtype=np.int64)
        masks = np.zeros((2, len(ball)), dtype=bool)
        values[1, [i, j]] = masks[1, [i, j]] = 1
        with pytest.raises(InconsistentPinsError):
            oracle.batch(values, masks)
        with pytest.raises(InconsistentPinsError):
            _saw_reference(oracle, values, masks)


@st.composite
def safe_models(draw):
    """Alphabet 2-3 with symbol 0 safe on every generator, random other
    relations and random h and J."""
    spec = draw(st.sampled_from([groups.zd(1), groups.zd(2), groups.free(2)]))
    a = draw(st.integers(2, 3))
    k = spec.rank
    allowed = np.array(draw(st.lists(st.booleans(), min_size=k * a * a, max_size=k * a * a))).reshape(k, a, a)
    allowed[:, 0, :] = allowed[:, :, 0] = True
    h = np.array(draw(st.lists(weights, min_size=a, max_size=a)))
    J = np.array(draw(st.lists(weights, min_size=k * a * a, max_size=k * a * a))).reshape(k, a, a)
    return spec, ConstraintStructure(a, allowed), Potential(h, J)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(safe_models(), st.integers(1, 2), st.data())
def test_ball_oracle_matches_elimination_with_safe_shell(model, pad, data):
    spec, structure, potential = model
    r = 1
    oracle = BallEnumerationOracle(structure, potential, spec, r, pad=pad)
    big = groups.ball(spec, r + pad)
    graph = SiteGraph.from_ball(big)
    shell = {big.index[g]: 0 for g in groups.boundary_shell(spec, r + pad - 1)}
    values, masks = _rows(data.draw, len(groups.ball(spec, r)), structure.alphabet, 3)
    got = oracle.batch(values, masks)
    for k in range(len(values)):
        pins = {**shell, **{int(i): int(values[k, i]) for i in np.flatnonzero(masks[k])}}
        expect = enumeration.site_marginal(graph, structure, potential, 0, pins=pins)[values[k, 0]]
        if np.isnan(expect):  # inadmissible pins: an empty fibre
            assert np.isnan(got[k])
        else:
            assert got[k] == pytest.approx(expect, abs=1e-12)


@st.composite
def irreducible_line_models(draw):
    a = draw(st.integers(2, 3))
    allowed = np.array(draw(st.lists(st.booleans(), min_size=a * a, max_size=a * a))).reshape(1, a, a)
    assume(allowed.any())
    h = np.array(draw(st.lists(weights, min_size=a, max_size=a)))
    J = np.array(draw(st.lists(weights, min_size=a * a, max_size=a * a))).reshape(1, a, a)
    structure, potential = ConstraintStructure(a, allowed), Potential(h, J)
    assume(build_transfer(structure, potential).irreducible)
    return structure, potential


def _signed_length(spec, g) -> int:
    """Offset on the line, summed letter by letter."""
    if spec.kind == "zd":
        return g[0]
    return sum(1 if letter > 0 else -1 for letter in g)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(irreducible_line_models(), st.sampled_from([groups.zd(1), groups.free(1)]), st.integers(1, 4), st.data())
def test_transfer_oracle_matches_conditional_center(model, spec, r, data):
    structure, potential = model
    oracle = TransferOracle(structure, potential, spec, r)
    ball = groups.ball(spec, r)
    values, masks = _rows(data.draw, len(ball), structure.alphabet, 4)
    got = oracle.batch(values, masks)
    for k in range(len(values)):
        pins = {_signed_length(spec, ball.elements[i]): int(values[k, i]) for i in np.flatnonzero(masks[k])}
        try:
            expect = oracle.tm.conditional_center(pins)[values[k, 0]]
        except ValueError:  # a conditioning of probability zero
            expect = 0.0
        assert got[k] == pytest.approx(expect, abs=1e-14)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(irreducible_line_models(), st.sampled_from([groups.zd(1), groups.free(1)]), st.integers(0, 5), st.data())
def test_transfer_batch_is_bitwise_the_argmin_reference(model, spec, r_max, data):
    """Every window width, center pins included, pin densities from none to
    all, against the sentinel-and-argmin formula of tests/oracles.py."""
    structure, potential = model
    oracle = TransferOracle(structure, potential, spec, r_max)
    L = data.draw(st.integers(1, len(groups.ball(spec, r_max))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_rows = data.draw(st.integers(1, 60))
    values = rng.integers(0, structure.alphabet, (n_rows, L))
    masks = rng.random((n_rows, L)) < data.draw(st.floats(0.0, 1.0))
    got = oracle.batch(values, masks)
    expect = transfer_batch_argmin(oracle.tables, oracle.offsets, r_max, values, masks)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TransferOracle(*hardcore(1, 1.5), groups.zd(1), 3),
        lambda: BallEnumerationOracle(*hardcore(2, 1.0), groups.zd(2), 1, pad=1),
        lambda: SawOracle(*hardcore(2, 0.7), groups.zd(2), 1),
        lambda: SawOracle(*hardcore(2, 0.7), groups.free(2), 3),
    ],
    ids=["transfer", "ball", "saw", "saw-tree"],
)
def test_batch_on_repeated_rows_equals_conditional(make):
    oracle = make()
    L = len(groups.ball(oracle.spec, 1))
    distinct_values = np.zeros((4, L), dtype=np.int64)
    distinct_values[[1, 2], 0] = 1
    distinct_masks = np.zeros((4, L), dtype=bool)
    distinct_masks[2, 1] = distinct_masks[3, 1:3] = True
    pick = np.array([0, 1, 0, 2, 3, 3, 1, 0])
    values, masks = distinct_values[pick], distinct_masks[pick]
    expect = [oracle.conditional(v, m) for v, m in zip(values, masks)]
    if isinstance(oracle, TransferOracle) or getattr(oracle, "tree", False):
        # no memo: every row is computed in one vectorised pass
        assert list(oracle.batch(values, masks)) == expect
        return
    calls = []
    conditional = oracle.conditional
    oracle.conditional = lambda v, m: calls.append(1) or conditional(v, m)
    assert list(oracle.batch(values, masks)) == expect
    assert len(calls) == 4  # memo misses go through conditional, once per distinct row


def test_trace_targets_resolve():
    """Each span target of the benchmark's tracer is a module attribute, or a
    method defined in its own class's __dict__, which is what the tracer patches."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, modname, attr in tracing.TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{name}: {attr} not in its class's __dict__"
        else:
            assert callable(getattr(module, attr, None)), f"{name}: {modname}.{attr} missing"
