"""The conditional oracles against exact routes on random models and pins,
the tree-group SAW batch bitwise against the SAW unfolding, the ball oracle
one pad out against the SAW unfolding off trees, the transfer batch bitwise
against its argmin formula, the memoised batch against row-by-row queries,
and the benchmark tracer's targets against the classes and functions they
patch."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from soficlab import enumeration, groups
from soficlab.constraints import ConstraintStructure, Potential, full_shift, hardcore, zero_potential
from soficlab.enumeration import SiteGraph
from soficlab.errors import InconsistentPinsError
from soficlab.marginals import BallEnumerationOracle, SawOracle, TransferOracle, make_oracle
from soficlab.pasts import sample_percolation_masks
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
    """Free-boundary conditionals of B_r: the SAW oracle on F_2, and on Z^2
    the ball oracle whose empty shell sits one step beyond B_r."""
    spec, r = spec_r
    structure, potential = hardcore(spec.rank, lam)
    if groups.is_tree(spec):
        oracle = SawOracle(structure, potential, spec, r)
    else:
        oracle = BallEnumerationOracle(structure, potential, spec, r, pad=1)
    ball = groups.ball(spec, r)
    graph = SiteGraph.from_ball(ball)
    values, masks = _rows(data.draw, len(ball), 2, 3)
    _unpin_occupied_neighbours(ball, values, masks)
    got = oracle.batch(values, masks)
    for k in range(len(values)):
        pins = {int(i): int(values[k, i]) for i in np.flatnonzero(masks[k])}
        expect = enumeration.site_marginal(graph, structure, potential, 0, pins=pins)[values[k, 0]]
        assert got[k] == pytest.approx(expect, abs=1e-12)


def _adjacency(ball) -> list[list[int]]:
    adj = [set() for _ in range(len(ball))]
    for (i, _s, j) in ball.edges:
        adj[i].add(j)
        adj[j].add(i)
    return [sorted(a) for a in adj]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]), st.floats(0.1, 4.0), st.data())
def test_ball_oracle_one_pad_out_is_the_saw_unfolding_on_z2(r_p, lam, data):
    """On Z^2 the ball oracle at pad p+1 gives the free-boundary hardcore
    conditionals of B_{r+p}, which the SAW unfolding computes exactly."""
    r, p = r_p
    spec = groups.zd(2)
    oracle = BallEnumerationOracle(*hardcore(2, lam), spec, r, pad=p + 1)
    ball = groups.ball(spec, r)
    values, masks = _rows(data.draw, len(ball), 2, 3)
    _unpin_occupied_neighbours(ball, values, masks)
    got = oracle.batch(values, masks)
    adj = _adjacency(groups.ball(spec, r + p))
    for k in range(len(values)):
        pins = {int(i): int(values[k, i]) for i in np.flatnonzero(masks[k])}
        p_occ = hardcore_marginal_via_saw(adj, 0, lam, pins)
        assert got[k] == pytest.approx(p_occ if values[k, 0] == 1 else 1.0 - p_occ, abs=1e-15)


TREE_BALLS = [(groups.free(1), 4), (groups.zd(1), 4), (groups.free(2), 3), (groups.free(3), 2)]


def _saw_reference(oracle, values, masks) -> list[float]:
    """Row-by-row center conditionals through the SAW unfolding of the
    oracle's ball with its activity vector."""
    out = []
    for v, m in zip(values, masks):
        pins = {int(i): int(v[i]) for i in np.flatnonzero(m)}
        p = hardcore_marginal_via_saw(_adjacency(oracle.ball), 0, oracle.lam, pins)
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


@pytest.mark.parametrize("spec, r_max", TREE_BALLS + [(groups.zd(2), 2)])
def test_tree_batch_raises_on_adjacent_occupied_pins(spec, r_max):
    """The SAW oracle on tree balls, and on Z^2 the ball oracle with the
    same free-boundary ball B_{r_max}."""
    model = hardcore(spec.rank, 1.0)
    tree = groups.is_tree(spec)
    oracle = SawOracle(*model, spec, r_max) if tree else BallEnumerationOracle(*model, spec, r_max - 1, pad=2)
    ball = groups.ball(spec, r_max - 1)
    for (i, _s, j) in ball.edges:
        values = np.zeros((2, len(ball)), dtype=np.int64)
        masks = np.zeros((2, len(ball)), dtype=bool)
        values[1, [i, j]] = masks[1, [i, j]] = 1
        with pytest.raises(InconsistentPinsError):
            oracle.batch(values, masks)
        if tree:
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
    for k in range(len(values)):
        pins = {**shell, **{int(i): int(values[k, i]) for i in np.flatnonzero(masks[k])}}
        expect = enumeration.site_marginal(graph, structure, potential, 0, pins=pins)[values[k, 0]]
        if np.isnan(expect):  # inadmissible pins: an empty fibre
            with pytest.raises(InconsistentPinsError):
                oracle.batch(values[k : k + 1], masks[k : k + 1])
        else:
            assert oracle.batch(values[k : k + 1], masks[k : k + 1])[0] == pytest.approx(expect, abs=1e-12)


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


def test_transfer_oracle_refuses_rows_wider_than_its_ball():
    """A width-5 Z^1 hardcore query at lambda = 1, occupied center, its only
    pin an occupied site at offset -2: the radius-2 oracle reads 0.3820, and
    the radius-1 oracle, whose side columns stop at offset 1, once read the
    unpinned 0.2764.  It now refuses, naming both widths, on `batch` and on
    the percolation route."""
    structure, potential = hardcore(1, 1.0)
    narrow, wide = (TransferOracle(structure, potential, groups.zd(1), R) for R in (1, 2))
    values = np.array([[1, 0, 0, 1, 0]])  # columns: center, -1, +1, -2, +2
    masks = np.array([[False, False, False, True, False]])
    assert wide.batch(values, masks)[0] == pytest.approx(0.381966, abs=1e-6)
    with pytest.raises(ValueError, match=r"width 5 .* 3 sites"):
        narrow.batch(values, masks)
    with pytest.raises(ValueError, match=r"width 5 .* 3 sites"):
        narrow.percolation_batch(values, 4, 5, np.random.default_rng(0), np.empty(4))
    assert narrow.batch(values[:, :3], masks[:, :3])[0] == wide.batch(values[:, :3], masks[:, :3])[0]


@pytest.mark.parametrize("make,width,pin", [
    (lambda: SawOracle(*hardcore(2, 1.0), groups.free(2), 1), 6, 5),  # B_1 of F_2: 5 sites
    (lambda: BallEnumerationOracle(*hardcore(2, 1.0), groups.free(2), 1, pad=1), 20, 19),  # B_2: 17
    (lambda: BallEnumerationOracle(*hardcore(2, 1.0), groups.zd(2), 1, pad=1), 14, 13),  # B_2 of Z^2: 13
], ids=["saw", "ball-f2", "ball-z2"])
def test_every_oracle_refuses_rows_wider_than_its_ball(make, width, pin):
    """The transfer oracle's width check, on the tree and ball oracles: the
    SAW oracle's batch raised a bare IndexError, and the ball oracle dropped
    the pin past its ball (on F_2, r = 1, pad = 1, it answered 0.941 for
    the row pinned at site 19, the unpinned conditional)."""
    oracle = make()
    values = np.zeros((1, width), dtype=np.int64)
    masks = np.zeros((1, width), dtype=bool)
    values[0, pin] = masks[0, pin] = 1
    sites = width - 1 if oracle.name == "saw" else len(oracle.ball)
    words = rf"width {width} .* {sites} sites"
    with pytest.raises(ValueError, match=words):
        oracle.batch(values, masks)
    with pytest.raises(ValueError, match=words):
        oracle.conditional(values[0], masks[0])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=words):
        oracle.percolation_batch(values, 4, width, rng, np.empty(4))
    assert rng.bit_generator.state == state  # refused before any draw


def _old_masks_route(oracle, spec, r, patterns, n_inner, rng):
    """The conditionals of the masks route the estimators took before every
    oracle answered `percolation_batch`: chunks of at most 2^16 mask entries
    from `sample_percolation_masks`, each sent to `batch`."""
    n, L = len(patterns) * n_inner, patterns.shape[1]
    step = max(1, 2**16 // len(groups.ball(spec, r)))
    out = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        masks = sample_percolation_masks(spec, r, hi - lo, rng)[:, :L]
        out[lo:hi] = oracle.batch(patterns[np.arange(lo, hi) // n_inner], masks)
    return out


@pytest.mark.parametrize("spec,r,pad,n_patterns,n_inner", [
    (groups.zd(2), 1, 2, 1, 20_000),  # the fixed point over several chunks
    (groups.zd(2), 1, 1, 7, 1_500),
    (groups.free(2), 1, 1, 3, 9_000),
])
def test_ball_oracle_percolation_batch_is_the_old_masks_route(spec, r, pad, n_patterns, n_inner):
    """The ball oracle's percolation_batch gives the old masks route's
    conditionals bitwise, leaves the generator in the same state, and makes
    as many memo misses (calls of `conditional`)."""
    model = hardcore(spec.rank, 1.0)
    L = len(groups.ball(spec, r))
    patterns = np.zeros((n_patterns, L), dtype=np.int64)
    patterns[1:, 0] = 1  # occupied centers after the first pattern
    results = []
    for route in ("new", "old"):
        oracle = BallEnumerationOracle(*model, spec, r, pad=pad)
        calls = []
        conditional = oracle.conditional
        oracle.conditional = lambda v, m: calls.append(1) or conditional(v, m)
        rng = np.random.default_rng(11)
        if route == "new":
            out = np.empty(n_patterns * n_inner)
            oracle.percolation_batch(patterns, n_inner, L, rng, out)
        else:
            out = _old_masks_route(oracle, spec, r, patterns, n_inner, rng)
        results.append((out, len(calls), rng.bit_generator.state))
    (new, new_calls, new_state), (old, old_calls, old_state) = results
    assert np.array_equal(new, old) and new_state == old_state
    assert new_calls == old_calls and 0 < new_calls < len(new)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TransferOracle(*hardcore(1, 1.5), groups.zd(1), 3),
        lambda: BallEnumerationOracle(*hardcore(2, 1.0), groups.zd(2), 1, pad=1),
        # the free-boundary ball B_1 of Z^2, once asked of the SAW oracle
        lambda: BallEnumerationOracle(*hardcore(2, 0.7), groups.zd(2), 1, pad=1),
        lambda: SawOracle(*hardcore(2, 0.7), groups.free(2), 3),
    ],
    ids=["transfer", "ball", "ball-for-saw", "saw-tree"],
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
    if not isinstance(oracle, BallEnumerationOracle):
        # no memo: every row is computed in one vectorised pass
        assert list(oracle.batch(values, masks)) == expect
        return
    calls = []
    conditional = oracle.conditional
    oracle.conditional = lambda v, m: calls.append(1) or conditional(v, m)
    assert list(oracle.batch(values, masks)) == expect
    assert len(calls) == 4  # memo misses go through conditional, once per distinct row


@pytest.mark.parametrize(
    "model, spec, kind",
    [
        (hardcore(1, 1.0), groups.zd(1), "transfer"),
        (hardcore(1, 1.0), groups.free(1), "transfer"),
        (hardcore(2, 0.3), groups.free(2), "saw"),
        (hardcore(2, 1.0), groups.zd(2), "ball"),
        ((full_shift(2, 2), zero_potential(2, 2)), groups.free(2), "ball"),
    ],
    ids=["hardcore-Z1", "hardcore-F1", "hardcore-F2", "hardcore-Z2", "full-shift-F2"],
)
def test_auto_oracle_routes(model, spec, kind):
    assert make_oracle("auto", *model, spec, 1).name == kind


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
