"""The conditional oracles against exact routes on random models and pins,
the tree-group SAW batch bitwise against the SAW unfolding, the ball oracle
one pad out against the SAW unfolding off trees, the transfer batch bitwise
against its argmin formula, the memoised batch against row-by-row queries,
and the benchmark tracer's targets against the classes and functions they
patch."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from soficlab import enumeration, groups
from soficlab.constraints import ConstraintStructure, Potential, full_shift, hardcore, zero_potential
from soficlab.enumeration import SiteGraph
from soficlab.errors import InconsistentPinsError
from soficlab.kernels import Pcg64
from soficlab._glauber_py import level_ratio, tree_batch
from soficlab.marginals import BallEnumerationOracle, SawOracle, TransferOracle, make_oracle
from soficlab.pasts import sample_percolation_masks
from soficlab.saw import hardcore_marginal_via_saw
from soficlab.transfer import build_transfer

from oracles import into, transfer_batch_argmin

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



@pytest.mark.parametrize("spec, r", [(groups.free(1), 3), (groups.zd(1), 3), (groups.free(2), 2),
                                     (groups.free(3), 1)], ids=["F1", "Z1", "F2", "F3"])
@pytest.mark.parametrize("boundary", ["free", "self_consistent"])
@pytest.mark.parametrize("pad", [0, 1, 2, 4])
def test_saw_continuation_is_bitwise_the_padded_ball(spec, r, boundary, pad):
    """SawOracle(r, pad=p) builds B_r alone and continues it by the
    per-level scalar recursion.  Its free ratios on B_r, and its batch on
    rows of every width up to |B_r| with pins of both kinds, are bitwise
    those of the whole padded ball B_{r+p}, whose free ratios are taken
    here level by level over every site by `level_ratio`."""
    model = hardcore(spec.rank, 0.7)
    short = SawOracle(*model, spec, r, pad=pad, boundary=boundary)
    tree = SawOracle(*model, spec, r + pad, boundary=boundary).tree
    free = [np.zeros(0)]
    for level in range(len(tree.starts) - 2, -1, -1):
        free.insert(0, level_ratio(tree, level, free[0]))
    whole = tree._replace(free=np.concatenate(free))
    ball = groups.ball(spec, r)
    assert len(short.tree.free) == len(ball)
    assert short.tree.free.tobytes() == whole.free[:len(ball)].tobytes()
    rng = np.random.default_rng(pad)
    values = (rng.random((200, len(ball))) < 0.4).astype(np.int64)
    masks = rng.random((200, len(ball))) < rng.random((200, 1))
    _unpin_occupied_neighbours(ball, values, masks)
    for width in sorted({1, 2, len(ball) // 2, len(ball)}):
        rows = values[:, :width], masks[:, :width]
        assert short.batch(*rows).tobytes() == tree_batch(*rows, whole).tobytes()
    too_wide = np.zeros((1, len(groups.ball(spec, r + 1))), np.int64)
    with pytest.raises(ValueError, match="wider than"):
        short.batch(too_wide, too_wide.astype(bool))


def test_auto_saw_oracle_builds_no_ball_past_its_radius():
    """The F_2 hardcore `auto` oracle at r = 6 and the default pad 4 builds
    and keeps B_6 (1,457 sites) and no larger ball; the padded ball B_10
    would have been 118,097 sites."""
    spec = groups.free(2)
    groups.ball.cache_clear()
    try:
        oracle = make_oracle("auto", *hardcore(2, 1.0), spec, 6)
        assert oracle.name == "saw" and len(oracle.tree.free) == 1457
        assert max(k for g, k in groups._BALLS if g == spec) == 6
    finally:
        groups.ball.cache_clear()

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
        narrow.percolation_batch(values, 4, Pcg64(0), into(np.empty(4)))
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
    rng = Pcg64(0)
    state = rng.state
    with pytest.raises(ValueError, match=words):
        oracle.percolation_batch(values, 4, rng, into(np.empty(4)))
    assert rng.state == state  # refused before any draw


@pytest.mark.parametrize("make,spec,r", [
    (lambda: TransferOracle(*hardcore(1, 1.3), groups.zd(1), 5), groups.zd(1), 4),
    (lambda: SawOracle(*hardcore(2, 1.3), groups.free(2), 3), groups.free(2), 2),
], ids=["transfer", "saw"])
def test_percolation_batch_takes_any_pattern_layout(make, spec, r):
    """The compiled percolation kernels read C-contiguous patterns only, so
    the oracles copy a column-sliced, Fortran-ordered or reversed pattern
    array first: its conditionals and the stream's state are bitwise
    those of its C-contiguous copy."""
    oracle = make()
    ball = groups.ball(spec, r)
    wide = (np.random.default_rng(3).random((6, len(ball) + 4)) < 0.3).astype(np.int64)
    for (i, _s, j) in ball.edges:  # admissible: drop the later end of every occupied edge
        wide[:, max(i, j)] &= ~wide[:, min(i, j)]
    for patterns in (wide[:, :len(ball)], np.asfortranarray(wide[:, :len(ball)]), wide[::-1, :len(ball)]):
        runs = []
        for layout in (patterns, np.ascontiguousarray(patterns)):
            rng = Pcg64(8)
            out = np.full(60, np.nan)
            oracle.percolation_batch(layout, 10, rng, into(out))
            runs.append((out, rng.state))
        (out, state), (expect, expect_state) = runs
        assert np.array_equal(out, expect) and state == expect_state


def test_every_oracle_takes_one_percolation_batch_signature():
    """The three oracles' `percolation_batch` take the same parameter names,
    kinds and defaults, so that a later change cannot narrow one alone."""
    signatures = {oracle.__name__: inspect.signature(oracle.percolation_batch)
                  for oracle in (TransferOracle, BallEnumerationOracle, SawOracle)}
    assert len(set(signatures.values())) == 1, signatures
    assert list(signatures["SawOracle"].parameters) == ["self", "patterns", "n_inner", "rng", "consume", "unit"]


@pytest.mark.parametrize("make", [
    lambda: TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2),
    lambda: SawOracle(*hardcore(2, 1.0), groups.free(2), 1),
    lambda: BallEnumerationOracle(*hardcore(2, 1.0), groups.zd(2), 1, pad=1),
], ids=["transfer", "saw", "ball"])
def test_every_oracle_refuses_rows_without_a_center(make):
    """Rows of width 0 are one ValueError on every route, before any draw;
    the transfer and tree batches once raised a bare IndexError."""
    oracle = make()
    values, masks = np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=bool)
    with pytest.raises(ValueError, match="^rows need a center column$"):
        oracle.batch(values, masks)
    rng = Pcg64(0)
    state = rng.state
    with pytest.raises(ValueError, match="^rows need a center column$"):
        oracle.percolation_batch(values, 4, rng, into(np.empty(12)))
    assert rng.state == state


@pytest.mark.parametrize("make", [
    lambda: TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2),
    lambda: SawOracle(*hardcore(2, 1.0), groups.free(2), 1),
    lambda: BallEnumerationOracle(*hardcore(2, 1.0), groups.zd(2), 1, pad=1),
], ids=["transfer", "saw", "ball"])
@pytest.mark.parametrize("symbol", [-1, 2])
@pytest.mark.parametrize("column", [0, 1], ids=["center", "pin"])
def test_every_oracle_refuses_a_symbol_outside_the_alphabet(make, symbol, column):
    """A center or pinned symbol outside [0, 2) is one ValueError on every
    oracle, and on the percolation route before any draw.  The ball oracle
    once read a symbol -1 as 1 through negative indexing (on Z^2 hardcore,
    r = 1, pad 1, a center of -1 gave 0.0588, the conditional of center 1)
    and a symbol 2 as a bare IndexError."""
    oracle = make()
    values = np.zeros((1, 5), dtype=np.int64)
    masks = np.zeros((1, 5), dtype=bool)
    values[0, column] = symbol
    masks[0, column] = column > 0
    words = rf"^symbol {symbol} of a center or pin is outside the alphabet \[0, 2\)$"
    with pytest.raises(ValueError, match=words):
        oracle.batch(values, masks)
    with pytest.raises(ValueError, match=words):
        oracle.conditional(values[0], masks[0])
    rng = Pcg64(0)
    state = rng.state
    with pytest.raises(ValueError, match=words):
        oracle.percolation_batch(values, 40, rng, into(np.empty(40)))
    assert rng.state == state


def test_every_oracle_gives_a_pinned_center_probability_one():
    """With the center pinned, every oracle returns 1, the probability of
    the pinned symbol given itself, on the Z^1 hardcore line at lambda = 1,
    r = 2.  The transfer oracle once ignored the pin and returned the
    unconditioned center marginal, 0.7236 for 0 and 0.2764 for 1."""
    model = hardcore(1, 1.0)
    values = np.array([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 1], [1, 0, 0, 1, 1]])  # center, -1, +1, -2, +2
    masks = np.array([[1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, 0, 1], [1, 1, 1, 1, 1]], dtype=bool)
    for oracle in (TransferOracle(*model, groups.zd(1), 2), SawOracle(*model, groups.zd(1), 2),
                   BallEnumerationOracle(*model, groups.zd(1), 2, pad=1)):
        assert np.array_equal(oracle.batch(values, masks), np.ones(4)), oracle.name
        assert oracle.conditional(values[1], masks[1]) == 1.0


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
    conditionals bitwise, leaves the stream in the same state, and makes
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
        rng = Pcg64(11)
        if route == "new":
            out = np.empty(n_patterns * n_inner)
            oracle.percolation_batch(patterns, n_inner, rng, into(out))
        else:
            out = _old_masks_route(oracle, spec, r, patterns, n_inner, rng)
        results.append((out, len(calls), rng.state))
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
    fresh = make()  # the ball oracle's conditional fills its memo
    expect = [fresh.conditional(v, m) for v, m in zip(values, masks)]
    if not isinstance(oracle, BallEnumerationOracle):
        # no memo: every row is computed in one vectorised pass
        assert list(oracle.batch(values, masks)) == expect
        return
    calls = []
    conditional = oracle.conditional
    oracle.conditional = lambda v, m: calls.append(1) or conditional(v, m)
    assert list(oracle.batch(values, masks)) == expect
    # memo misses go through conditional, once per distinct pin set: the
    # distinct rows 0 and 1 differ only in the center symbol
    assert len(calls) == 3


def test_ball_oracle_memo_is_keyed_by_the_pin_set(monkeypatch):
    """Rows of two pin sets, interleaved, each pin set's rows differing in
    the center symbol and in their symbols at unpinned sites: one
    `site_marginal` call per pin set, and each row reads its center's entry
    of that marginal, bitwise what a fresh oracle answers for the row alone.
    A memo of the last pin set and of whole rows eliminated four times."""
    make = lambda: BallEnumerationOracle(*hardcore(2, 1.0), groups.zd(2), 1, pad=1)
    values = np.array([[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [1, 0, 1, 1, 0], [1, 0, 1, 0, 1]])
    masks = np.zeros(values.shape, dtype=bool)
    masks[[0, 2], 3] = masks[[1, 3], 2] = True
    expect = [make().conditional(v, m) for v, m in zip(values, masks)]
    assert expect[0] != expect[2]
    calls = []
    site_marginal = enumeration.site_marginal
    monkeypatch.setattr(enumeration, "site_marginal", lambda *a, **k: calls.append(1) or site_marginal(*a, **k))
    oracle = make()
    assert oracle.batch(values, masks).tolist() == expect
    assert oracle.batch(values[::-1], masks[::-1]).tolist() == expect[::-1]
    assert len(calls) == 2


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
    """Each span target of the benchmark's tracer, loaded by path and left
    unchanged, is a plain function of its module, or of its own class's
    __dict__, which is what `install` wraps, and its span counts in one of
    the tracer's layers; a rename in the package that would break traced
    benchmark runs fails here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, modname, attr in tracing.TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(module, cls_name)).get(meth)
        else:
            target = getattr(module, attr, None)
        assert inspect.isfunction(target), f"{name}: {modname}.{attr} is not a function"
        assert name.split(".", 1)[0] in tracing.MODULES, name


@pytest.mark.parametrize("seed", range(10))
def test_ball_oracle_refuses_clashing_pins_before_any_draw(seed):
    """Z^1 hardcore at lambda = 1, r = 2, pad 1: the pattern [0, 1, 0, 1, 0]
    occupies sites -1 and -2, which a past pins together with positive
    probability.  Over 3 pasts it once raised InconsistentPinsError at seeds
    0, 2, 4, 6, 7 and 9 and returned numbers at 1, 3, 5 and 8; every seed now
    refuses it before any draw, naming the edge."""
    oracle = BallEnumerationOracle(*hardcore(1, 1.0), groups.zd(1), 2, pad=1)
    rng = Pcg64(seed)
    state = rng.state
    with pytest.raises(InconsistentPinsError, match=r"^pins 3 and 1 of pattern 0 hold the forbidden pair \(1, 1\)"):
        oracle.percolation_batch(np.array([[0, 1, 0, 1, 0]]), 3, rng, into(np.empty(3)))
    assert rng.state == state


def test_ball_oracle_pin_check_reads_each_edge_in_its_direction():
    """On Z^1 over {0, 1, 2} with safe symbol 0 and only 1 -> 2 forbidden,
    a pattern is refused exactly when two non-center sites s -> s+1 inside
    its width hold 1 then 2; a clash at the center only zeroes a
    conditional, and a reversed pair, or a pair past the width, is no
    clash.  Columns: center, -1, +1, -2, +2, -3, +3."""
    allowed = np.ones((1, 3, 3), dtype=bool)
    allowed[0, 1, 2] = False
    structure = ConstraintStructure(3, allowed)
    oracle = BallEnumerationOracle(structure, zero_potential(3, 1), groups.zd(1), 2, pad=1)
    for pattern, refused in [
        ([0, 2, 0, 1, 0, 0, 0], True),  # -2 -> -1 holds 1 -> 2
        ([0, 0, 1, 0, 2, 0, 0], True),  # +1 -> +2
        ([0, 1, 0, 2, 0, 0, 0], False),  # -2 -> -1 holds 2 -> 1
        ([1, 0, 2, 0, 0, 0, 0], False),  # the center -> +1
        ([0, 0, 0, 2, 0, 1, 0], True),  # -3 -> -2, inside the width
        ([0, 0, 0, 2, 0], False),  # the same pattern cut before -3
    ]:
        rng = Pcg64(1)
        run = lambda: oracle.percolation_batch(np.array([pattern]), 40, rng, into(np.empty(40)))
        if refused:
            with pytest.raises(InconsistentPinsError):
                run()
            assert rng.state == Pcg64(1).state
        else:
            run()
