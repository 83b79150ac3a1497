import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import _glauber_py, groups, kernels, pasts, soficmaps
from soficlab.constraints import full_shift, hardcore, zero_potential
from soficlab.errors import InconsistentPinsError
from soficlab.finitemodel import DerivedSpace, is_in_Xn
from soficlab.marginals import SawOracle, TransferOracle
from soficlab.pasts import sample_percolation_masks
from soficlab.sampling import GlauberEngine

from oracles import transfer_batch_argmin

needs_c = pytest.mark.skipif(kernels.BACKEND != "c", reason="C kernel not loaded")
LOOKUPS = [_glauber_py.transfer_lookup] + ([kernels._c_transfer_lookup] if kernels.BACKEND == "c" else [])
PERCOLATIONS = [_glauber_py.percolation_lookup] + (
    [kernels._c_percolation_lookup] if kernels.BACKEND == "c" else [])
TREES = [_glauber_py.tree_percolation] + ([kernels._c_tree_percolation] if kernels.BACKEND == "c" else [])


def _compiler():
    compiler = sysconfig.get_config_var("CC") or "cc"
    return compiler if shutil.which(shlex.split(compiler)[0]) else None


def _run(kernel, engine, sweeps, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(sweeps * engine.sm.n)
    x = engine.initial_state(0)
    kernel(x, engine.nbr_out, engine.nbr_in, engine.wh, engine.wj, engine.allowed, u, sweeps)
    return x


@needs_c
@pytest.mark.parametrize("model,builder", [
    (hardcore(2, 1.5), lambda: soficmaps.build_torus(2, 6)),
    (hardcore(2, 0.7), lambda: soficmaps.build_random_perm(2, 64, seed=3)),
    ((full_shift(3, 1), zero_potential(3, 1)), lambda: soficmaps.build_torus(1, 9)),
])
def test_backends_bitwise_equal(model, builder):
    st, pot = model
    engine = GlauberEngine(builder(), st, pot)
    a = _run(kernels.glauber_sweeps, engine, 40, seed=11)
    b = _run(_glauber_py.glauber_sweeps, engine, 40, seed=11)
    assert np.array_equal(a, b)


def test_c_kernel_loads_where_its_compiler_is_on_path():
    if os.environ.get("SOFICLAB_KERNEL", "").lower() == "python":
        pytest.skip("SOFICLAB_KERNEL=python forces the Python kernel")
    if _compiler() is None:
        pytest.skip("the compiler Python was built with is not on PATH")
    assert kernels.BACKEND == "c"


@st.composite
def sweep_cases(draw):
    """Kernel arguments for a random model: tori or random permutations, dead rows, -inf biases."""
    def exactly(k, elements):
        return np.array(draw(st.lists(elements, min_size=k, max_size=k)))

    a = draw(st.integers(1, 4))
    if draw(st.booleans()):
        sm = soficmaps.build_torus(draw(st.integers(1, 2)), draw(st.integers(2, 5)))
        n, nbr_out, nbr_in = sm.n, sm.perms, sm.perms_inv
    else:  # small random permutations, so some generators have fixed points
        n = draw(st.integers(1, 8))
        nbr_out = np.array([draw(st.permutations(range(n))) for _ in range(draw(st.integers(1, 3)))])
        nbr_in = np.empty_like(nbr_out)
        for s in range(len(nbr_out)):
            nbr_in[s, nbr_out[s]] = np.arange(n)
    n_gen = nbr_out.shape[0]
    allowed = exactly(n_gen * a * a, st.booleans()).astype(np.uint8).reshape(n_gen, a, a)
    for s, c in draw(st.lists(st.tuples(st.integers(0, n_gen - 1), st.integers(0, a - 1)), max_size=2)):
        allowed[s, c, :] = 0  # a dead row
    reals = st.floats(-3.0, 3.0)
    wh = np.exp(exactly(a, reals) + exactly(a, st.one_of(reals, st.just(-np.inf))))  # h + bias
    wj = np.exp(exactly(n_gen * a * a, reals)).reshape(n_gen, a, a)
    x = exactly(n, st.integers(0, a - 1)).astype(np.int8)
    sweeps = draw(st.integers(1, 30))
    uniforms = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(sweeps * n)
    uniforms[:: draw(st.sampled_from([1, 3, len(uniforms)]))] = 0.0  # thr == cum == 0 at dead symbols
    return x, nbr_out.astype(np.int64), nbr_in.astype(np.int64), wh, wj, allowed, uniforms, sweeps


@needs_c
def test_c_kernel_is_bitwise_the_python_twin():
    fixed_point_cases = []

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(sweep_cases(), st.data())
    def check(case, data):
        x, nbr_out, *rest = case
        a, sweeps = len(rest[1]), rest[-1]
        safe = data.draw(st.integers(0, a - 1))
        xc, xp = x.copy(), x.copy()
        cc, cp = np.full(sweeps, -1, np.int64), np.full(sweeps, -1, np.int64)
        kernels.glauber_sweeps(xc, nbr_out, *rest, cc, safe)
        _glauber_py.glauber_sweeps(xp, nbr_out, *rest, cp, safe)
        assert np.array_equal(xc, xp)
        assert np.array_equal(cc, cp)
        assert cc[-1] == np.count_nonzero(xc != safe)
        fixed_point_cases.append(bool((nbr_out == np.arange(len(x))).any()))

    check()
    assert any(fixed_point_cases), "no drawn case exercised the self-loop branch"


def _args():
    st, pot = hardcore(2, 1.0)
    engine = GlauberEngine(soficmaps.build_torus(2, 4), st, pot)
    u = np.random.default_rng(0).random(3 * engine.sm.n)
    return [engine.initial_state(0), engine.nbr_out, engine.nbr_in, engine.wh, engine.wj,
            engine.allowed, u, 3, np.zeros(3, np.int64), 0]


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


@needs_c
@pytest.mark.parametrize("arg,change", [
    (0, lambda x: x.astype(np.int64)),  # wrong dtype
    (1, lambda nb: nb.astype(np.int32)),
    (3, lambda wh: wh.astype(np.float32)),
    (5, lambda al: al.astype(bool)),
    (0, lambda x: np.repeat(x, 2)[::2]),  # not contiguous
    (4, lambda wj: np.asfortranarray(wj)),
    (0, _read_only),
    (2, lambda nb: nb[:, :-1].copy()),  # mismatched shapes
    (4, lambda wj: wj[:, :1].copy()),
    (5, lambda al: al[:1].copy()),
    (6, lambda u: u[:-1].copy()),  # one uniform short
    (3, lambda wh: np.ones(65)),  # alphabet above 64
    (1, lambda nb: _set(nb, (1, 5), 16)),  # neighbour index outside [0, n)
    (2, lambda nb: _set(nb, (0, 0), -1)),
    (0, lambda x: _set(x, 3, 2)),  # symbol outside [0, a)
    (0, lambda x: _set(x, 0, -1)),
    (8, lambda c: c.astype(np.int32)),  # counts
    (8, lambda c: np.zeros(6, np.int64)[::2]),
    (8, lambda c: c[:-1].copy()),
    (8, _read_only),
    (9, lambda safe: 2),  # safe outside [0, a)
    (9, lambda safe: -1),
], ids=["x-dtype", "nbr_out-dtype", "wh-dtype", "allowed-dtype", "x-strided", "wj-fortran",
        "x-read-only", "nbr_in-shape", "wj-shape", "allowed-shape", "uniforms-short",
        "alphabet-65", "nbr_out-above-n", "nbr_in-negative", "x-symbol-above-a", "x-symbol-negative",
        "counts-dtype", "counts-strided", "counts-short", "counts-read-only", "safe-above-a",
        "safe-negative"])
def test_c_kernel_rejects_what_it_cannot_trust(arg, change):
    args = _args()
    args[arg] = change(args[arg])
    x_before = np.array(args[0], copy=True)
    counts_before = np.array(args[8], copy=True)
    with pytest.raises(ValueError):
        kernels.glauber_sweeps(*args)
    assert np.array_equal(args[0], x_before)
    assert np.array_equal(args[8], counts_before)


@needs_c
def test_c_kernel_takes_read_only_and_empty_inputs():
    args = _args()
    expected = args[0].copy()
    _glauber_py.glauber_sweeps(expected, *args[1:])
    for arr in args[1:7]:
        arr.flags.writeable = False
    kernels.glauber_sweeps(*args)
    assert np.array_equal(args[0], expected)
    no_sites = np.zeros((2, 0), dtype=np.int64)
    kernels.glauber_sweeps(np.zeros(0, np.int8), no_sites, no_sites, *args[3:6], np.zeros(0), 3)


@st.composite
def lookup_cases(draw):
    """Transfer-lookup arguments on a Z^1 or F_1 ball of radius 0..5: any
    width up to the ball's, an alphabet of 1..4 with a table of distinct
    entries, pin densities from none to every site (the center included),
    and values and masks as the oracle's callers hand them over: broadcast
    pattern rows (stride 0) and masks sliced from wider ones."""
    spec = draw(st.sampled_from([groups.zd(1), groups.free(1)]))
    r_max = draw(st.integers(0, 5))
    geometry = TransferOracle(*hardcore(1, 1.0), spec, r_max)
    a = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = rng.random((a, r_max + 1, a, r_max + 1, a))
    L = draw(st.integers(1, 2 * r_max + 1))
    n = draw(st.integers(0, 40))
    extra = draw(st.integers(0, 3))
    masks = (rng.random((n, L + extra)) < draw(st.sampled_from([0.0, 1.0, 0.3, 0.7])))[:, :L]
    if draw(st.booleans()):
        values = np.broadcast_to(rng.integers(0, a, L), (n, L))
    else:
        values = rng.integers(0, a, (n, L))
    return values, masks, geometry, tables


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lookup_cases())
def test_transfer_lookup_backends_are_bitwise_the_argmin_reference(case):
    values, masks, geometry, tables = case
    expect = transfer_batch_argmin(tables, geometry.offsets, geometry.r_max, values, masks)
    for lookup in LOOKUPS:
        got = lookup(values, masks, geometry.sides, tables)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


@pytest.mark.parametrize("rows,pinned,symbol", [
    ([[-1, 0, 0, 0, 0]], [], -1),  # the center of a row with no pins
    ([[2, 0, 0, 0, 0]], [], 2),
    ([[0, 3, 0, 0, 0]], [1], 3),  # the nearest left pin
    ([[1, 0, -2, 0, 0]], [2], -2),  # the nearest right pin
    ([[0, 0, 0, 0, 0], [0, 5, 7, 0, 0]], [1, 2, 3, 4], 5),  # the first row that reads one; left first
    ([[9, 0, 0, 0, 0], [-3, 0, 0, 0, 0]], [], 9),
    ([[0, 0, 0, 4, 6]], [1, 2, 3, 4], None),  # pins behind the nearest ones are not read
    ([[0, 8, 8, 8, 8]], [], None),  # nor are unpinned sites
])
def test_lookup_symbol_outside_the_alphabet_is_one_error_on_both_backends(rows, pinned, symbol):
    oracle = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)  # columns: center, -1, +1, -2, +2
    values = np.array(rows, dtype=np.int64)
    masks = np.zeros(values.shape, dtype=bool)
    masks[:, pinned] = True
    lookups = [*LOOKUPS, lambda v, m, *_: oracle.batch(v, m)]
    if symbol is None:
        expect = _glauber_py.transfer_lookup(values, masks, oracle.sides, oracle.tables)
        for lookup in lookups:
            assert np.array_equal(lookup(values, masks, oracle.sides, oracle.tables), expect)
        return
    messages = set()
    for lookup in lookups:
        with pytest.raises(ValueError, match=rf"^symbol {symbol} .* \[0, 2\)$") as exc:
            lookup(values, masks, oracle.sides, oracle.tables)
        messages.add(str(exc.value))
    assert len(messages) == 1


def _lookup_args():
    oracle = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)
    rng = np.random.default_rng(1)
    return [rng.integers(0, 2, (6, 5)), rng.random((6, 5)) < 0.5, oracle.sides, oracle.tables]


@needs_c
@pytest.mark.parametrize("arg,change", [
    (0, lambda v: v.astype(np.int32)),  # wrong dtype
    (1, lambda m: m.astype(np.uint8)),
    (2, lambda s: s.astype(np.int32)),
    (3, lambda t: t.astype(np.float32)),
    (0, lambda v: np.repeat(v, 2, axis=1)[:, ::2]),  # columns not contiguous
    (1, lambda m: np.asfortranarray(m)),
    (0, lambda v: v[::-1]),  # negative row stride
    (1, lambda m: m[::-1]),
    (0, lambda v: v[0]),  # not 2-d
    (1, lambda m: m[:-1]),  # shapes that do not fit
    (3, lambda t: t[:, :-1].copy()),
    (3, lambda t: t[:1].copy()),
    (2, lambda s: s[:, :-1].copy()),
    (2, lambda s: np.asfortranarray(s)),
    (2, lambda s: _set(s, (1, 0), -1)),  # a negative column
    (slice(0, 2), lambda vm: [a[:, :0] for a in vm]),  # no center column
], ids=["values-dtype", "masks-dtype", "sides-dtype", "tables-dtype", "values-strided-columns",
        "masks-fortran", "values-negative-stride", "masks-negative-stride", "values-1d", "masks-shape",
        "tables-shape", "tables-alphabet", "sides-shape", "sides-fortran", "sides-negative", "no-center"])
def test_c_lookup_rejects_what_it_cannot_trust(arg, change):
    args = _lookup_args()
    args[arg] = change(args[arg])
    with pytest.raises(ValueError):
        kernels._c_transfer_lookup(*args)


@st.composite
def percolation_cases(draw):
    """Percolation-lookup arguments on a Z^1 or F_1 ball: a query radius r of
    1..8 against an oracle of radius r..r+2 at one of several activities,
    patterns of any width up to |B_r|, a row count that n_inner divides or
    not, a first row lo inside a pattern, and the twin's draw block cut to
    1, 7 or 2^16 uniforms."""
    spec = draw(st.sampled_from([groups.zd(1), groups.free(1)]))
    r = draw(st.integers(1, 8))
    oracle = TransferOracle(*hardcore(1, draw(st.sampled_from([0.4, 1.0, 2.5]))), spec,
                            r + draw(st.integers(0, 2)))
    L = draw(st.integers(1, 2 * r + 1))
    n_inner = draw(st.integers(1, 9))
    lo = draw(st.integers(0, 3 * n_inner))
    n = n_inner * draw(st.integers(0, 6)) + draw(st.integers(0, n_inner - 1))
    patterns = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 2, ((lo + n) // n_inner + 1, L))
    block = draw(st.sampled_from([1, 7, 2**16]))
    return spec, r, oracle, patterns, n_inner, lo, n, draw(st.integers(0, 2**32 - 1)), block


@settings(max_examples=300, derandomize=True, deadline=None)
@given(percolation_cases())
def test_percolation_lookup_backends_are_bitwise_the_masks_route(case):
    """Both backends give the lookup of the masks that sample_percolation_masks
    draws from the same generator, bitwise, and leave the generator in the
    state that draw leaves it, so later draws stay aligned."""
    spec, r, oracle, patterns, n_inner, lo, n, seed, block = case
    ball_size = len(groups.ball(spec, r))
    reference = np.random.default_rng(seed)
    masks = sample_percolation_masks(spec, r, n, reference)[:, :patterns.shape[1]]
    rows = patterns[(lo + np.arange(n)) // n_inner]
    expect = _glauber_py.transfer_lookup(rows, masks, oracle.sides, oracle.tables)
    saved = pasts.CHUNK_FLOATS
    pasts.CHUNK_FLOATS = block
    try:
        for lookup in PERCOLATIONS:
            rng = np.random.default_rng(seed)
            out = np.full(n, np.nan)
            lookup(patterns, n_inner, lo, ball_size, oracle.sides, oracle.tables, rng, out)
            assert np.array_equal(out, expect)
            assert rng.bit_generator.state == reference.bit_generator.state
    finally:
        pasts.CHUNK_FLOATS = saved


@pytest.mark.parametrize("pattern,n,message", [
    ([2, 0, 0, 0, 0], 1, r"^symbol 2 "),  # the center, whatever the past
    ([0, 3, 3, 3, 3], 200, r"^symbol 3 "),  # the nearest pin of the first row with one
    ([0, -1, 5, -1, 5], 200, r"^symbol (-1|5) "),  # left before right within a row
    ([0, 0, 0, 0, 0], 0, r"^side column .* negative$"),  # checked before any row
])
def test_percolation_symbol_or_column_is_one_error_on_both_backends(pattern, n, message):
    oracle = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)  # columns: center, -1, +1, -2, +2
    sides = oracle.sides.copy()
    if n == 0:
        sides[1, 0] = -1
    patterns = np.array([pattern], dtype=np.int64)
    messages = set()
    for lookup in PERCOLATIONS:
        with pytest.raises(ValueError, match=message) as exc:
            lookup(patterns, n + 1, 0, 5, sides, oracle.tables, np.random.default_rng(3), np.empty(n))
        messages.add(str(exc.value))
    assert len(messages) == 1


def _percolation_args():
    oracle = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)
    return [np.zeros((2, 5), np.int64), 3, 1, 5, oracle.sides, oracle.tables,
            np.random.default_rng(1), np.empty(5)]


@needs_c
@pytest.mark.parametrize("arg,change", [
    (0, lambda p: p.astype(np.int32)),  # wrong dtype
    (0, lambda p: np.asfortranarray(p)),  # columns not contiguous
    (0, lambda p: p[::-1]),  # negative row stride
    (0, lambda p: p[:, :0]),  # no center column
    (3, lambda b: 4),  # patterns wider than the pasts' ball
    (1, lambda n_inner: 0),
    (2, lambda lo: -1),
    (2, lambda lo: 2),  # the last row reads a pattern past the end
    (4, lambda s: s.astype(np.int32)),
    (5, lambda t: t[:1].copy()),
    (6, lambda rng: rng.bit_generator),  # not a Generator
    (7, lambda out: out.astype(np.float32)),
    (7, lambda out: np.broadcast_to(out, (5,))),  # read-only
], ids=["patterns-dtype", "patterns-fortran", "patterns-negative-stride", "no-center", "too-wide",
        "n-inner", "lo-negative", "rows-past-the-end", "sides-dtype", "tables-alphabet", "rng",
        "out-dtype", "out-read-only"])
def test_c_percolation_rejects_what_it_cannot_trust(arg, change):
    args = _percolation_args()
    args[arg] = change(args[arg])
    state = args[6].bit_generator.state if hasattr(args[6], "bit_generator") else None
    with pytest.raises(ValueError):
        kernels._c_percolation_lookup(*args)
    if state is not None:
        assert args[6].bit_generator.state == state  # refused before any draw


@st.composite
def tree_cases(draw):
    """Tree-percolation arguments: a query radius r on F_1, Z^1, F_2 or F_3
    against a SAW oracle of radius r..r+2 with either shell, patterns of any
    width up to |B_r| that are admissible or not (adjacent 1s, or a symbol
    outside {0, 1} in some column), a row count that n_inner divides or
    not, a first row lo inside a pattern, and the twin's chunk cut to 1, 7
    or 2^16 uniforms."""
    spec, top = draw(st.sampled_from([(groups.free(1), 6), (groups.zd(1), 6), (groups.free(2), 4),
                                      (groups.free(3), 3)]))
    r = draw(st.integers(1, top))
    oracle = SawOracle(*hardcore(spec.rank, draw(st.sampled_from([0.3, 1.0, 2.5]))), spec,
                       r + draw(st.integers(0, 2)),
                       boundary=draw(st.sampled_from(["free", "self_consistent"])))
    ball = groups.ball(spec, r)
    L = draw(st.integers(1, len(ball)))
    n_inner = draw(st.integers(1, 9))
    lo = draw(st.integers(0, 3 * n_inner))
    n = n_inner * draw(st.integers(0, 6)) + draw(st.integers(0, n_inner - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = (rng.random(((lo + n) // n_inner + 1, L)) < draw(st.sampled_from([0.0, 0.3, 0.6]))).astype(np.int64)
    if draw(st.booleans()):  # admissible: drop the later end of every occupied edge
        for (i, _s, j) in ball.edges:
            if max(i, j) < L:
                patterns[:, max(i, j)] &= ~patterns[:, min(i, j)]
    if draw(st.integers(0, 4)) == 0:
        patterns[rng.integers(len(patterns)), rng.integers(L)] = draw(st.sampled_from([-1, 2, 5]))
    block = draw(st.sampled_from([1, 7, 2**16]))
    return spec, r, oracle, patterns, n_inner, lo, n, draw(st.integers(0, 2**32 - 1)), block


def _outcome(run):
    """run()'s result, or the type and message of the error it raised."""
    try:
        return run()
    except (ValueError, InconsistentPinsError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tree_cases())
def test_tree_percolation_backends_are_bitwise_the_masks_route(case):
    """Both backends give `tree_batch` over the masks that
    sample_percolation_masks draws from the same generator, bitwise, and
    leave the generator in that draw's state; where the masks route raises
    (adjacent occupied pins, a symbol outside {0, 1}), both raise its error."""
    spec, r, oracle, patterns, n_inner, lo, n, seed, block = case
    ball_size = len(groups.ball(spec, r))
    reference = np.random.default_rng(seed)
    masks = sample_percolation_masks(spec, r, n, reference)[:, :patterns.shape[1]]
    rows = patterns[(lo + np.arange(n)) // n_inner]
    expect = _outcome(lambda: _glauber_py.tree_batch(rows, masks, oracle.tree))
    saved = pasts.CHUNK_FLOATS
    pasts.CHUNK_FLOATS = block
    try:
        for tree_percolation in TREES:
            rng = np.random.default_rng(seed)
            out = np.full(n, np.nan)
            got = _outcome(lambda: tree_percolation(patterns, n_inner, lo, ball_size, oracle.tree, rng, out)
                           or out)
            if isinstance(expect, tuple):
                assert got == expect
                continue
            assert np.array_equal(got, expect)
            assert rng.bit_generator.state == reference.bit_generator.state
    finally:
        pasts.CHUNK_FLOATS = saved


@pytest.mark.parametrize("rows,error", [
    # F_2's B_2 lists the edges (0, 3), (0, 4), (1, 11), (1, 0), ..., (3, 12), ..., (4, 16), (5, 1), ...
    ([({4: 1, 16: 1}, [4, 16]), ({1: 1, 11: 1}, [1, 11])], r"^adjacent occupied pins 4, 16$"),
    ([({}, []), ({3: 1, 12: 1, 1: 1, 11: 1}, [3, 12, 1, 11])], r"^adjacent occupied pins 1, 11$"),
    ([({9: 8}, []), ({0: 7}, [])], r"^symbol 7 "),  # an unpinned site is not read, the center is
    ([({3: 3}, [3]), ({1: 1, 11: 1}, [1, 11])], r"^symbol 3 "),
    ([({1: 1, 11: 1, 4: 4}, [1, 11, 4])], r"^symbol 4 "),  # a row's symbol before its clash
])
def test_tree_batch_names_the_first_row_with_an_error(rows, error):
    """SawOracle.batch reports the first row with a clash or a symbol outside
    {0, 1}: within it a symbol (column order, center first) before the first
    clashing edge (edge order).  Each row is its nonzero symbols and its pins."""
    oracle = SawOracle(*hardcore(2, 1.0), groups.free(2), 3)
    values = np.zeros((len(rows), 17), dtype=np.int64)
    masks = np.zeros(values.shape, dtype=bool)
    for k, (symbols, pinned) in enumerate(rows):
        values[k, list(symbols)] = list(symbols.values())
        masks[k, pinned] = True
    with pytest.raises((ValueError, InconsistentPinsError), match=error):
        oracle.batch(values, masks)


@pytest.mark.parametrize("pattern,message", [
    ({1: 1, 5: 1}, r"^adjacent occupied pins 5, 1$"),  # the first row whose past pins both
    ({0: 2}, r"^symbol 2 "),  # the center, whatever the past
    ({6: -3}, r"^symbol -3 "),  # once a past pins it
    ({6: 9, 1: 1, 5: 1}, r"^(symbol 9 |adjacent occupied pins 5, 1$)"),  # whichever row comes first
])
def test_tree_percolation_errors_are_one_error_on_both_backends(pattern, message):
    """The same error, naming the same edge or symbol, from both backends and
    every chunk size of the twin: that of the first row that has one."""
    oracle = SawOracle(*hardcore(2, 1.0), groups.free(2), 3)
    patterns = np.zeros((1, 17), dtype=np.int64)
    for c, v in pattern.items():
        patterns[0, c] = v
    messages = set()
    saved = pasts.CHUNK_FLOATS
    try:
        for block in (17, 7 * 17, 2**16):
            pasts.CHUNK_FLOATS = block
            for tree_percolation in TREES:
                with pytest.raises((ValueError, InconsistentPinsError), match=message) as exc:
                    tree_percolation(patterns, 500, 0, 17, oracle.tree, np.random.default_rng(5), np.empty(500))
                messages.add((exc.type, str(exc.value)))
    finally:
        pasts.CHUNK_FLOATS = saved
    assert len(messages) == 1


def _tree_args():
    oracle = SawOracle(*hardcore(2, 1.0), groups.free(2), 3)
    return [np.zeros((2, 17), np.int64), 3, 1, 17, oracle.tree, np.random.default_rng(1), np.empty(5)]


def _bad_children(tree):
    children = tree.children.copy()
    children[0] = 0  # the root its own child
    return tree._replace(children=children)


@needs_c
@pytest.mark.parametrize("arg,change", [
    (0, lambda p: p.astype(np.int32)),  # wrong dtype
    (0, lambda p: np.asfortranarray(p)),  # columns not contiguous
    (0, lambda p: p[:, :0]),  # no center column
    (3, lambda b: 16),  # patterns wider than the pasts' ball
    (2, lambda lo: 2),  # the last row reads a pattern past the end
    (4, lambda t: t._replace(lam=t.lam.astype(np.float32))),
    (4, lambda t: t._replace(free=t.free[:-1].copy())),
    (4, lambda t: t._replace(child_ptr=t.child_ptr[:-1].copy())),
    (4, lambda t: t._replace(edges=t.edges.ravel().copy())),
    (4, lambda t: t._replace(starts=t.starts[:2].copy())),  # levels narrower than the patterns
    (4, _bad_children),
    (5, lambda rng: rng.bit_generator),  # not a Generator
    (6, lambda out: np.broadcast_to(out, (5,))),  # read-only
], ids=["patterns-dtype", "patterns-fortran", "no-center", "too-wide", "rows-past-the-end", "lam-dtype",
        "free-short", "child-ptr-short", "edges-1d", "starts-narrow", "child-not-later", "rng", "out-read-only"])
def test_c_tree_rejects_what_it_cannot_trust(arg, change):
    args = _tree_args()
    args[arg] = change(args[arg])
    state = args[5].bit_generator.state if hasattr(args[5], "bit_generator") else None
    with pytest.raises(ValueError):
        kernels._c_tree_percolation(*args)
    if state is not None:
        assert args[5].bit_generator.state == state  # refused before any draw


def test_soficlab_kernel_python_forces_the_twin():
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "SOFICLAB_KERNEL": "python",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", "import soficlab.kernels as k; print(k.BACKEND, "
         "k.glauber_sweeps is k._glauber_py.glauber_sweeps, k.transfer_lookup is k._glauber_py.transfer_lookup, "
         "k.percolation_lookup is k._glauber_py.percolation_lookup, "
         "k.tree_percolation is k._glauber_py.tree_percolation)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["python", "True", "True", "True", "True"]


def test_unbuildable_kernel_falls_back(tmp_path, monkeypatch):
    with pytest.warns(RuntimeWarning):
        assert kernels._load_c_kernel(str(tmp_path / "no-such-cc"), tmp_path / "cache") is None
    (tmp_path / "file").write_text("")
    with pytest.warns(RuntimeWarning):  # a cache directory that cannot be made
        assert kernels._load_c_kernel(None, tmp_path / "file" / "soficlab") is None
    if _compiler() is None:
        return
    # a library that builds and loads but lacks one kernel gives all four twins, not a mix
    source = kernels._SOURCE.read_text()
    for name in ("glauber_sweeps", "transfer_lookup", "percolation_lookup", "tree_percolation"):
        lacking = tmp_path / name / "_glauber.c"
        lacking.parent.mkdir()
        lacking.write_text(source.replace(f"int {name}(", f"int {name}_elsewhere("))
        monkeypatch.setattr(kernels, "_SOURCE", lacking)
        with pytest.warns(RuntimeWarning, match=name):
            assert kernels._load_c_kernel(None, tmp_path / name / "cache") is None
        assert len(list((tmp_path / name / "cache").iterdir())) == 1  # it did build


def test_failed_build_stays_a_warning_under_the_suite_filters(tmp_path):
    """The warning filters of pyproject.toml, applied as pytest applies them
    (the last entry wins), turn numpy's RuntimeWarnings into errors but
    leave the kernel build's fallback warning a warning, so a host without
    a compiler still collects the suite."""
    tomllib = pytest.importorskip("tomllib")
    from _pytest.config import parse_warning_filter

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    filters = tomllib.loads(pyproject.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        for entry in filters:
            warnings.filterwarnings(*parse_warning_filter(entry, escape=False))
        assert kernels._load_c_kernel(str(tmp_path / "no-such-cc"), tmp_path / "cache") is None
        with pytest.raises(RuntimeWarning):
            np.log(np.zeros(1))
    assert [str(w.message).split(",")[0] for w in caught] == ["C kernels unavailable"]


@needs_c
def test_build_leaves_one_library_in_the_cache(tmp_path, monkeypatch):
    assert kernels._load_c_kernel(None, tmp_path) is not None
    (lib,) = tmp_path.iterdir()  # no temporary file is left behind
    assert lib.name.startswith("_glauber-") and lib.suffix == ".so"

    def no_build(*args):
        raise AssertionError("a cached kernel was rebuilt")

    monkeypatch.setattr(kernels, "_compile", no_build)
    assert kernels._load_c_kernel(None, tmp_path) is not None


def test_sweeps_stay_in_derived_space():
    st, pot = hardcore(2, 2.0)
    sm = soficmaps.build_torus(2, 6)
    space = DerivedSpace(sm, st, pot)
    engine = GlauberEngine(sm, st, pot)
    rng = np.random.default_rng(0)
    x = engine.initial_state(0)
    for _ in range(20):
        engine.sweeps(x, 1, rng)
        assert is_in_Xn(space, x)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunked_sweeps_are_one_sweep_calls(extra):
    st, pot = hardcore(2, 1.0)
    engine = GlauberEngine(soficmaps.build_torus(2, 8), st, pot)
    k = engine.chunk + extra
    x = engine.initial_state(0)
    counts = np.full(k, -1, np.int64)
    engine.sweeps(x, k, np.random.default_rng(4), counts, 0)
    rng = np.random.default_rng(4)
    y = engine.initial_state(0)
    expected = []
    for _ in range(k):
        engine.sweeps(y, 1, rng)
        expected.append(np.count_nonzero(y != 0))
    assert engine.chunk == 256
    assert np.array_equal(x, y)
    assert counts.tolist() == expected


def test_bias_shifts_density():
    st, pot = hardcore(1, 1.0)
    sm = soficmaps.build_torus(1, 32)
    engine = GlauberEngine(sm, st, pot)
    rng = np.random.default_rng(1)
    x = engine.initial_state(0)
    engine.set_bias(np.array([0.0, -3.0]))
    engine.sweeps(x, 200, rng)
    low = x.mean()
    engine.set_bias(None)
    engine.sweeps(x, 200, rng)
    normal = x.mean()
    assert low < normal


def test_self_loop_handling():
    # m=2 torus in one generator: sigma^2 = id, two-cycles but no self loops
    st, pot = hardcore(1, 1.0)
    sm = soficmaps.build_torus(1, 2)
    engine = GlauberEngine(sm, st, pot)
    rng = np.random.default_rng(2)
    x = engine.initial_state(0)
    engine.sweeps(x, 50, rng)
    assert not (x == 1).all()  # adjacent pair (0,1) can never be both occupied
