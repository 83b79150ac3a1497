import inspect
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import _glauber_py, groups, kernels, pasts, soficmaps
from soficlab.constraints import full_shift, hardcore, zero_potential
from soficlab.errors import InconsistentPinsError
from soficlab.finitemodel import DerivedSpace
from soficlab.kernels import Pcg64
from soficlab.marginals import SawOracle, TransferOracle
from soficlab.pasts import sample_percolation_masks
from soficlab.sampling import GlauberEngine

from oracles import into, transfer_batch_argmin
from reference import is_in_Xn

needs_c = pytest.mark.skipif(kernels.BACKEND != "c", reason="C kernel not loaded")
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
        sm = soficmaps.build_torus(draw(st.integers(1, 3)), draw(st.integers(2, 5)))
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


def _stream_outcome(kernel, case, safe, seed):
    """(x, counts, end state) of one sweep call of `case` that draws its
    uniforms from a Pcg64 stream."""
    x, nbr_out, nbr_in, wh, wj, allowed, _, sweeps = case
    rng = Pcg64(seed)
    x = x.copy()
    counts = np.full(sweeps, -1, np.int64)
    kernel(x, nbr_out, nbr_in, wh, wj, allowed, rng, sweeps, counts, safe)
    return x, counts, rng.state


@needs_c
def test_c_sweep_routes_and_generator_are_bitwise_the_twin(monkeypatch):
    """Both routes of the compiled sweep, the weight table and the direct
    weights, give the twin's trajectory and counts on every drawn case: the
    route the call takes, the table route wherever the table fits, and the
    direct route, each forced.  Drawing from a Pcg64 stream, the compiled
    kernel gives the twin's x, counts and end state on each of those routes,
    and these are the array form's over `rng.random(sweeps * n)`.  The table
    route runs one compiled instance for two symbols on each of 1, 2 and 3
    generators and one for every other shape; each is drawn on both stream
    forms, with self-loops, dead rows, -inf biases and, in the array form,
    zero uniforms."""
    routes = []
    natural = kernels._sweep_table_keys
    covered = {(shape, form): set() for shape in ("any", 1, 2, 3) for form in ("array", "drawn")}

    def tabled(a, n_gen, updates):
        return natural(a, n_gen, updates=math.inf)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(sweep_cases(), st.data())
    def check(case, data):
        x, nbr_out, *rest = case
        n, n_gen, a, sweeps = len(x), len(nbr_out), len(rest[1]), rest[-1]
        safe = data.draw(st.integers(0, a - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        xp, cp = x.copy(), np.full(sweeps, -1, np.int64)
        _glauber_py.glauber_sweeps(xp, nbr_out, *rest, cp, safe)
        xs, cs, twin_state = _stream_outcome(_glauber_py.glauber_sweeps, case, safe, seed)
        routes.append(natural(a, n_gen, sweeps * n) > 0)
        if tabled(a, n_gen, 0):
            shape = n_gen if a == 2 and 1 <= n_gen <= 3 else "any"
            features = {name for name, present in (
                ("self-loop", (nbr_out == np.arange(n)).any()),
                ("dead row", (rest[3] == 0).all(axis=2).any()),
                ("-inf bias", (rest[1] == 0).any()),
            ) if present}
            covered[shape, "drawn"] |= features
            covered[shape, "array"] |= features | ({"zero uniform"} if (rest[4][: sweeps * n] == 0).any() else set())
        for keys in (natural, tabled, lambda *args: 0):
            monkeypatch.setattr(kernels, "_sweep_table_keys", keys)
            xc, cc = x.copy(), np.full(sweeps, -1, np.int64)
            kernels.glauber_sweeps(xc, nbr_out, *rest, cc, safe)
            assert np.array_equal(xc, xp)
            assert np.array_equal(cc, cp)
            xc, cc, state = _stream_outcome(kernels.glauber_sweeps, case, safe, seed)
            assert np.array_equal(xc, xs) and np.array_equal(cc, cs) and state == twin_state
        monkeypatch.setattr(kernels, "_sweep_table_keys", natural)

        reference = Pcg64(seed)
        xa = x.copy()
        _glauber_py.glauber_sweeps(xa, nbr_out, *rest[:4], reference.random(sweeps * n), sweeps)
        assert np.array_equal(xa, xs)
        assert reference.state == twin_state

    check()
    assert any(routes) and not all(routes), "the drawn cases did not take both routes"
    for (shape, form), got in covered.items():
        need = {"self-loop", "dead row", "-inf bias"} | ({"zero uniform"} if form == "array" else set())
        assert need <= got, f"the {shape} table instance was not drawn on {form} uniforms with {sorted(need - got)}"


@pytest.mark.parametrize("used", [False, True])
def test_twin_sweep_draws_in_bounded_chunks(monkeypatch, used):
    """The twin draws a stream's uniforms into a buffer of at most
    UNIFORM_BUFFER doubles; drawn across several such chunks, from a fresh
    stream or one already drawn from, they are still those of
    `rng.random(sweeps * n)`, and the stream ends in that call's state."""
    monkeypatch.setattr(_glauber_py, "UNIFORM_BUFFER", 20)  # 2 sweeps of 8 sites per draw
    st_, pot = hardcore(1, 1.5)
    engine = GlauberEngine(soficmaps.build_torus(1, 8), st_, pot)
    args = (engine.nbr_out, engine.nbr_in, engine.wh, engine.wj, engine.allowed)
    rng, reference = Pcg64(3), Pcg64(3)
    if used:
        for g in (rng, reference):
            g.random(3)
    x, y = engine.initial_state(0), engine.initial_state(0)
    counts, expected = np.full(7, -1, np.int64), np.full(7, -1, np.int64)
    _glauber_py.glauber_sweeps(x, *args, rng, 7, counts, 0)
    _glauber_py.glauber_sweeps(y, *args, reference.random(7 * 8), 7, expected, 0)
    assert np.array_equal(x, y) and np.array_equal(counts, expected)
    assert rng.state == reference.state


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
    (6, lambda u: np.random.Generator(np.random.MT19937(0))),  # numpy Generators: a Pcg64 only
    (6, lambda u: np.random.Generator(np.random.Philox(0))),
    (6, lambda u: np.random.default_rng(0)),  # also over numpy's own PCG64
    (6, lambda u: u.tolist()),  # neither an array nor a stream
], ids=["x-dtype", "nbr_out-dtype", "wh-dtype", "allowed-dtype", "x-strided", "wj-fortran",
        "x-read-only", "nbr_in-shape", "wj-shape", "allowed-shape", "uniforms-short",
        "alphabet-65", "nbr_out-above-n", "nbr_in-negative", "x-symbol-above-a", "x-symbol-negative",
        "counts-dtype", "counts-strided", "counts-short", "counts-read-only", "safe-above-a",
        "safe-negative", "uniforms-mt19937", "uniforms-philox", "uniforms-pcg64-generator",
        "uniforms-list"])
def test_c_kernel_rejects_what_it_cannot_trust(arg, change):
    args = _args()
    args[arg] = change(args[arg])
    x_before = np.array(args[0], copy=True)
    counts_before = np.array(args[8], copy=True)
    state = _stream_state(args[6])
    with pytest.raises(ValueError):
        kernels.glauber_sweeps(*args)
    assert np.array_equal(args[0], x_before)
    assert np.array_equal(args[8], counts_before)
    if state is not None:
        assert _same_state(_stream_state(args[6]), state)  # refused before any draw


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
    entries, which replaces the tables of the oracle that gives the
    geometry, pin densities from none to every site (the center included),
    and values and masks as the oracle's callers may hand them over:
    broadcast pattern rows (stride 0) and masks sliced from wider ones."""
    spec = draw(st.sampled_from([groups.zd(1), groups.free(1)]))
    r_max = draw(st.integers(0, 5))
    geometry = TransferOracle(*hardcore(1, 1.0), spec, r_max)
    a = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = geometry.tables = rng.random((a, r_max + 1, a, r_max + 1, a))
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
    for got in (_glauber_py.transfer_lookup(values, masks, geometry.sides, tables),
                geometry.batch(values, masks)):
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
    lookups = [_glauber_py.transfer_lookup, lambda v, m, *_: oracle.batch(v, m)]
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


def _masks(rng, n: int, L: int) -> np.ndarray:
    """The masks of n percolation pasts on L sites drawn from rng, as
    `sample_percolation_masks` draws them on a ball of L sites."""
    chi = rng.random((n, L))
    masks = chi < chi[:, :1]
    masks[:, 0] = False
    return masks


def test_masks_are_those_of_sample_percolation_masks():
    """The tests' reference masks on the L sites of a ball are
    `sample_percolation_masks`' on it, and leave the stream alike."""
    for spec, r in ((groups.zd(1), 3), (groups.free(2), 2)):
        rng, reference = Pcg64(6), Pcg64(6)
        expect = sample_percolation_masks(spec, r, 50, reference)
        assert np.array_equal(_masks(rng, 50, len(groups.ball(spec, r))), expect)
        assert rng.state == reference.state


@st.composite
def percolation_cases(draw):
    """Percolation-lookup arguments on a Z^1 or F_1 ball: patterns of any
    width up to |B_r| for a query radius r of 1..8 or 16, the benchmark's,
    against an oracle of radius r..r+2 at one of several activities,
    n_inner rows per pattern, and the twin's draw block cut to 1, 7 or 2^16
    uniforms.  Half the widths are at most 9, so that they cut the first
    four columns of a side (columns 1, 3, 5, 7 and 2, 4, 6, 8), which the
    C kernel tests without a branch, at every radius."""
    spec = draw(st.sampled_from([groups.zd(1), groups.free(1)]))
    r = draw(st.sampled_from([*range(1, 9), 16]))
    oracle = TransferOracle(*hardcore(1, draw(st.sampled_from([0.4, 1.0, 2.5]))), spec,
                            r + draw(st.integers(0, 2)))
    L = draw(st.one_of(st.integers(1, 2 * r + 1), st.integers(1, min(9, 2 * r + 1))))
    n_inner = draw(st.integers(1, 9))
    patterns = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 2, (draw(st.integers(0, 6)), L))
    block = draw(st.sampled_from([1, 7, 2**16]))
    return oracle, patterns, n_inner, draw(st.integers(0, 2**32 - 1)), block


@settings(max_examples=300, derandomize=True, deadline=None)
@given(percolation_cases())
def test_percolation_lookup_backends_are_bitwise_the_masks_route(case):
    """Both backends give the lookup of the masks of percolation pasts on
    the pattern's sites, drawn from the same stream, bitwise, and leave the
    stream in the state that draw leaves it, so later draws stay aligned."""
    oracle, patterns, n_inner, seed, block = case
    n = len(patterns) * n_inner
    reference = Pcg64(seed)
    masks = _masks(reference, n, patterns.shape[1])
    rows = patterns[np.arange(n) // n_inner]
    expect = _glauber_py.transfer_lookup(rows, masks, oracle.sides, oracle.tables)
    saved = pasts.CHUNK_FLOATS
    pasts.CHUNK_FLOATS = block
    try:
        for lookup in PERCOLATIONS:
            rng = Pcg64(seed)
            out = np.full(n, np.nan)
            lookup(patterns, n_inner, oracle.sides, oracle.tables, rng, into(out))
            assert np.array_equal(out, expect)
            assert rng.state == reference.state
    finally:
        pasts.CHUNK_FLOATS = saved


@pytest.mark.parametrize("pattern,n,message", [
    ([2, 0, 0, 0, 0], 1, r"^symbol 2 "),  # the center
    ([0, 3, 3, 3, 3], 200, r"^symbol 3 "),  # a pin, whatever the pasts
    ([0, -1, 5, -1, 5], 200, r"^symbol (-1|5) "),  # one of them: the first in C order
    ([0, 0, 0, 0, 0], 0, r"^side column .* negative$"),  # checked before any row
])
def test_percolation_symbol_or_column_is_one_error_on_both_backends(pattern, n, message):
    """One error from both backends, raised before any draw; a negative side
    column also with no rows."""
    oracle = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)  # columns: center, -1, +1, -2, +2
    sides = oracle.sides.copy()
    if n == 0:
        sides[1, 0] = -1
    patterns = np.array([pattern] * min(n, 1), dtype=np.int64).reshape(-1, 5)
    messages = set()
    for lookup in PERCOLATIONS:
        rng = Pcg64(3)
        state = rng.state
        with pytest.raises(ValueError, match=message) as exc:
            lookup(patterns, max(n, 1), sides, oracle.tables, rng, into(np.empty(n)))
        assert rng.state == state
        messages.add(str(exc.value))
    assert len(messages) == 1


def _same_state(a, b) -> bool:
    """Equality of two stream states, whose values may be arrays (MT19937's key)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _stream_state(rng):
    """The state of a Pcg64, a numpy Generator or a numpy bit generator, else
    None: what a refusal must leave as it was."""
    if hasattr(rng, "bit_generator"):
        return rng.bit_generator.state
    return getattr(rng, "state", None)


def _percolation_args():
    oracle = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)
    return [np.zeros((2, 5), np.int64), 3, oracle.sides, oracle.tables, Pcg64(1), into(np.empty(6)), 1]


@needs_c
@pytest.mark.parametrize("arg,change", [
    (0, lambda p: p.astype(np.float64)),  # not an integer dtype
    (0, lambda p: np.asfortranarray(p)),  # columns not contiguous
    (0, lambda p: p[::-1]),  # negative row stride
    (0, lambda p: p[:, :0]),  # no center column
    (0, lambda p: p[0]),  # not 2-d
    (1, lambda n_inner: 0),
    (6, lambda unit: 4),  # the last unit of the 6 rows reads a pattern past the end
    (6, lambda unit: 7),  # the rows fall short of one unit
    (6, lambda unit: 0),
    (2, lambda s: s.astype(np.int32)),
    (2, lambda s: s[:, :-1].copy()),  # sides and tables that do not fit
    (2, lambda s: np.asfortranarray(s)),
    (3, lambda t: t.astype(np.float32)),
    (3, lambda t: t[:, :-1].copy()),
    (3, lambda t: t[:1].copy()),
    (4, lambda rng: np.random.PCG64(1)),  # numpy's bit generator, not a Pcg64
    (4, lambda rng: np.random.Generator(np.random.MT19937(1))),  # numpy Generators
    (4, lambda rng: np.random.Generator(np.random.Philox(1))),
    (4, lambda rng: np.random.default_rng(1)),
    (5, lambda consume: np.empty(6)),  # an array in place of the consumer
], ids=["patterns-dtype", "patterns-fortran", "patterns-negative-stride", "no-center", "patterns-1d",
        "n-inner", "rows-past-the-end", "rows-short", "unit-zero", "sides-dtype", "sides-shape",
        "sides-fortran", "tables-dtype", "tables-shape", "tables-alphabet", "rng", "rng-mt19937", "rng-philox",
        "rng-pcg64-generator", "consume-array"])
def test_c_percolation_rejects_what_it_cannot_trust(arg, change):
    args = _percolation_args()
    args[arg] = change(args[arg])
    state = _stream_state(args[4])
    with pytest.raises(ValueError):
        kernels._c_percolation_lookup(*args)
    assert _same_state(_stream_state(args[4]), state)  # refused before any draw


@st.composite
def tree_cases(draw):
    """Tree-percolation arguments: a query radius r on F_1, Z^1, F_2 or F_3
    against a SAW oracle of radius r..r+2 and pad 0..2 with either shell,
    patterns of any width up to |B_r| that are admissible or not (adjacent
    1s, or a symbol outside {0, 1} in some column), n_inner rows per
    pattern, and the twin's chunk cut to 1, 7 or 2^16 uniforms."""
    spec, top = draw(st.sampled_from([(groups.free(1), 6), (groups.zd(1), 6), (groups.free(2), 4),
                                      (groups.free(3), 3)]))
    r = draw(st.integers(1, top))
    oracle = SawOracle(*hardcore(spec.rank, draw(st.sampled_from([0.3, 1.0, 2.5]))), spec,
                       r + draw(st.integers(0, 2)), pad=draw(st.integers(0, 2)),
                       boundary=draw(st.sampled_from(["free", "self_consistent"])))
    ball = groups.ball(spec, r)
    L = draw(st.integers(1, len(ball)))
    n_inner = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = (rng.random((draw(st.integers(0, 6)), L)) < draw(st.sampled_from([0.0, 0.3, 0.6]))).astype(np.int64)
    if draw(st.booleans()):  # admissible: drop the later end of every occupied edge
        for (i, _s, j) in ball.edges:
            if max(i, j) < L:
                patterns[:, max(i, j)] &= ~patterns[:, min(i, j)]
    if draw(st.integers(0, 4)) == 0 and len(patterns):
        patterns[rng.integers(len(patterns)), rng.integers(L)] = draw(st.sampled_from([-1, 2, 5]))
    block = draw(st.sampled_from([1, 7, 2**16]))
    return oracle, patterns, n_inner, draw(st.integers(0, 2**32 - 1)), block


def _outcome(run):
    """run()'s result, or the type and message of the error it raised."""
    try:
        return run()
    except (ValueError, InconsistentPinsError) as exc:
        return type(exc), str(exc)


def _tree_refusal(patterns, tree):
    """The (type, message) of the error with which both tree kernels refuse
    patterns before any draw, else None: the first symbol outside {0, 1}
    in C order, else the first clash that `tree_batch` finds with every
    site of every pattern pinned."""
    outside = np.flatnonzero((patterns < 0) | (patterns > 1))
    if len(outside):
        return ValueError, str(_glauber_py.symbol_error(int(patterns.flat[outside[0]]), 2))
    clash = _outcome(lambda: _glauber_py.tree_batch(patterns, np.ones(patterns.shape, bool), tree))
    return clash if isinstance(clash, tuple) else None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tree_cases())
def test_tree_percolation_backends_are_bitwise_the_masks_route(case):
    """Both backends give `tree_batch` over the masks of percolation pasts
    on the pattern's sites, drawn from the same stream, bitwise, and leave
    the stream in that draw's state.  Patterns with a symbol outside
    {0, 1} or adjacent 1s anywhere are refused with one error before any
    draw, whatever the pasts would pin."""
    oracle, patterns, n_inner, seed, block = case
    n = len(patterns) * n_inner
    reference = Pcg64(seed)
    expect = _tree_refusal(patterns, oracle.tree)
    if expect is None:
        masks = _masks(reference, n, patterns.shape[1])
        rows = patterns[np.arange(n) // n_inner]
        expect = _glauber_py.tree_batch(rows, masks, oracle.tree)
    saved = pasts.CHUNK_FLOATS
    pasts.CHUNK_FLOATS = block
    try:
        for tree_percolation in TREES:
            rng = Pcg64(seed)
            out = np.full(n, np.nan)
            got = _outcome(lambda: tree_percolation(patterns, n_inner, oracle.tree, rng, into(out)) or out)
            if isinstance(expect, tuple):
                assert got == expect
            else:
                assert np.array_equal(got, expect)
            assert rng.state == reference.state
    finally:
        pasts.CHUNK_FLOATS = saved


def _pruning_cases():
    """(oracle, patterns, description) on B_4 of F_2 (161 sites)
    from a pad-2 SAW oracle of either shell: admissible patterns with
    occupied sites, whose rows the C kernel prunes, at the full width, at a
    width inside the deepest level and at the center alone; and the same
    patterns with an error after the first good ones, an occupied edge or a
    symbol outside {0, 1}, which both kernels refuse before any draw."""
    spec = groups.free(2)
    ball = groups.ball(spec, 4)
    source = np.random.default_rng(17)
    cases = []
    for boundary in ("free", "self_consistent"):
        oracle = SawOracle(*hardcore(2, 1.3), spec, 4, pad=2, boundary=boundary)
        for L in (len(ball), len(groups.ball(spec, 3)) + 30, 1):
            good = (source.random((12, L)) < 0.4).astype(np.int64)
            for (i, _s, j) in ball.edges:  # admissible: drop the later end of every occupied edge
                if max(i, j) < L:
                    good[:, max(i, j)] &= ~good[:, min(i, j)]
            cases.append((oracle, good, f"{boundary}-width{L}"))
            if L > 5:
                clash = good.copy()
                clash[7:, [1, 5]] = 1  # 5 is a child of 1
                cases.append((oracle, clash, f"{boundary}-width{L}-clash"))
            symbol = good.copy()
            symbol[9, 0] = 2
            cases.append((oracle, symbol, f"{boundary}-width{L}-symbol"))
    return cases


@needs_c
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pruned_tree_kernel_is_bitwise_the_full_draw_twin(monkeypatch, workers):
    """The C tree kernel visits only the sites whose ancestors are all
    unpinned, each drawn by its own jump, in 1, 2 or 3 ranges; the Python
    twin draws and evaluates every column.  Both give bitwise `tree_batch`
    over the masks of the same draw and leave the stream after the width
    steps of every row, or refuse a pattern that some past could make an
    error with one error and the stream as it was.  The pasts include
    centers whose uniform is near 0 (almost nothing pinned) and near 1
    (almost everything), and error rows come after good ones."""
    n_inner = 50
    _split(monkeypatch, workers)
    for oracle, patterns, what in _pruning_cases():
        n, L = len(patterns) * n_inner, patterns.shape[1]
        reference = Pcg64(23)
        expect = _tree_refusal(patterns, oracle.tree)
        assert (expect is not None) == what.endswith(("clash", "symbol")), what
        if expect is None:
            chi = Pcg64(23).random((n, L))
            assert chi[:, 0].min() < 0.01 and chi[:, 0].max() > 0.99, what
            masks = _masks(reference, n, L)
            expect = _glauber_py.tree_batch(patterns[np.arange(n) // n_inner], masks, oracle.tree)
        for tree_percolation in TREES:
            rng = Pcg64(23)
            out = np.full(n, np.nan)
            got = _outcome(lambda: tree_percolation(patterns, n_inner, oracle.tree, rng, into(out)) or out)
            if isinstance(expect, tuple):
                assert got == expect, what
            else:
                assert np.array_equal(got, expect), what
            assert rng.state == reference.state, what


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
    ({1: 1, 5: 1}, r"^adjacent occupied pins 5, 1$"),  # whatever the past pins
    ({0: 2}, r"^symbol 2 "),  # the center
    ({6: -3}, r"^symbol -3 "),  # a site that only some pasts pin
    ({6: 9, 1: 1, 5: 1}, r"^(symbol 9 |adjacent occupied pins 5, 1$)"),  # the symbol, before any clash
])
def test_tree_percolation_errors_are_one_error_on_both_backends(pattern, message):
    """The same error, naming the same edge or symbol, from both backends and
    every chunk size of the twin, raised before any draw: a symbol outside
    {0, 1} before a clash."""
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
                rng = Pcg64(5)
                state = rng.state
                with pytest.raises((ValueError, InconsistentPinsError), match=message) as exc:
                    tree_percolation(patterns, 500, oracle.tree, rng, into(np.empty(500)))
                assert rng.state == state
                messages.add((exc.type, str(exc.value)))
    finally:
        pasts.CHUNK_FLOATS = saved
    assert messages == {_tree_refusal(patterns, oracle.tree)}


def _tree_args():
    oracle = SawOracle(*hardcore(2, 1.0), groups.free(2), 3)  # 53 sites
    return [np.zeros((2, 17), np.int64), 3, oracle.tree, Pcg64(1), into(np.empty(6)), 1]


def _bad_children(tree):
    children = tree.children.copy()
    children[0] = 0  # the root its own child
    return tree._replace(children=children)


@needs_c
@pytest.mark.parametrize("arg,change", [
    (0, lambda p: p.astype(np.float64)),  # not an integer dtype
    (0, lambda p: np.asfortranarray(p)),  # columns not contiguous
    (0, lambda p: p[:, :0]),  # no center column
    (0, lambda p: np.zeros((2, 54), np.int64)),  # patterns wider than the tree
    (5, lambda unit: 4),  # the last unit of the 6 rows reads a pattern past the end
    (2, lambda t: t._replace(lam=t.lam.astype(np.float32))),
    (2, lambda t: t._replace(free=t.free[:-1].copy())),
    (2, lambda t: t._replace(child_ptr=t.child_ptr[:-1].copy())),
    (2, lambda t: t._replace(edges=t.edges.ravel().copy())),
    (2, lambda t: t._replace(starts=t.starts[:2].copy())),  # levels narrower than the patterns
    (2, _bad_children),
    (3, lambda rng: np.random.PCG64(1)),  # numpy's bit generator, not a Pcg64
    (3, lambda rng: np.random.Generator(np.random.MT19937(1))),  # numpy Generators
    (3, lambda rng: np.random.Generator(np.random.Philox(1))),
    (3, lambda rng: np.random.default_rng(1)),
    (4, lambda consume: np.empty(6)),  # an array in place of the consumer
], ids=["patterns-dtype", "patterns-fortran", "no-center", "too-wide", "rows-past-the-end", "lam-dtype",
        "free-short", "child-ptr-short", "edges-1d", "starts-narrow", "child-not-later", "rng",
        "rng-mt19937", "rng-philox", "rng-pcg64-generator", "consume-array"])
def test_c_tree_rejects_what_it_cannot_trust(arg, change):
    args = _tree_args()
    args[arg] = change(args[arg])
    state = _stream_state(args[3])
    with pytest.raises(ValueError):
        kernels._c_tree_percolation(*args)
    assert _same_state(_stream_state(args[3]), state)  # refused before any draw


@pytest.mark.parametrize("width", [53, 2000])
def test_percolation_kernels_jump_long_strides_bitwise(width):
    """Patterns of 53 and 2,000 columns, of which the line lookup reads at
    most 3 and the tree recursion only the sites whose ancestors are all
    unpinned, so that each row skips most of its uniforms: both kernels on
    both backends still give the masks of `rng.random((n, width))` bitwise
    and leave the stream in that draw's state."""
    line = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 1)  # side columns 1 and 2
    radius = 3 if width == 53 else 7  # B_3 of F_2 has 53 sites, B_7 4,373
    tree = SawOracle(*hardcore(2, 1.0), groups.free(2), radius)
    n_inner, n_patterns = 7, 43
    n = n_inner * n_patterns
    source = np.random.default_rng(4)
    for runs, geometry, batch, edges in (
        (PERCOLATIONS, (line.sides, line.tables), _glauber_py.transfer_lookup, []),
        (TREES, (tree.tree,), _glauber_py.tree_batch, groups.ball(groups.free(2), radius).edges),
    ):
        patterns = (source.random((n_patterns, width)) < 0.3).astype(np.int64)
        for (i, _s, j) in edges:  # admissible: drop the later end of every occupied edge
            if max(i, j) < width:
                patterns[:, max(i, j)] &= ~patterns[:, min(i, j)]
        reference = Pcg64(9)
        expect = batch(patterns[np.arange(n) // n_inner], _masks(reference, n, width), *geometry)
        for run in runs:
            rng = Pcg64(9)
            out = np.full(n, np.nan)
            run(patterns, n_inner, *geometry, rng, into(out))
            assert np.array_equal(out, expect)
            assert rng.state == reference.state


def _split(monkeypatch, workers):
    """Let the compiled percolation kernels split their rows over `workers`
    cores, one range per row at the least."""
    monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
    monkeypatch.setattr(kernels, "ROWS_PER_WORKER", 1)


def _split_cases():
    """(kernel, geometry, patterns) for each compiled percolation kernel: a
    Z^1 transfer lookup of width 9, and an F_2 tree of width 17, each with
    40 patterns."""
    line = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 6)
    tree = SawOracle(*hardcore(2, 1.0), groups.free(2), 3)
    source = np.random.default_rng(11)
    admissible = np.zeros((40, 17), np.int64)
    admissible[:, [1, 2, 3, 4]] = source.integers(0, 2, (40, 4))  # the leaves of the center
    return [(kernels._c_percolation_lookup, (line.sides, line.tables), source.integers(0, 2, (40, 9))),
            (kernels._c_tree_percolation, (tree.tree,), admissible)]


def _split_outcome(kernel, geometry, patterns, n_inner, advanced=0):
    """(out or the error's type and message, end stream state) of one call
    on Pcg64(21), advanced first by `advanced` steps."""
    rng = Pcg64(21).advance(advanced)
    out = np.full(len(patterns) * n_inner, np.nan)
    threads = threading.active_count()
    got = _outcome(lambda: kernel(patterns, n_inner, *geometry, rng, into(out)) or out)
    assert threading.active_count() == threads  # every range's thread joined, also after a raise
    return got, rng.state


@needs_c
@pytest.mark.parametrize("case", range(2), ids=["lookup", "tree"])
@pytest.mark.parametrize("n_patterns,n_inner,advanced", [
    (29, 7, 0),  # ranges start inside a pattern's block of rows
    (3, 1, 0),  # fewer rows than cores
    (0, 3, 0),
    (28, 9, 2**127 + 12345),  # range starts jumped past the 2^128 wrap
], ids=["blocks", "few-rows", "no-rows", "advanced"])
def test_split_percolation_is_bitwise_the_single_call(monkeypatch, case, n_patterns, n_inner, advanced):
    """Rows split over 2, 3 or 5 ranges, each started by an exact jump of
    PCG64, give bitwise the out and the end state of the stream that one
    call over every row gives."""
    kernel, geometry, patterns = _split_cases()[case]
    patterns, n = patterns[:n_patterns], n_patterns * n_inner
    _split(monkeypatch, 1)
    expect_out, expect_state = _split_outcome(kernel, geometry, patterns, n_inner, advanced)
    assert not np.isnan(expect_out).any()
    for workers in (2, 3, 5):
        _split(monkeypatch, workers)
        assert len(kernels._row_bounds(n)) - 1 == max(1, min(workers, n))
        got_out, got_state = _split_outcome(kernel, geometry, patterns, n_inner, advanced)
        assert np.array_equal(got_out, expect_out)
        assert got_state == expect_state


@needs_c
@pytest.mark.parametrize("case,bad,message", [
    (0, {30: {0: 5}}, r"^symbol 5 "),  # a center symbol, in the last range only
    (0, {12: {0: 7}, 30: {0: 5}}, r"^symbol 7 "),  # errors in two ranges: the earlier pattern's
    (1, {30: {0: 4}}, r"^symbol 4 "),
    (1, {30: {1: 1, 5: 1}, 31: {1: 1, 5: 1}}, r"^adjacent occupied pins 5, 1$"),  # whatever the pasts pin
    (1, {12: {0: 3}, 30: {0: 4}}, r"^symbol 3 "),
    (1, {12: {1: 1, 5: 1}, 30: {0: 4}}, r"^symbol 4 "),  # a symbol before any clash
], ids=["lookup-late-symbol", "lookup-two-ranges", "tree-late-symbol", "tree-late-clash",
        "tree-two-ranges", "tree-clash-then-symbol"])
def test_split_percolation_error_is_the_single_calls(monkeypatch, case, bad, message):
    """An error only in a later range, or in two ranges, is the error of the
    single call, raised before any range starts and with the stream as
    it was.  bad maps a pattern to the symbols it gets; 6 rows per pattern,
    240 rows, so pattern 12 falls in the first range of 2 or 3 and the
    second of 5, pattern 30 in the last range of 2 or 3 and the fourth of
    5."""
    kernel, geometry, patterns = _split_cases()[case]
    patterns = patterns.copy()
    for row, symbols in bad.items():
        patterns[row, list(symbols)] = list(symbols.values())
    _split(monkeypatch, 1)
    expect = _split_outcome(kernel, geometry, patterns, 6)
    assert isinstance(expect[0], tuple) and re.match(message, expect[0][1])
    assert expect[1] == Pcg64(21).state
    for workers in (2, 3, 5):
        _split(monkeypatch, workers)
        assert _split_outcome(kernel, geometry, patterns, 6) == expect


def _refused_cases():
    """{id: (runs, geometry, patterns, error, message)} of
    patterns that both backends' percolation kernels refuse before any
    draw: 40 admissible patterns of which pattern 30 is not.  The line
    lookup of radius 1 reads side columns 1 and 2 of a width-5 row, so no
    past may pin column 3; its radius-2 twin reads every column.  The tree
    is B_3 of F_2 with rows of width 17."""
    narrow, line = (TransferOracle(*hardcore(1, 1.0), groups.zd(1), r) for r in (1, 2))
    tree = SawOracle(*hardcore(2, 1.0), groups.free(2), 3)
    admissible = np.zeros((40, 17), np.int64)
    admissible[:, [1, 2, 3, 4]] = np.random.default_rng(11).integers(0, 2, (40, 4))  # the center's leaves
    cases = {}
    for what, runs, geometry, width, bad, error, message in [
        ("lookup-unread-column", PERCOLATIONS, (narrow.sides, narrow.tables), 5, {3: 2}, ValueError,
         "symbol 2 of a center or pin is outside the alphabet [0, 2)"),
        ("lookup-read-column", PERCOLATIONS, (line.sides, line.tables), 5, {4: -1}, ValueError,
         "symbol -1 of a center or pin is outside the alphabet [0, 2)"),
        ("tree-symbol", TREES, (tree.tree,), 17, {6: -3}, ValueError,
         "symbol -3 of a center or pin is outside the alphabet [0, 2)"),
        ("tree-clash", TREES, (tree.tree,), 17, {1: 1, 5: 1}, InconsistentPinsError,
         "adjacent occupied pins 5, 1"),
    ]:
        patterns = admissible[:, :width].copy()
        patterns[30, list(bad)] = list(bad.values())
        cases[what] = (runs, geometry, patterns, error, message)
    return cases


@pytest.mark.parametrize("case", list(_refused_cases()))
def test_inadmissible_pattern_is_refused_before_any_draw(monkeypatch, case):
    """A symbol outside the alphabet, in a column that no past may pin or
    one that some pasts pin, and two adjacent 1s for the tree, are refused
    with one error type and message by each percolation kernel on both
    backends: the twin with its chunks cut to 17, 7 * 17 and 2^16
    uniforms, the C kernel with its rows in 1, 2 and 3 ranges, for 1 and 6
    rows per pattern, at seeds 0-19.  No call draws: the stream's state is
    unchanged."""
    runs, geometry, patterns, error, message = _refused_cases()[case]
    errors = set()
    for run in runs:
        compiled = run not in (_glauber_py.percolation_lookup, _glauber_py.tree_percolation)
        for setting in (1, 2, 3) if compiled else (17, 7 * 17, 2**16):
            if compiled:
                _split(monkeypatch, setting)
            else:
                monkeypatch.setattr(pasts, "CHUNK_FLOATS", setting)
            for n_inner in (1, 6):
                for seed in range(20):
                    rng = Pcg64(seed)
                    state = rng.state
                    with pytest.raises(error) as exc:
                        run(patterns, n_inner, *geometry, rng, into(np.empty(len(patterns) * n_inner)))
                    assert rng.state == state
                    errors.add((exc.type, str(exc.value)))
    assert errors == {(error, message)}


def test_row_bounds_split_by_usable_cores(monkeypatch):
    """W = min(usable cores, n // ROWS_PER_WORKER) ranges, at least one, of
    sizes that differ by at most one row."""
    assert kernels._usable_cores() >= 1
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
    rows = kernels.ROWS_PER_WORKER
    assert kernels._row_bounds(0) == [0, 0]
    assert kernels._row_bounds(2 * rows - 1) == [0, 2 * rows - 1]
    assert kernels._row_bounds(2 * rows + 1) == [0, rows, 2 * rows + 1]
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 3)
    assert kernels._row_bounds(100 * rows) == [0, 100 * rows // 3, 200 * rows // 3, 100 * rows]


KERNELS = [name for name in kernels.__all__ if name not in ("BACKEND", "Pcg64", "SweepWorkspace")]


@pytest.mark.parametrize("name", KERNELS)
def test_compiled_wrapper_takes_the_twins_parameters(name):
    """Each compiled kernel's wrapper takes the parameter names, kinds and
    defaults of its Python twin, so that neither can be narrowed alone."""
    def parameters(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    assert parameters(getattr(kernels, f"_c_{name}")) == parameters(getattr(_glauber_py, name))


def test_soficlab_kernel_python_forces_the_twin():
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "SOFICLAB_KERNEL": "python",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    twins = ", ".join(f"k.{name} is k._glauber_py.{name}" for name in KERNELS)
    out = subprocess.run(
        [sys.executable, "-c", f"import soficlab.kernels as k; print(k.BACKEND, {twins})"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["python"] + ["True"] * len(KERNELS)


def test_unbuildable_kernel_falls_back(tmp_path, monkeypatch):
    with pytest.warns(RuntimeWarning):
        assert kernels._load_c_kernel(str(tmp_path / "no-such-cc"), tmp_path / "cache") is None
    (tmp_path / "file").write_text("")
    with pytest.warns(RuntimeWarning):  # a cache directory that cannot be made
        assert kernels._load_c_kernel(None, tmp_path / "file" / "soficlab") is None
    if _compiler() is None:
        return
    # a library that builds and loads but lacks one kernel gives all the twins, not a mix
    source = kernels._SOURCE.read_text()
    for name in kernels._C_FUNCTIONS:
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
    (tmp_path / "_glauber-deadbeef.so").write_bytes(b"a library of another source version")
    (tmp_path / "_glauber-deadbeefx1y2.tmp").write_bytes(b"a build in flight")
    assert kernels._load_c_kernel(None, tmp_path) is not None
    # the stale library is gone, no temporary file of this build is left behind
    lib, in_flight = sorted(tmp_path.iterdir(), key=lambda p: p.suffix)
    assert lib.name.startswith("_glauber-") and lib.suffix == ".so" and lib.name != "_glauber-deadbeef.so"
    assert in_flight.name == "_glauber-deadbeefx1y2.tmp"

    def no_build(*args):
        raise AssertionError("a cached kernel was rebuilt")

    monkeypatch.setattr(kernels, "_compile", no_build)
    assert kernels._load_c_kernel(None, tmp_path) is not None


def test_kernel_source_compiles_without_warnings(tmp_path):
    """_glauber.c builds with the package's flags plus -Wall -Wextra -Werror."""
    compiler = _compiler()
    if compiler is None:
        pytest.skip("the compiler Python was built with is not on PATH")
    proc = subprocess.run(
        [*shlex.split(compiler), *kernels._CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernels.so"), str(kernels._SOURCE)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_sweeps_stay_in_derived_space():
    st, pot = hardcore(2, 2.0)
    sm = soficmaps.build_torus(2, 6)
    space = DerivedSpace(sm, st, pot)
    engine = GlauberEngine(sm, st, pot)
    rng = Pcg64(0)
    x = engine.initial_state(0)
    for _ in range(20):
        engine.sweeps(x, 1, rng)
        assert is_in_Xn(space, x)


@needs_c
def test_one_workspace_serves_calls_on_changing_arrays():
    """A SweepWorkspace shared by calls on two models, their arrays passed
    in turn and once as copies, on the table route (many sweeps) and the
    direct one (one sweep), gives bitwise the trajectories and counts of
    calls that make their own; a call on arrays it cannot trust still
    fails with a ValueError."""
    engines = [GlauberEngine(soficmaps.build_torus(2, 4), *hardcore(2, 1.3)),
               GlauberEngine(soficmaps.build_torus(3, 3), full_shift(3, 3), zero_potential(3, 3))]
    work = kernels.SweepWorkspace()
    for k, sweeps in enumerate([1, 40, 1, 40, 3]):
        engine = engines[k % 2]
        arrays = [engine.nbr_out, engine.nbr_in, engine.wh, engine.wj, engine.allowed]
        if k == 4:
            arrays = [a.copy() for a in arrays]
        runs = []
        for shared in (work, None):
            x = engine.initial_state(0)
            counts = np.full(sweeps, -1, np.int64)
            kernels.glauber_sweeps(x, *arrays, Pcg64(k), sweeps, counts, 0, shared)
            runs.append((x, counts))
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
    engine = engines[0]
    with pytest.raises(ValueError):
        kernels.glauber_sweeps(engine.initial_state(0), engine.nbr_out, engine.nbr_in, engine.wh,
                               engine.wj.astype(np.float32), engine.allowed, Pcg64(0), 1, None, 0, work)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunked_sweeps_are_one_sweep_calls(extra):
    st, pot = hardcore(2, 1.0)
    engine = GlauberEngine(soficmaps.build_torus(2, 8), st, pot)
    k = 256 + extra
    x = engine.initial_state(0)
    counts = np.full(k, -1, np.int64)
    engine.sweeps(x, k, Pcg64(4), counts, 0)
    rng = Pcg64(4)
    y = engine.initial_state(0)
    expected = []
    for _ in range(k):
        engine.sweeps(y, 1, rng)
        expected.append(np.count_nonzero(y != 0))
    assert np.array_equal(x, y)
    assert counts.tolist() == expected


def test_bias_shifts_density():
    st, pot = hardcore(1, 1.0)
    sm = soficmaps.build_torus(1, 32)
    engine = GlauberEngine(sm, st, pot)
    rng = Pcg64(1)
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
    rng = Pcg64(2)
    x = engine.initial_state(0)
    engine.sweeps(x, 50, rng)
    assert not (x == 1).all()  # adjacent pair (0,1) can never be both occupied
