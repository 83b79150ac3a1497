import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from soficlab import _glauber_py, groups, kernels, pasts
from soficlab.constraints import ConstraintStructure, Potential, checkerboard, full_shift, hardcore, zero_potential
from soficlab.enumeration import SiteGraph, joint_distribution, log_partition, site_marginal
from soficlab.errors import ReducibleTransferError
from soficlab.finitemodel import size_sweep
from soficlab.gibbs import uniform_bound_c
from soficlab.kernels import Pcg64
from soficlab.transfer import build_transfer

from oracles import (
    brute_cycle_partition,
    conditional_tables_loop,
    golden_pressure,
    hardcore_line_density,
    hardcore_line_pressure,
    hardcore_stationary_p0,
    lucas,
    sample_windows_loop,
    sample_windows_rows,
)
from reference import window_distribution

Z1 = groups.zd(1)


def _cycle_graph(m):
    return SiteGraph(m, [(v, 0, (v + 1) % m) for v in range(m)])


def test_trace_powers_match_lucas():
    st, pot = hardcore(1, 1.0)
    tm = build_transfer(st, pot)
    for m in range(3, 21):
        assert tm.log_trace_power(m) == pytest.approx(math.log(lucas(m)), abs=1e-9)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_trace_matches_brute_enumeration(lam):
    st, pot = hardcore(1, lam)
    tm = build_transfer(st, pot)
    for m in (3, 4, 5, 8):
        assert tm.log_trace_power(m) == pytest.approx(math.log(brute_cycle_partition(m, lam)), abs=1e-9)


def test_pressure_eigenvalues():
    st, pot = hardcore(1, 1.0)
    assert math.log(build_transfer(st, pot).lam) == pytest.approx(golden_pressure(), abs=1e-12)
    st2, pot2 = hardcore(1, 2.0)
    assert math.log(build_transfer(st2, pot2).lam) == pytest.approx(math.log(2), abs=1e-12)


def test_stationary_against_closed_form():
    for lam in (0.5, 1.0, 2.0):
        st, pot = hardcore(1, lam)
        tm = build_transfer(st, pot)
        assert tm.stationary()[1] == pytest.approx(hardcore_line_density(lam), abs=1e-12)
        assert tm.stationary()[0] == pytest.approx(hardcore_stationary_p0(lam), abs=1e-12)


def test_conditional_center_vs_enumeration_anchored():
    """With pins on both sides the Markov screening is exact, so the transfer
    conditional must equal interval enumeration to machine precision."""
    st, pot = hardcore(1, 1.5)
    tm = build_transfer(st, pot)
    R = 4
    graph = SiteGraph(2 * R + 1, [(i, 0, i + 1) for i in range(2 * R)])
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(60):
        pins = {-R: int(rng.integers(0, 2)), R: int(rng.integers(0, 2))}
        for off in range(-R + 1, R):
            if off != 0 and rng.random() < 0.3:
                pins[off] = int(rng.integers(0, 2))
        key = tuple(sorted(pins.items()))
        if key in seen or any(pins.get(o) == 1 and pins.get(o + 1) == 1 for o in range(-R, R)):
            continue
        seen.add(key)
        p_transfer = tm.conditional_center(pins)
        p_enum = site_marginal(graph, st, pot, R, pins={o + R: v for o, v in pins.items()})
        assert np.allclose(p_transfer, p_enum, atol=1e-12)


def test_conditional_free_boundary_converges():
    """Unanchored enumeration approaches the transfer conditional as the pad
    grows, at the mixing rate."""
    st, pot = hardcore(1, 1.5)
    tm = build_transfer(st, pot)
    target = tm.conditional_center({-2: 1})
    errs = []
    for pad in (3, 5, 7):
        n2 = 2 * (2 + pad) + 1
        g2 = SiteGraph(n2, [(i, 0, i + 1) for i in range(n2 - 1)])
        p = site_marginal(g2, st, pot, 2 + pad, pins={-2 + 2 + pad: 1})
        errs.append(float(np.max(np.abs(p - target))))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_conditional_tables_match_single_queries():
    st, pot = hardcore(1, 1.0)
    tm = build_transfer(st, pot)
    tab = tm.conditional_tables(5)
    for dl, bl, dr, br in [(1, 0, 1, 0), (2, 1, 3, 0), (0, 0, 2, 1), (4, 0, 0, 0)]:
        pins = {}
        if dl:
            pins[-dl] = bl
        if dr:
            pins[dr] = br
        expect = tm.conditional_center(pins)
        got = tab[:, dl, bl, dr, br]
        assert np.allclose(got, expect, atol=1e-12)



def _random_rank1(a, seed):
    """An irreducible rank-1 model on a symbols: random forbidden pairs,
    vertex and edge log-weights."""
    rng = np.random.default_rng(seed)
    while True:
        allowed = rng.random((1, a, a)) < 0.7
        if allowed.any():
            tm = build_transfer(ConstraintStructure(a, allowed),
                                Potential(rng.normal(size=a), rng.normal(size=(1, a, a))))
            if tm.irreducible:
                return tm


RANK1_MODELS = [(a, seed) for a in (2, 3, 4) for seed in range(3)] + [("checkerboard", 0)]


def _rank1(a, seed):
    if a == "checkerboard":  # 0 _ 1 at distance 1 has probability zero
        return build_transfer(checkerboard(1), zero_potential(2, 1))
    return _random_rank1(a, seed)


@pytest.mark.parametrize("a,seed", RANK1_MODELS)
def test_conditional_tables_are_bitwise_the_entry_loop(a, seed):
    """The broadcast tables are bitwise those of one center-weight vector
    per (dl, bl, dr, br), C-contiguous, with all-zero columns, not nan,
    where the conditioning has probability zero."""
    tm = _rank1(a, seed)
    for r_max in (0, 1, 4, 16):
        tab = tm.conditional_tables(r_max)
        assert tab.flags.c_contiguous and not np.isnan(tab).any()
        assert tab.dtype == np.float64 and np.array_equal(tab, conditional_tables_loop(tm, r_max))
    if a == "checkerboard":
        assert not tab[:, 1, 0, 1, 1].any()


def test_conditional_tables_peak_near_two_tables():
    """The tables are computed in place of the weights and moved once, so a
    call's traced peak stays near twice its result (the weights and the
    moved copy), not the 3.5 tables of a separate quotient."""
    tm = build_transfer(*hardcore(1, 1.0))
    tracemalloc.start()
    try:
        tab = tm.conditional_tables(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * tab.nbytes


# the window kernel of each backend that runs here: the twin always, the C
# kernel when it is loaded
WINDOWS = [_glauber_py.markov_windows] + ([kernels._c_markov_windows] if kernels.BACKEND == "c" else [])


def _windows(kernel, tm, r, n, rng):
    """`TransferMatrix.sample_windows` through the given window kernel."""
    return kernel(np.cumsum(tm.stationary()), np.cumsum(tm.step_probs(), axis=1), n, 2 * r + 1, rng)


@pytest.mark.parametrize("a,seed", RANK1_MODELS)
def test_sample_windows_are_bitwise_the_counting_loop(a, seed, monkeypatch):
    """Each backend's window kernel gives the counting loop's int8 windows
    bitwise, at r = 0, with no rows and over several row chunks of the
    twin, and leaves the stream where `rng.random((n, 2r+1))` leaves it;
    `sample_windows` gives the same windows."""
    tm = _rank1(a, seed)
    monkeypatch.setattr(pasts, "CHUNK_FLOATS", 1000)
    for kernel in WINDOWS:
        for r, n in ((0, 7), (3, 500), (16, 300), (2, 0)):
            rng, reference = Pcg64(seed + 40), Pcg64(seed + 40)
            got = _windows(kernel, tm, r, n, rng)
            expect = sample_windows_loop(tm, r, n, reference)
            assert got.dtype == expect.dtype and got.shape == (n, 2 * r + 1) and np.array_equal(got, expect)
            assert rng.state == reference.state
            assert np.array_equal(tm.sample_windows(r, n, Pcg64(seed + 40)), expect)


@pytest.mark.parametrize("a", [127, 128, 130])
@pytest.mark.parametrize("short", [False, True], ids=["exact", "short-rows"])
def test_sample_windows_of_large_alphabets_are_the_row_reference(a, short, monkeypatch):
    """Alphabets of 127, 128 and 130 symbols give the per-row reference's
    windows on each backend, in int8 up to 127 symbols and a wider signed
    dtype past it, over several row chunks of the twin, and leave the
    stream alike.  At 130 symbols the int8 counts once raised
    OverflowError; with short-rows every step probability row sums to 1/2,
    so half the uniforms lie past its last cumulative entry and the count
    reaches a before it is cut to a - 1, which an int8 count wraps to -128
    at 128 symbols."""
    tm = _random_rank1(a, 1)
    if short:
        tm = dataclasses.replace(tm, lam=2 * tm.lam)
    monkeypatch.setattr(pasts, "CHUNK_FLOATS", 100 * 9)
    for kernel in WINDOWS:
        rng, reference = Pcg64(5), Pcg64(5)
        got = _windows(kernel, tm, 4, 450, rng)
        expect = sample_windows_rows(tm, 4, 450, reference)
        assert got.dtype == (np.int8 if a <= 127 else np.int16)
        assert np.array_equal(got, expect) and got.min() >= 0
        assert rng.state == reference.state
        assert not short or (got[:, 1:] == a - 1).mean() > 0.4


def test_window_kernels_refuse_bad_arguments_before_any_draw():
    """A stream other than a Pcg64, cumulative laws of the wrong dtype or
    shapes, a negative row count or an empty window is a ValueError on each
    backend, and nothing is drawn."""
    cum_pi, cum_step = np.array([0.5, 1.0]), np.array([[0.5, 1.0], [1.0, 1.0]])
    for kernel in WINDOWS:
        for args in ((cum_pi, cum_step, 3, 5, np.random.default_rng(1)),
                     (cum_pi.astype(np.float32), cum_step, 3, 5, Pcg64(1)),
                     (cum_pi, cum_step[:1], 3, 5, Pcg64(1)),
                     (cum_pi[:0], cum_step[:0, :0], 3, 5, Pcg64(1)),
                     (cum_pi, cum_step, -1, 5, Pcg64(1)),
                     (cum_pi, cum_step, 3, 0, Pcg64(1))):
            rng = args[-1]
            before = repr(rng.state) if isinstance(rng, Pcg64) else repr(rng.bit_generator.state)
            with pytest.raises(ValueError):
                kernel(*args)
            assert before == (repr(rng.state) if isinstance(rng, Pcg64) else repr(rng.bit_generator.state))


def test_window_distribution_normalizes_and_matches_pairs():
    st, pot = hardcore(1, 2.0)
    tm = build_transfer(st, pot)
    d = window_distribution(tm, 2)
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)
    # marginal of the middle site equals the stationary law
    p1 = sum(p for w, p in d.items() if w[2] == 1)
    assert p1 == pytest.approx(hardcore_line_density(2.0), abs=1e-12)


def test_cycle_pair_marginal_vs_exact_table():
    st, pot = hardcore(1, 2.0)
    tm = build_transfer(st, pot)
    m = 6
    graph = _cycle_graph(m)
    joint = joint_distribution(graph, st, pot, [0, 1])
    pair = tm.cycle_pair_marginal(m)
    assert joint.shape == pair.shape
    assert joint == pytest.approx(pair, abs=1e-12)


def test_cycle_pair_marginal_of_a_long_cycle_is_the_stationary_pair():
    tm = build_transfer(*hardcore(1, 1.0))
    stationary_pair = tm.stationary()[:, None] * tm.step_probs()
    np.testing.assert_allclose(tm.cycle_pair_marginal(10**6), stationary_pair, rtol=0, atol=1e-12)


def test_sample_windows_statistics():
    st, pot = hardcore(1, 1.0)
    tm = build_transfer(st, pot)
    X = tm.sample_windows(2, 60_000, Pcg64(3))
    freq = X[:, 2].mean()
    assert freq == pytest.approx(hardcore_line_density(1.0), abs=0.01)
    # no adjacent occupied pairs ever
    assert not np.any((X[:, :-1] == 1) & (X[:, 1:] == 1))


def test_checkerboard_odd_cycle_empty():
    cb = checkerboard(1)
    pot = zero_potential(2, 1)
    tm = build_transfer(cb, pot)
    assert tm.log_trace_power(5) == -math.inf
    assert tm.log_trace_power(6) == pytest.approx(math.log(2), abs=1e-9)


def test_full_shift_partition():
    st = full_shift(2, 1)
    pot = zero_potential(2, 1)
    g = _cycle_graph(10)
    assert log_partition(g, st, pot) == pytest.approx(10 * math.log(2), abs=1e-9)


# both relations have core symbols {0, 1} and admit only the all-0 and all-1
# cycles; neither support graph is strongly connected
REDUCIBLE = [
    # 0 -> 1 allowed, 1 -> 0 forbidden: T is a Jordan block, left . right = 0
    [[[True, True], [False, True]]],
    # two closed classes: the Perron pair exists with left . right = 1
    [[[True, False], [False, True]]],
]


def _reducible(allowed):
    return ConstraintStructure(2, np.array(allowed)), zero_potential(2, 1)


def test_reducible_relation_raises_where_perron_pair_is_used():
    for allowed in REDUCIBLE:
        tm = build_transfer(*_reducible(allowed))
        for use in (tm.perron, tm.stationary, tm.step_probs, lambda: tm.conditional_center({}),
                    lambda: tm.conditional_center({-2: 1, 2: 1}), lambda: tm.conditional_tables(2),
                    lambda: window_distribution(tm, 1)):
            with pytest.raises(ReducibleTransferError):
                use()


def test_reducible_relation_keeps_trace_routes():
    builder = {"builder": "torus", "d": 1}
    for allowed in REDUCIBLE:
        st, pot = _reducible(allowed)
        # the admissible 8-cycles are all-0 and all-1
        (row,) = size_sweep("pressure", st, pot, builder, [8])
        assert row["method"] == "cycle_decomposition"
        assert row["pressure_estimate"] == pytest.approx(math.log(2) / 8, abs=1e-12)
        (row,) = size_sweep("entropy", st, pot, builder, [8])
        assert row["method"] == "cycles"
        assert row["entropy_rate"] == pytest.approx(math.log(2) / 8, abs=1e-12)


def test_checkerboard_stationary_is_uniform():
    tm = build_transfer(checkerboard(1), zero_potential(2, 1))
    assert tm.stationary() == pytest.approx([0.5, 0.5], abs=1e-12)


def test_zero_probability_conditioning_stays_value_error():
    tm = build_transfer(checkerboard(1), zero_potential(2, 1))
    # x_{-1} = 0 and x_1 = 1 leave no admissible symbol at the center
    with pytest.raises(ValueError, match="probability zero"):
        tm.conditional_center({-1: 0, 1: 1})
    assert uniform_bound_c(checkerboard(1), zero_potential(2, 1), Z1, 2).c_hat == pytest.approx(0.5)
