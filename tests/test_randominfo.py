import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from soficlab import groups, pasts, randominfo
from soficlab.constraints import full_shift, hardcore, zero_potential
from soficlab.errors import BallMismatchError, SchemaError, SoficLabError, ZeroProbabilityError
from soficlab.gibbs import ssm_profile, uniform_bound_c
from soficlab.marginals import BallEnumerationOracle, SawOracle, TransferOracle, make_oracle
from soficlab.pasts import sample_percolation_masks
from soficlab.randominfo import (
    _streamed_info,
    info_fn_truncated,
    kp_pressure_at_fixed_point,
    kp_pressure_at_measure,
    locality_experiment,
    percolative_entropy,
    random_info,
    truncation_budget,
    truncation_gap,
)

from oracles import golden_pressure, hardcore_line_pressure, hardcore_stationary_p0, info_fn_full_width

Z1 = groups.zd(1)
F1 = groups.free(1)


def _transfer_oracle(lam, r=8):
    st, pot = hardcore(1, lam)
    return TransferOracle(st, pot, Z1, r), st, pot


def test_info_fn_values():
    oracle, st, pot = _transfer_oracle(1.0)
    L = len(groups.ball(Z1, 4).elements)
    zeros = np.zeros(L, dtype=np.int64)
    empty = np.zeros(L, dtype=bool)
    f = info_fn_truncated(oracle, Z1, zeros, empty, 4)
    assert f == pytest.approx(-math.log(hardcore_stationary_p0(1.0)), abs=1e-12)
    # forced symbol: center 0 given occupied neighbor has probability 1
    vals = zeros.copy()
    b = groups.ball(Z1, 4)
    e1 = b.index[(1,)]
    vals[e1] = 1
    mask = empty.copy()
    mask[e1] = True
    assert info_fn_truncated(oracle, Z1, vals, mask, 4) == pytest.approx(0.0, abs=1e-12)


@functools.cache
def _truncation_cases():
    """(group, oracle, pattern radius): transfer on Z^1 and F_1, tree SAW on
    F_2 with both boundaries, and ball on Z^2 (at pad 2, the free boundary
    of the SAW oracle at pad 1, and at pad 1) and F_2."""
    z2, f2 = groups.zd(2), groups.free(2)
    return [
        (Z1, make_oracle("transfer", *hardcore(1, 1.3), Z1, 4), 4),
        (F1, make_oracle("transfer", *hardcore(1, 0.7), F1, 4), 4),
        (f2, make_oracle("saw", *hardcore(2, 0.4), f2, 2, pad=1), 2),
        (f2, make_oracle("saw", *hardcore(2, 0.4), f2, 2, saw_boundary="self_consistent"), 2),
        (z2, make_oracle("ball", *hardcore(2, 1.0), z2, 2, pad=2), 2),
        (z2, make_oracle("ball", *hardcore(2, 1.0), z2, 2, pad=1), 2),
        (f2, make_oracle("ball", *hardcore(2, 0.4), f2, 2, pad=1), 2),
    ]


@settings(max_examples=140, derandomize=True, deadline=None)
@given(hs.integers(0, 6), hs.data())
def test_truncated_query_is_the_cleared_mask(case, data):
    """Slicing a query to B_r gives bitwise the conditional of the full-width
    pattern with its mask cleared beyond B_r, zero conditionals included."""
    spec, oracle, R = _truncation_cases()[case]
    r = data.draw(hs.integers(0, R))
    ball = groups.ball(spec, R)
    rng = np.random.default_rng(data.draw(hs.integers(0, 2**32 - 1)))
    values = (rng.random(len(ball)) < data.draw(hs.floats(0.0, 1.0))).astype(np.int64)
    mask = rng.random(len(ball)) < data.draw(hs.floats(0.0, 1.0))
    mask[0] = False
    for (i, _s, j) in ball.edges:  # hardcore pins must not clash
        if mask[i] and mask[j] and values[i] == values[j] == 1:
            mask[max(i, j)] = False
    expect = info_fn_full_width(oracle, len(groups.ball(spec, r)), values, mask)
    if expect is None:
        with pytest.raises(ZeroProbabilityError):
            info_fn_truncated(oracle, spec, values, mask, r)
    else:
        assert info_fn_truncated(oracle, spec, values, mask, r) == expect


def test_zero_conditional_is_typed_error():
    # an occupied center whose masked neighbour is occupied has conditional 0
    oracle, st, pot = _transfer_oracle(1.0)
    b = groups.ball(Z1, 4)
    vals = np.zeros(len(b.elements), dtype=np.int64)
    mask = np.zeros(len(b.elements), dtype=bool)
    vals[0] = vals[b.index[(1,)]] = 1
    mask[b.index[(1,)]] = True
    with pytest.raises(ZeroProbabilityError):
        info_fn_truncated(oracle, Z1, vals, mask, 4)
    assert ZeroProbabilityError.exit_code not in {
        cls.exit_code for cls in SoficLabError.__subclasses__() if cls is not ZeroProbabilityError
    }


@pytest.mark.parametrize("p,first", [
    ([0.5, 0.0, 2.0], "0.0"),
    ([1.0, np.nan], "nan"),
    ([np.inf, 0.3], "inf"),
    ([0.2, -1e-300], "-1e-300"),
    ([1.0 + 2**-52], "1.0000000000000002"),
    (0.0, "0.0"),
    ([], None),
    ([1.0, 5e-324], None),
])
def test_check_refuses_every_conditional_outside_the_unit_interval(p, first):
    """The in-place check of `_streamed_info` names the first conditional
    outside (0, 1], a nan or an infinity included, and passes the rest."""
    arr = np.array(p, dtype=float)
    if first is None:
        assert randominfo._checked(arr) is arr
        return
    with pytest.raises(ZeroProbabilityError, match=rf"^oracle conditional (np.float64\()?{first}\)? is not in"):
        randominfo._checked(arr)


def test_zero_conditional_in_a_later_chunk_is_typed_error(monkeypatch):
    """Three all-empty patterns stream cleanly in 7-row chunks; a fourth,
    occupied with both neighbours occupied, has conditional 0 on every row
    that pins a neighbour, and the stream raises when it reaches it."""
    oracle, st, pot = _transfer_oracle(1.0)
    b = groups.ball(Z1, 4)
    patterns = np.zeros((4, len(b)), dtype=np.int64)
    patterns[3, [0, b.index[(1,)], b.index[(-1,)]]] = 1
    monkeypatch.setattr(pasts, "CHUNK_FLOATS", 7 * len(b))
    f = _streamed_info(oracle, Z1, 4, patterns[:3], 50, np.random.default_rng(0))
    assert f.shape == (150,) and np.isfinite(f).all()
    with pytest.raises(ZeroProbabilityError):
        _streamed_info(oracle, Z1, 4, patterns, 50, np.random.default_rng(0))


class _MasksRoute:
    """The transfer oracle seen only through `batch`, fed the chunked masks
    of `pasts.percolation_chunks` as the ball oracle feeds its own."""

    def __init__(self, oracle):
        self.batch = oracle.batch

    def percolation_batch(self, patterns, n_inner, ball_size, rng, out):
        for start, stop, rows, masks in pasts.percolation_chunks(patterns, n_inner, 0, len(out), ball_size, rng):
            out[start:stop] = self.batch(rows, masks)


@pytest.mark.parametrize("spec,r,L,n_patterns,n_inner", [
    (Z1, 4, 9, 3, 50),
    (Z1, 16, 33, 40, 100),  # several mask chunks
    (F1, 5, 7, 5, 13),  # patterns narrower than B_r
    (Z1, 3, 7, 1, 20_001),  # one pattern over several chunks
])
def test_transfer_route_is_the_masks_route(spec, r, L, n_patterns, n_inner):
    """The compiled percolation route gives the masks route's f bitwise and
    leaves the generator where the masks route leaves it."""
    oracle = TransferOracle(*hardcore(1, 2.5), spec, r)
    patterns = oracle.tm.sample_windows(r, n_patterns, np.random.default_rng(1)).astype(np.int64)
    patterns = patterns[:, [r + groups.line_offset(spec, g) for g in groups.ball(spec, r).elements]][:, :L]
    rngs = [np.random.default_rng(7), np.random.default_rng(7)]
    f = _streamed_info(oracle, spec, r, patterns, n_inner, rngs[0])
    g = _streamed_info(_MasksRoute(oracle), spec, r, patterns, n_inner, rngs[1])
    assert np.array_equal(f, g) and np.isfinite(f).all()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_info_fn_full_shift():
    st = full_shift(3, 1)
    pot = zero_potential(3, 1)
    oracle = TransferOracle(st, pot, Z1, 6)
    est = random_info(oracle, Z1, np.zeros(13, dtype=np.int64), 6, N=500, seed=1)
    assert est.value == pytest.approx(math.log(3), abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_random_info_lex_past():
    """Lex past on Z^1 gives the classical conditional on the left half-line."""
    oracle, st, pot = _transfer_oracle(1.0)
    L = len(groups.ball(Z1, 6).elements)
    zeros = np.zeros(L, dtype=np.int64)
    est = random_info(oracle, Z1, zeros, 6, N=1, seed=0, past="lex")
    expect = -math.log(oracle.tm.conditional_center({-1: 0, -2: 0, -3: 0, -4: 0, -5: 0, -6: 0})[0])
    assert est.value == pytest.approx(expect, abs=1e-12)
    assert est.stderr == 0.0


def test_info_nonnegative():
    oracle, st, pot = _transfer_oracle(2.0)
    rng = np.random.default_rng(0)
    masks = sample_percolation_masks(Z1, 5, 50, rng)
    windows = oracle.tm.sample_windows(5, 50, rng).astype(np.int64)
    b = groups.ball(Z1, 5)
    cols = [g[0] + 5 for g in b.elements]
    vals = windows[:, cols]
    probs = oracle.batch(vals, masks)
    assert np.all(probs > 0) and np.all(probs <= 1 + 1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_kp_fixed_point_smoke(lam):
    st, pot = hardcore(1, lam)
    oracle = TransferOracle(st, pot, Z1, 10)
    est = kp_pressure_at_fixed_point(st, pot, Z1, oracle, r=10, N=20_000, seed=3)
    assert abs(est.value - hardcore_line_pressure(lam)) < 3 * est.stderr + 5e-4


def test_kp_fixed_point_deterministic():
    st, pot = hardcore(1, 1.0)
    oracle = TransferOracle(st, pot, Z1, 6)
    a = kp_pressure_at_fixed_point(st, pot, Z1, oracle, r=6, N=5_000, seed=9)
    b = kp_pressure_at_fixed_point(st, pot, Z1, oracle, r=6, N=5_000, seed=9)
    assert a.value == b.value and a.stderr == b.stderr


def test_kp_measure_routes():
    st, pot = hardcore(1, 2.0)
    oracle = TransferOracle(st, pot, Z1, 10)
    fixed = kp_pressure_at_fixed_point(st, pot, Z1, oracle, 10, N=20_000, seed=5)
    assert fixed.oracle == "transfer"
    mu = kp_pressure_at_measure(st, pot, Z1, oracle, 10, N_inner=60, M_outer=800, seed=5)
    assert abs(mu.value - math.log(2)) < 3 * mu.stderr + 2e-3
    assert "info" in mu.parts and mu.parts["info"] < mu.value  # phi part positive at lam=2


def test_estimators_refuse_what_they_cannot_estimate():
    """One percolation past gives no error bar, and patterns of mu are
    sampled exactly only on rank-1 groups: both are SchemaError."""
    oracle, st, pot = _transfer_oracle(1.0)
    with pytest.raises(SchemaError, match="N >= 2"):
        random_info(oracle, Z1, np.zeros(13, dtype=np.int64), 6, N=1, seed=0)
    assert random_info(oracle, Z1, np.zeros(13, dtype=np.int64), 6, N=1, seed=0, past="lex").n_samples == 1
    f2 = groups.free(2)
    with pytest.raises(SchemaError, match="rank-1"):
        kp_pressure_at_measure(*hardcore(2, 0.3), f2, oracle, 2, N_inner=10, M_outer=10, seed=0)


def test_percolative_entropy_smoke():
    st, pot = hardcore(1, 2.0)
    oracle = TransferOracle(st, pot, Z1, 10)
    est = percolative_entropy(st, pot, Z1, oracle, r=10, N_inner=60, M_outer=1500, seed=2)
    assert abs(est.value - (2 / 3) * math.log(2)) < 3 * est.stderr + 2e-3


def test_truncation_gap_budget():
    st, pot = hardcore(1, 1.0)
    oracle = TransferOracle(st, pot, Z1, 8)
    prof = ssm_profile(st, pot, Z1, 8)
    c_hat = uniform_bound_c(st, pot, Z1, 2).c_hat
    rng = np.random.default_rng(6)
    L = len(groups.ball(Z1, 8).elements)
    windows = oracle.tm.sample_windows(8, 40, rng).astype(np.int64)
    cols = [g[0] + 8 for g in groups.ball(Z1, 8).elements]
    for k in range(40):
        vals = windows[k][cols]
        mask = sample_percolation_masks(Z1, 8, 1, rng)[0]
        gap = truncation_gap(oracle, Z1, vals, mask, 4, 8)
        assert gap <= 3 * prof[3] / c_hat + 1e-9
    # empty conditioning: no truncation effect at all
    zeros = np.zeros(L, dtype=np.int64)
    assert truncation_gap(oracle, Z1, zeros, np.zeros(L, bool), 4, 8) == 0.0


def test_oracle_cross_agreement():
    """Transfer vs safe-boundary ball enumeration within the screening budget."""
    st, pot = hardcore(1, 1.0)
    t_oracle = TransferOracle(st, pot, Z1, 2)
    b_oracle = BallEnumerationOracle(st, pot, Z1, 2, pad=6)
    prof = ssm_profile(st, pot, Z1, 6)
    rng = np.random.default_rng(7)
    L = len(groups.ball(Z1, 2).elements)
    windows = t_oracle.tm.sample_windows(2, 1000, rng).astype(np.int64)
    cols = [g[0] + 2 for g in groups.ball(Z1, 2).elements]
    vals = windows[:, cols]
    masks = sample_percolation_masks(Z1, 2, 1000, rng)
    pt = t_oracle.batch(vals, masks)
    pb = b_oracle.batch(vals, masks)
    assert np.max(np.abs(pt - pb)) <= 3 * prof[5] + 1e-9


def test_saw_oracle_agrees_with_transfer():
    st, pot = hardcore(1, 1.0)
    t_oracle = TransferOracle(st, pot, Z1, 2)
    s_oracle = SawOracle(st, pot, Z1, 12)
    rng = np.random.default_rng(8)
    windows = t_oracle.tm.sample_windows(2, 60, rng).astype(np.int64)
    cols = [g[0] + 2 for g in groups.ball(Z1, 2).elements]
    vals = windows[:, cols]
    masks = sample_percolation_masks(Z1, 2, 60, rng)
    pt = t_oracle.batch(vals, masks)
    ps = s_oracle.batch(vals, masks)
    assert np.max(np.abs(pt - ps)) < 2e-3  # free-boundary gap at distance 10


def test_saw_self_consistent_boundary_exact_on_line():
    """With the self-consistent shell activity the ball SAW conditional equals
    the infinite-line transfer conditional to machine precision: two exact
    algorithms for the same quantity."""
    st, pot = hardcore(1, 1.3)
    t_oracle = TransferOracle(st, pot, Z1, 3)
    s_oracle = SawOracle(st, pot, Z1, 6, boundary="self_consistent")
    rng = np.random.default_rng(9)
    windows = t_oracle.tm.sample_windows(3, 40, rng).astype(np.int64)
    cols = [g[0] + 3 for g in groups.ball(Z1, 3).elements]
    vals = windows[:, cols]
    masks = sample_percolation_masks(Z1, 3, 40, rng)
    pt = t_oracle.batch(vals, masks)
    ps = s_oracle.batch(vals, masks)
    assert np.max(np.abs(pt - ps)) < 1e-10


def test_f2_exploratory_cross_validation():
    """Nonamenable exploratory run: the random-past pressure on F_2 (SAW with
    self-consistent boundary) agrees with the thermodynamic-integration route
    on random permutation models, within Monte Carlo and truncation budgets."""
    from soficlab import soficmaps
    from soficlab.finitemodel import DerivedSpace, partition_mcmc

    f2 = groups.free(2)
    st, pot = hardcore(2, 0.3)
    oracle = SawOracle(st, pot, f2, 6, boundary="self_consistent")
    kp = kp_pressure_at_fixed_point(st, pot, f2, oracle, r=5, N=2500, seed=5)
    sp = DerivedSpace(soficmaps.build_random_perm(2, 1024, seed=3), st, pot)
    mc = partition_mcmc(sp, seed=4, grid_points=48, samples_per_point=1500)
    assert abs(kp.value - mc.log_Z / sp.n) < 0.005


def test_locality_same_line():
    st, pot = hardcore(1, 1.0)
    out = locality_experiment(st, pot, Z1, F1, r=8, N=20_000, seed=4)
    assert out["difference"] <= 2 * out["joint_stderr"] + 1e-12
    assert out["bound"] > 0 and math.isfinite(out["bound"])
    assert abs(out["p_a"].value - golden_pressure()) < 3 * out["p_a"].stderr + 1e-3


@pytest.mark.parametrize(
    "spec, r, beta_r, c_r",
    [(Z1, 16, 12, 2), (groups.free(2), 5, 1, 1)],
    ids=["Z1", "F2"],
)
def test_truncation_budget_radii(spec, r, beta_r, c_r):
    st, pot = hardcore(spec.rank, 0.3)
    beta, c = truncation_budget(st, pot, spec, r)
    assert beta == ssm_profile(st, pot, spec, beta_r)[-1]
    assert c == uniform_bound_c(st, pot, spec, c_r).c_hat


def test_locality_ball_mismatch():
    st, pot = hardcore(2, 1.0)
    with pytest.raises(BallMismatchError):
        locality_experiment(st, pot, groups.zd(2), groups.free(2), r=2, N=100, seed=0)


def _fields(est):
    return (est.value, est.stderr, est.r, est.n_samples, est.oracle, est.parts)


@pytest.mark.parametrize("rows_per_chunk", [1, 7])
def test_streamed_estimators_do_not_depend_on_the_chunk(rows_per_chunk, monkeypatch):
    """random_info (transfer and tree SAW oracles) and kp_pressure_at_measure
    give bitwise the one-chunk result when the rows stream 1 or 7 at a time,
    also when a chunk straddles two patterns."""
    line = hardcore(1, 1.3)
    f2 = groups.free(2)
    transfer = TransferOracle(*line, Z1, 6)
    saw_tree = SawOracle(*hardcore(2, 0.4), f2, 4)
    cases = [
        (Z1, 6, lambda: random_info(transfer, Z1, np.zeros(13, dtype=np.int64), 6, N=300, seed=4)),
        (f2, 3, lambda: random_info(saw_tree, f2, np.zeros(53, dtype=np.int64), 3, N=100, seed=4)),
        (Z1, 6, lambda: kp_pressure_at_measure(*line, Z1, transfer, 6, N_inner=11, M_outer=30, seed=4)),
    ]
    for spec, r, run in cases:
        monkeypatch.setattr(pasts, "CHUNK_FLOATS", 10**9)
        whole = _fields(run())
        monkeypatch.setattr(pasts, "CHUNK_FLOATS", rows_per_chunk * len(groups.ball(spec, r)))
        assert _fields(run()) == whole


def test_ball_oracle_memo_spans_chunks(monkeypatch):
    """Over many chunks, the ball oracle solves each distinct (row, mask)
    pair once: its memo lives on the oracle, not in one batch."""
    z2 = groups.zd(2)
    st, pot = hardcore(2, 1.0)
    oracle = BallEnumerationOracle(st, pot, z2, 1, pad=2)
    chunks = []
    batch, conditional = oracle.batch, oracle.conditional
    oracle.batch = lambda v, m: chunks.append(np.hstack([v, m])) or batch(v, m)
    calls = []
    oracle.conditional = lambda v, m: calls.append(1) or conditional(v, m)
    monkeypatch.setattr(pasts, "CHUNK_FLOATS", 2**12)
    est = kp_pressure_at_fixed_point(st, pot, z2, oracle, r=1, N=20_000, seed=3)
    assert est.n_samples == 20_000 and len(chunks) > 20
    distinct = len(np.unique(np.vstack(chunks), axis=0))
    # a memo per batch would solve at least one row in every chunk
    assert len(calls) == distinct < len(chunks)


def test_kp_measure_memory_is_bounded():
    """800k (pattern, past) rows on B_16 of Z^1 stream in bounded chunks: the
    traced peak stays under 32 MB (about 350 MB when every row was built)."""
    st, pot = hardcore(1, 1.0)
    oracle = TransferOracle(st, pot, Z1, 16)
    tracemalloc.start()
    try:
        est = kp_pressure_at_measure(st, pot, Z1, oracle, 16, N_inner=100, M_outer=8_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_samples == 800_000 and math.isfinite(est.stderr)
    assert peak < 32 * 2**20
