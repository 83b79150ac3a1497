import functools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from soficlab import _glauber_py, groups, kernels, pasts, randominfo
from soficlab.constraints import full_shift, hardcore, zero_potential
from soficlab.errors import SchemaError, SoficLabError, ZeroProbabilityError
from soficlab.gibbs import ssm_profile, uniform_bound_c
from soficlab.kernels import Pcg64
from soficlab.marginals import BallEnumerationOracle, SawOracle, TransferOracle, make_oracle
from soficlab.pasts import sample_percolation_masks
from soficlab.randominfo import (
    _streamed_info,
    info_fn_truncated,
    kp_pressure_at_fixed_point,
    kp_pressure_at_measure,
    random_info,
    truncation_budget,
)
from soficlab.transfer import build_transfer

from oracles import (
    bethe_hardcore_pressure,
    hardcore_line_pressure,
    hardcore_stationary_p0,
    info_fn_full_width,
    into,
    sample_windows_loop,
)

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
    f = _streamed_info(oracle, patterns[:3], 50, Pcg64(0))
    assert f.shape == (150,) and np.isfinite(f).all()
    with pytest.raises(ZeroProbabilityError):
        _streamed_info(oracle, patterns, 50, Pcg64(0))


class _MasksRoute:
    """The transfer oracle seen only through `batch`, fed the chunked masks
    of `pasts.percolation_chunks` as the ball oracle feeds its own."""

    def __init__(self, oracle):
        self.batch = oracle.batch

    def percolation_batch(self, patterns, n_inner, rng, consume, unit=1):
        pasts.percolation_rows(patterns, n_inner, rng, self.batch, consume, unit)


@pytest.mark.parametrize("spec,r,L,n_patterns,n_inner", [
    (Z1, 4, 9, 3, 50),
    (Z1, 16, 33, 40, 100),  # several mask chunks
    (F1, 5, 7, 5, 13),  # patterns narrower than the oracle's ball
    (Z1, 3, 7, 1, 20_001),  # one pattern over several chunks
])
def test_transfer_route_is_the_masks_route(spec, r, L, n_patterns, n_inner):
    """The compiled percolation route gives the masks route's f bitwise and
    leaves the stream where the masks route leaves it."""
    oracle = TransferOracle(*hardcore(1, 2.5), spec, r)
    patterns = oracle.tm.sample_windows(r, n_patterns, Pcg64(1)).astype(np.int64)
    patterns = patterns[:, [r + groups.line_offset(spec, g) for g in groups.ball(spec, r).elements]][:, :L]
    rngs = [Pcg64(7), Pcg64(7)]
    f = _streamed_info(oracle, patterns, n_inner, rngs[0])
    g = _streamed_info(_MasksRoute(oracle), patterns, n_inner, rngs[1])
    assert np.array_equal(f, g) and np.isfinite(f).all()
    assert rngs[0].state == rngs[1].state


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
    rng = Pcg64(0)
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
    est = kp_pressure_at_measure(st, pot, Z1, oracle, r=10, N_inner=60, M_outer=1500, seed=2)
    assert abs(est.parts["info"] - (2 / 3) * math.log(2)) < 3 * est.parts["info_stderr"] + 2e-3


def test_oracle_cross_agreement():
    """Transfer vs safe-boundary ball enumeration within the screening budget."""
    st, pot = hardcore(1, 1.0)
    t_oracle = TransferOracle(st, pot, Z1, 2)
    b_oracle = BallEnumerationOracle(st, pot, Z1, 2, pad=6)
    prof = ssm_profile(st, pot, Z1, 6)
    rng = Pcg64(7)
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
    rng = Pcg64(8)
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
    rng = Pcg64(9)
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


def test_bethe_hardcore_pressure_oracle():
    assert bethe_hardcore_pressure(0.3, 4) == 0.19095573521757503
    assert bethe_hardcore_pressure(1.0, 4) == 0.4012246691681729  # where plain iteration 2-cycles
    for lam in (0.3, 1.0, 2.5):  # the 2-regular tree is Z^1
        assert bethe_hardcore_pressure(lam, 2) == pytest.approx(hardcore_line_pressure(lam), rel=1e-14)


def test_kp_estimate_on_f2_matches_bethe(tmp_path):
    """The default `kp-estimate` on F_2 hardcore at lambda = 0.3 (inside
    uniqueness) is within 4 stderr of the Bethe pressure of the 4-regular tree."""
    from soficlab.cli import run_config
    from soficlab.modelfile import hardcore_model_dict

    model = tmp_path / "f2.json"
    model.write_text(json.dumps(hardcore_model_dict("Free", 2, 0.3)))
    out = run_config({"experiment": "kp-estimate", "model": str(model), "params": {"r": 5, "N": 200_000},
                      "seed": 1})["outputs"]
    assert abs(out["value"] - bethe_hardcore_pressure(0.3, 4)) < 4 * out["stderr"]


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
    """4 million (pattern, past) rows on B_16 of Z^1 against mu peak under
    8 MB traced, a bound that holds at any row count: the rows stream in
    chunks of at most 2^16 and only each pattern's int8 window and its mean
    grow with M_outer (the flat f alone of these rows was 32 MB)."""
    st, pot = hardcore(1, 1.0)
    oracle = TransferOracle(st, pot, Z1, 16)
    tracemalloc.start()
    try:
        est = kp_pressure_at_measure(st, pot, Z1, oracle, 16, N_inner=100, M_outer=40_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_samples == 4_000_000 and math.isfinite(est.stderr)
    assert peak < 8 * 2**20


def _backends():
    """{name: (percolation_lookup, tree_percolation)} of the kernels the
    oracles can run on: the Python twins, and the compiled kernels when
    they are loaded."""
    pairs = {"python": (_glauber_py.percolation_lookup, _glauber_py.tree_percolation)}
    if kernels.BACKEND == "c":
        pairs["c"] = (kernels._c_percolation_lookup, kernels._c_tree_percolation)
    return pairs


def _use_backend(monkeypatch, backend):
    lookup, tree = _backends()[backend]
    monkeypatch.setattr(kernels, "percolation_lookup", lookup)
    monkeypatch.setattr(kernels, "tree_percolation", tree)


def _flat_measure(structure, potential, spec, oracle, r, N_inner, M_outer, seed):
    """The fields of `kp_pressure_at_measure` as it ran when every row was
    held: the windows from one draw of uniforms, an int64 copy of every
    pattern, every row's conditional from one `percolation_lookup` into one
    flat array, then numpy's reductions over that array."""
    rng = Pcg64([seed, r, 0x0AEA])
    windows = sample_windows_loop(build_transfer(structure, potential), r, M_outer, rng)
    cols = [groups.line_offset(spec, g) + r for g in groups.ball(spec, r).elements]
    patterns = np.ascontiguousarray(windows[:, cols], dtype=np.int64)
    f = np.empty(M_outer * N_inner)
    kernels.percolation_lookup(patterns, N_inner, oracle.sides, oracle.tables, rng, into(f))
    np.negative(np.log(f, out=f), out=f)
    info_means = f.reshape(M_outer, N_inner).mean(axis=1)
    phis = randominfo._potentials_at_center(potential, spec, patterns)
    totals = info_means + phis
    return (float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(M_outer)), r, M_outer * N_inner,
            oracle.name, {"info": float(info_means.mean()),
                          "info_stderr": float(info_means.std(ddof=1) / math.sqrt(M_outer)),
                          "phi": float(phis.mean())})


@pytest.mark.parametrize("backend,workers", [("python", 1)] + [("c", w) for w in (1, 2, 5) if "c" in _backends()])
@pytest.mark.parametrize("lam,r,N_inner,M_outer", [
    (1.0, 8, 300, 1001),  # chunks of 218 patterns: three per range of 2, the last one short
    (2.5, 5, 7, 30_001),  # a unit of 7 rows, which does not divide 2^16
])
def test_kp_measure_is_the_flat_reference(monkeypatch, backend, workers, lam, r, N_inner, M_outer):
    """kp_pressure_at_measure, which keeps only each pattern's mean of the
    chunks its consumer is handed, in 1, 2 or 5 ranges of the compiled
    kernel, whose threads run the consumer under a short switch interval,
    or through the Python twin, gives bitwise the record of the flat
    reference."""
    structure, potential = hardcore(1, lam)
    oracle = TransferOracle(structure, potential, Z1, r)
    expect = _flat_measure(structure, potential, Z1, oracle, r, N_inner, M_outer, seed=6)
    _use_backend(monkeypatch, backend)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
    assert len(kernels._row_bounds(M_outer * N_inner, N_inner)) == workers + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = kp_pressure_at_measure(structure, potential, Z1, oracle, r, N_inner=N_inner, M_outer=M_outer,
                                     seed=6)
    finally:
        sys.setswitchinterval(interval)
    assert repr(_fields(est)) == repr(expect)


@pytest.mark.parametrize("backend", list(_backends()))
def test_fixed_point_rows_are_the_flat_reference(monkeypatch, backend):
    """At the CLI default N = 200,000 the fixed point's f, handed over in
    chunks and stored row by row, is bitwise the -log of the flat lookup,
    on the transfer and the tree route, and the stream ends in the same
    state."""
    _use_backend(monkeypatch, backend)
    f2 = groups.free(2)
    line = TransferOracle(*hardcore(1, 1.0), Z1, 8)
    tree = SawOracle(*hardcore(2, 0.3), f2, 3, pad=1, boundary="self_consistent")
    for spec, r, oracle, flat_run in [
        (Z1, 8, line, lambda p, rng, f: kernels.percolation_lookup(p, len(f), line.sides, line.tables, rng,
                                                                   into(f))),
        (f2, 3, tree, lambda p, rng, f: kernels.tree_percolation(p, len(f), tree.tree, rng, into(f))),
    ]:
        pattern = np.zeros((1, len(groups.ball(spec, r))), dtype=np.int64)
        rngs = [Pcg64([2, r]), Pcg64([2, r])]
        f = _streamed_info(oracle, pattern, 200_000, rngs[0])
        flat = np.empty(200_000)
        flat_run(pattern, rngs[1], flat)
        assert np.array_equal(f, -np.log(flat)) and rngs[0].state == rngs[1].state


def _doctored_line(r):
    """A Z^1 hardcore transfer oracle whose conditionals of an occupied
    center are distinct negative numbers, one per (dl, bl, dr, br): a row
    with an occupied center fails the consumer's check with a message that
    names the nearest pins its past drew."""
    oracle = TransferOracle(*hardcore(1, 1.0), Z1, r)
    oracle.tables = oracle.tables.copy()
    oracle.tables[1] = -1.0 - np.arange(oracle.tables[1].size).reshape(oracle.tables[1].shape)
    return oracle


@pytest.mark.parametrize("bad", [[330], [120, 330], [199, 200]],
                         ids=["second-range", "both-ranges", "range-boundary"])
def test_consumer_error_is_the_lowest_rows_on_every_split(monkeypatch, bad):
    """A ZeroProbabilityError raised by `_streamed_info`'s consumer, in a
    worker's range alone or in both, is the error of the lowest refused
    row: the same text with the rows in 1 range, in 2 ranges and through
    the Python twin, with chunks of 10 patterns.  The stream then ends
    where the serial call leaves it, past every row's uniforms.  400
    patterns of 100 rows, of which those in bad have an occupied center;
    two ranges split them at pattern 200."""
    r, n_inner = 6, 100
    oracle = _doctored_line(r)
    patterns = np.zeros((400, len(groups.ball(Z1, r))), dtype=np.int64)
    patterns[bad, 0] = 1
    monkeypatch.setattr(pasts, "CHUNK_FLOATS", 10 * n_inner)
    outcomes = set()
    for backend, workers in [("python", 1)] + [("c", w) for w in (1, 2) if "c" in _backends()]:
        _use_backend(monkeypatch, backend)
        monkeypatch.setattr(kernels, "_usable_cores", lambda: workers)
        rng = Pcg64(13)
        with pytest.raises(ZeroProbabilityError, match=r"^oracle conditional (np\.float64\()?-\d+\.0\)? is not in") as exc:
            _streamed_info(oracle, patterns, n_inner, rng, means=True)
        outcomes.add((str(exc.value), repr(rng.state)))
    assert len(outcomes) == 1
    assert outcomes.pop()[1] == repr(Pcg64(13).advance(400 * n_inner * patterns.shape[1]).state)
    # the text is that of the lowest refused row: its past's nearest pins
    flat = np.empty(400 * n_inner)
    kernels.percolation_lookup(patterns, n_inner, oracle.sides, oracle.tables, Pcg64(13), into(flat))
    assert str(exc.value).startswith(f"oracle conditional {flat[flat < 0][0]!r} ")
