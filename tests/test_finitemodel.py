import decimal
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from soficlab import _glauber_py, enumeration, groups, kernels, sampling, soficmaps
from soficlab.constraints import Pattern, checkerboard, full_shift, hardcore, zero_potential
from soficlab.errors import CapExceededError, NoSafeSymbolError
from soficlab.finitemodel import (
    DerivedSpace,
    derived_energy,
    partition_cycle_decomposition,
    partition_exact,
    partition_mcmc,
    size_sweep,
)
from soficlab.sampling import GlauberEngine
from soficlab.transfer import build_transfer

from oracles import golden_pressure, lucas, sigma_word
from reference import correct_errors, error_set, extend_locally_consistent, is_in_Xn, pullback

Z1, Z2 = groups.zd(1), groups.zd(2)
HC1 = hardcore(1, 1.0)
HC2 = hardcore(2, 1.0)


def _space(sm, model):
    return DerivedSpace(sm, model[0], model[1])


def test_pullback_reads_window():
    sp = _space(soficmaps.build_torus(1, 8), HC1)
    x = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int8)
    pat = pullback(sp, x, 0, 1)
    assert pat.as_dict() == {(0,): 0, (-1,): 1, (1,): 1}
    pat0 = pullback(sp, x, 3, 0)
    assert pat0.as_dict() == {(0,): 1}


def test_pullback_f2_window_size():
    sm = soficmaps.build_random_perm(2, 500, seed=8)
    sp = DerivedSpace(sm, *hardcore(2, 1.0))
    x = np.zeros(500, dtype=np.int8)
    assert len(pullback(sp, x, 0, 1).sites) == 5


def test_pullback_shift_compatibility():
    """Pullback at sigma^g(v) is the g-shift of the pullback at v on exact tori."""
    sm = soficmaps.build_torus(2, 10)
    sp = DerivedSpace(sm, *HC2)
    rng = np.random.default_rng(0)
    x = (rng.random(sm.n) < 0.3).astype(np.int8)
    for r in (1, 2, 3):
        inner = groups.ball(Z2, r - 1)
        for s in range(2):
            g = groups.generator(Z2, s)
            for v in (0, 17, 55):
                u = sigma_word(sm.perms, g, v)
                big = pullback(sp, x, v, r).as_dict()
                small = pullback(sp, x, u, r - 1).as_dict()
                for h in inner.elements:
                    assert small[h] == big[groups.mul(Z2, h, g)]


def test_membership_and_energy():
    sp = _space(soficmaps.build_torus(1, 8), HC1)
    assert is_in_Xn(sp, np.zeros(8, np.int8))
    assert not is_in_Xn(sp, np.ones(8, np.int8))
    alt = np.array([0, 1] * 4, dtype=np.int8)
    assert is_in_Xn(sp, alt)
    sp2 = _space(soficmaps.build_torus(1, 2), HC1)
    assert not is_in_Xn(sp2, np.ones(2, np.int8))

    st, pot = hardcore(1, 2.0)
    sp_l2 = DerivedSpace(soficmaps.build_torus(1, 8), st, pot)
    assert derived_energy(sp_l2, np.zeros(8, np.int8)) == 0.0
    x3 = np.zeros(8, np.int8)
    x3[[0, 2, 4]] = 1
    assert derived_energy(sp_l2, x3) == pytest.approx(3 * math.log(2))


def test_energy_edge_weights():
    st = full_shift(1, 1)
    beta = 0.7
    pot = zero_potential(1, 1)
    pot.J[0, 0, 0] = beta
    sp = DerivedSpace(soficmaps.build_torus(1, 4), st, pot)
    assert derived_energy(sp, np.zeros(4, np.int8)) == pytest.approx(4 * beta)


def test_error_set_examples():
    sp = _space(soficmaps.build_torus(1, 8), HC1)
    assert error_set(sp, np.zeros(8, np.int8)).size == 0
    assert error_set(sp, np.ones(8, np.int8)).size == 8
    x = np.zeros(8, np.int8)
    x[0] = x[1] = 1
    assert sorted(error_set(sp, x).tolist()) == [0, 1, 2, 7]


def test_extension_examples():
    sp = _space(soficmaps.build_torus(1, 8), HC1)
    assert extend_locally_consistent(sp, {}).tolist() == [0] * 8
    y = extend_locally_consistent(sp, {0: 1})
    assert y[0] == 1 and is_in_Xn(sp, y)
    fs = DerivedSpace(soficmaps.build_torus(1, 6), full_shift(2, 1), zero_potential(2, 1))
    z = extend_locally_consistent(fs, {3: 1})
    assert z.tolist() == [0, 0, 0, 1, 0, 0]


def test_extension_requires_certificate():
    sp = DerivedSpace(soficmaps.build_torus(1, 6), checkerboard(1), zero_potential(2, 1))
    with pytest.raises(NoSafeSymbolError):
        extend_locally_consistent(sp, {})


def test_correction_contract_small():
    sp = _space(soficmaps.build_torus(1, 8), HC1)
    x = np.zeros(8, np.int8)
    assert np.array_equal(correct_errors(sp, x), x)  # no errors, unchanged
    y = correct_errors(sp, np.ones(8, np.int8))
    assert y.tolist() == [0] * 8
    x2 = np.zeros(8, np.int8)
    x2[0] = x2[1] = 1
    y2 = correct_errors(sp, x2)
    E = {7, 0, 1, 2}
    region = {(v + d) % 8 for v in E for d in range(-2, 3)}
    outside = [v for v in range(8) if v not in region]
    assert is_in_Xn(sp, y2)
    assert all(y2[v] == x2[v] for v in outside)


def test_correction_random_tori():
    rng = np.random.default_rng(11)
    sp = _space(soficmaps.build_torus(2, 6), HC2)
    W = [sp.sm.sigma_array(g) for g in sp.mm_ball.elements]
    for _ in range(200):
        x = rng.integers(0, 2, sp.n).astype(np.int8)
        E = error_set(sp, x)
        y = correct_errors(sp, x)
        assert is_in_Xn(sp, y)
        assert error_set(sp, y).size == 0
        mask = np.zeros(sp.n, bool)
        for arr in W:
            mask[arr[E]] = True
        assert np.array_equal(y[~mask], x[~mask])


def test_partition_exact_values():
    assert partition_exact(_space(soficmaps.build_torus(1, 4), HC1)).log_Z == pytest.approx(
        math.log(7), abs=1e-12
    )
    assert partition_exact(_space(soficmaps.build_torus(1, 5), HC1)).log_Z == pytest.approx(
        math.log(11), abs=1e-12
    )
    fs = DerivedSpace(soficmaps.build_torus(1, 10), full_shift(2, 1), zero_potential(2, 1))
    assert partition_exact(fs).log_Z == pytest.approx(10 * math.log(2), abs=1e-12)


def test_partition_cap(monkeypatch):
    """The exact route is bounded by its elimination plan alone: on the Z^2
    16x16 torus it is a CapExceededError (exit 3) with no table contracted,
    and the Z^1 30-cycle, past the old 24-site cap, answers log Lucas(30)."""
    contracted = []
    contract = enumeration._contract
    monkeypatch.setattr(enumeration, "_contract", lambda factors, out: contracted.append(out) or contract(factors, out))
    with pytest.raises(CapExceededError, match="past the cap") as exc:
        partition_exact(_space(soficmaps.build_torus(2, 16), HC2))
    assert exc.value.exit_code == 3
    assert contracted == []
    res = partition_exact(_space(soficmaps.build_torus(1, 30), HC1))
    assert res.log_Z == pytest.approx(math.log(lucas(30)), abs=1e-12)


def test_exact_route_against_a_50_digit_sum():
    """F_2 hardcore at activity 2.5 on the random_perm map n = 20, seed 3
    (2,987 configurations): log Z and the mean energy of the exact route
    are within 1e-14 of sums over the DFS occupation counts at 50 digits;
    the weight of k occupied sites is exp(k h(1)) for the float h(1)."""
    st, pot = hardcore(2, 2.5)
    sp = DerivedSpace(soficmaps.build_random_perm(2, 20, seed=3), st, pot)
    configs, _ = enumeration.all_configs(enumeration.SiteGraph.from_sofic(sp.sm), st, pot)
    assert len(configs) == 2987
    counts = np.bincount([sum(x) for x in configs])
    with decimal.localcontext(prec=50):
        h1 = decimal.Decimal(float(pot.h[1]))
        z = sum(int(c) * (k * h1).exp() for k, c in enumerate(counts))
        energy = sum(int(c) * k * h1 * (k * h1).exp() for k, c in enumerate(counts)) / z
        log_z = z.ln()
    res = partition_exact(sp)
    assert abs(res.log_Z - float(log_z)) <= 1e-14
    assert abs(res.mean_energy - float(energy)) <= 1e-14


def test_exact_vs_transfer_all_small_cycles():
    for m in range(2, 15):
        sp = _space(soficmaps.build_torus(1, m), HC1)
        assert partition_exact(sp).log_Z == pytest.approx(
            partition_cycle_decomposition(sp).log_Z, abs=1e-9
        )
        assert partition_exact(sp).log_Z == pytest.approx(math.log(lucas(m)), abs=1e-9)


def test_partition_lower_bound_corollary():
    """log Z_n / n >= log|A| / |B_2| - |phi| on computed instances."""
    for m, model in [(8, HC1), (12, HC1)]:
        sp = _space(soficmaps.build_torus(1, m), model)
        bound = math.log(2) / len(groups.ball(Z1, 2)) - model[1].norm()
        assert partition_cycle_decomposition(sp).log_Z / sp.n >= bound
    sp2 = _space(soficmaps.build_torus(2, 4), HC2)
    bound2 = math.log(2) / len(groups.ball(Z2, 2)) - HC2[1].norm()
    assert partition_exact(sp2).log_Z / sp2.n >= bound2


def test_partition_mcmc_requires_safe_symbol():
    sp = DerivedSpace(soficmaps.build_torus(1, 6), checkerboard(1), zero_potential(2, 1))
    with pytest.raises(NoSafeSymbolError):
        partition_mcmc(sp, seed=0)


def test_partition_mcmc_matches_exact():
    sp = _space(soficmaps.build_torus(1, 4), HC1)
    res = partition_mcmc(sp, seed=1, samples_per_point=2500)
    assert res.stderr < 0.05
    assert abs(res.log_Z - math.log(7)) < 3 * res.stderr + 0.01


def test_partition_mcmc_deterministic():
    sp = _space(soficmaps.build_torus(1, 4), HC1)
    a = partition_mcmc(sp, seed=5, samples_per_point=400)
    b = partition_mcmc(sp, seed=5, samples_per_point=400)
    assert a.log_Z == b.log_Z


def test_partition_mcmc_output_is_pinned():
    """Values recorded with one kernel call per sample; 1500 samples of 16
    sites cross the sweep engine's chunk of 1024 sweeps."""
    res = partition_mcmc(_space(soficmaps.build_torus(2, 4), HC2), seed=7, grid_points=12,
                         samples_per_point=1500)
    assert res.log_Z == 6.6921495839108776
    assert res.stderr == 0.04354084088252523


@pytest.fixture(params=["c", "python"])
def sweep_backend(request, monkeypatch):
    """The compiled sweep and draws (skipped where not loaded), else the
    Python twin's, which draws through numpy and holds the GIL.  The grid's
    split follows the process's backend, so where the C library loaded the
    twin's sweeps too run in segments."""
    if request.param == "c" and kernels.BACKEND != "c":
        pytest.skip("C kernel not loaded")
    if request.param == "python":
        monkeypatch.setattr(kernels, "_c", None)
        monkeypatch.setattr(sampling, "glauber_sweeps", _glauber_py.glauber_sweeps)
    return request.param


def _sampled_points(monkeypatch) -> list:
    """A list whose length counts the sample calls of every GlauberEngine,
    one per grid point that a chain runs."""
    calls, sweeps = [], GlauberEngine.sweeps

    def counted(self, x, k, rng, counts=None, safe=0):
        if counts is not None:
            calls.append(k)
        return sweeps(self, x, k, rng, counts, safe)

    monkeypatch.setattr(GlauberEngine, "sweeps", counted)
    return calls


# (space, partition_mcmc settings, the points run again at W = 3) of the
# pinned 4x4 run, cut to fewer samples, and of hardcore at lambda = 20 on the
# 6x6 torus near t = 0, where a segment's first burn-in does not coalesce
SEGMENT_CASES = [
    (lambda: _space(soficmaps.build_torus(2, 4), HC2), {"seed": 7, "grid_points": 12, "samples_per_point": 300},
     0),
    (lambda: _space(soficmaps.build_torus(2, 6), hardcore(2, 20.0)),
     {"seed": 3, "grid_points": 8, "samples_per_point": 40, "log_u_min": -1.0}, 6),
]


@pytest.mark.parametrize("make, settings, rerun", SEGMENT_CASES)
def test_partition_mcmc_is_the_same_on_any_number_of_cores(sweep_backend, monkeypatch, make, settings, rerun):
    """The record is byte-equal whether the grid runs in 1, 2, 3 or
    grid_points segments, more threads than cores switching often; at
    lambda = 20 the check of the segments fails and they are run again
    serially, which shows only in the sweep calls."""
    space, grid = make(), settings["grid_points"]
    calls = _sampled_points(monkeypatch)
    records, reruns = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in (1, 2, 3, grid):
            monkeypatch.setattr(kernels, "_usable_cores", lambda w=w: w)
            calls.clear()
            res = partition_mcmc(space, **settings)
            records.append(json.dumps([res.log_Z, res.method, res.stderr, res.diagnostics, res.mean_energy]))
            reruns.append(len(calls) - grid)
    finally:
        sys.setswitchinterval(interval)
    assert records == [records[0]] * 4
    if kernels.BACKEND == "c":  # else the grid runs as one segment
        assert reruns[0] == 0 and reruns[2] == rerun
        if rerun:
            assert reruns[3] > 0


@pytest.mark.skipif(kernels.BACKEND != "c", reason="the grid runs in segments on the compiled backend alone")
def test_partition_mcmc_joins_every_segment_before_raising(monkeypatch):
    """A ValueError from a worker segment's sweep is raised by
    partition_mcmc once every thread is joined, a slower segment included."""
    sweeps, lock = GlauberEngine.sweeps, threading.Lock()
    workers = []  # in the order of their first sweep: the first one fails, the other is slow

    def failing(self, x, k, rng, counts=None, safe=0):
        thread = threading.current_thread()
        if thread is not threading.main_thread():
            with lock:
                if thread not in workers:
                    workers.append(thread)
            if thread is workers[0]:
                raise ValueError("a worker's sweep failed")
            time.sleep(0.01)
        return sweeps(self, x, k, rng, counts, safe)

    monkeypatch.setattr(GlauberEngine, "sweeps", failing)
    monkeypatch.setattr(kernels, "_usable_cores", lambda: 3)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="a worker's sweep failed"):
        partition_mcmc(_space(soficmaps.build_torus(2, 4), HC2), seed=1, grid_points=9, samples_per_point=40)
    assert set(threading.enumerate()) == before
    assert len(workers) == 2


def test_vanishing_activity_limit():
    st, pot = hardcore(1, 1e-6)
    sp = DerivedSpace(soficmaps.build_torus(1, 4), st, pot)
    assert partition_exact(sp).log_Z == pytest.approx(0.0, abs=1e-5)


def test_mcmc_self_consistency_free_group():
    """Two random-perm model sizes give mutually consistent MCMC pressures."""
    st, pot = hardcore(2, 1.0)
    vals = []
    for n in (64, 128):
        sp = DerivedSpace(soficmaps.build_random_perm(2, n, seed=1), st, pot)
        res = partition_mcmc(sp, seed=2, grid_points=40, samples_per_point=800)
        vals.append((res.log_Z / n, res.stderr / n))
    (p1, s1), (p2, s2) = vals
    assert abs(p1 - p2) <= 2 * math.hypot(s1, s2) + 0.01


def test_cycle_decomposition_matches_exact():
    st, pot = HC1
    sp = DerivedSpace(soficmaps.build_random_perm(1, 16, seed=7), st, pot)
    assert partition_cycle_decomposition(sp).log_Z == pytest.approx(
        partition_exact(sp).log_Z, abs=1e-9
    )
    # folner box on the line coincides with the cycle
    spf = DerivedSpace(soficmaps.build_folner_box(1, 12), st, pot)
    assert partition_cycle_decomposition(spf).log_Z == pytest.approx(
        math.log(lucas(12)), abs=1e-9
    )


def test_pressure_estimate_sequences():
    st, pot = HC1
    rows = size_sweep("pressure", st, pot, {"builder": "torus", "d": 1}, [8, 16, 32, 64])
    assert [r["method"] for r in rows] == ["cycle_decomposition"] * 4
    # auto's cycle route on the rank-1 torus is bitwise the transfer trace
    tm = build_transfer(st, pot)
    assert [r["log_Z"] for r in rows] == [tm.log_trace_power(n) for n in (8, 16, 32, 64)]
    errs = [abs(r["pressure_estimate"] - golden_pressure()) for r in rows]
    assert errs == sorted(errs, reverse=True) and errs[-1] < 1e-6
    fs_rows = size_sweep(
        "pressure", full_shift(2, 1), zero_potential(2, 1), {"builder": "folner", "d": 1}, [6, 10], method="exact"
    )
    for r in fs_rows:
        assert r["pressure_estimate"] == pytest.approx(math.log(2), abs=1e-12)
