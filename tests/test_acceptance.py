"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass line.  Target values come from the independent oracles in
oracles.py (closed forms, BFS, brute-force enumeration), never from the code
path being checked."""

import math
import time

import numpy as np
import pytest

from soficlab import groups, soficmaps
from soficlab.constraints import check_tssm, checkerboard, hardcore
from soficlab.constraints import Verdict, is_globally_admissible
from soficlab.finitemodel import (
    DerivedSpace,
    correct_errors,
    derived_energy,
    error_set,
    is_in_Xn,
    partition_cycle_decomposition,
    partition_exact,
    partition_mcmc,
    partition_transfer_cycle,
)
from soficlab.gibbs import (
    derived_gibbs_exact,
    local_weakstar_gap,
    mean_energy_exact,
    shannon_entropy_exact,
    ssm_profile,
    transfer_reference_marginal,
    uniform_bound_c,
)
from soficlab.marginals import TransferOracle
from soficlab.randominfo import (
    kp_pressure_at_fixed_point,
    kp_pressure_at_measure,
    percolative_entropy,
)
from soficlab.saw import hardcore_marginal_via_saw, weitz_threshold

from oracles import (
    brute_hardcore_marginal,
    golden_pressure,
    hardcore_line_density,
    hardcore_line_pressure,
    lucas,
)

Z1, Z2 = groups.zd(1), groups.zd(2)


def _report(num, text):
    print(f"\n[criterion {num:2d}] PASS  {text}")


def test_criterion_01_golden_mean_pressure():
    st, pot = hardcore(1, 1.0)
    t0 = time.time()
    sp64 = DerivedSpace(soficmaps.build_torus(1, 64), st, pot)
    value = partition_transfer_cycle(sp64).log_Z / 64
    elapsed = time.time() - t0
    target = golden_pressure()
    assert abs(value - target) < 1e-6
    assert elapsed < 1.0
    for m in range(3, 21):
        sp = DerivedSpace(soficmaps.build_torus(1, m), st, pot)
        brute = partition_exact(sp).log_Z
        trace = partition_transfer_cycle(sp).log_Z
        assert abs(brute - trace) < 1e-9
        assert abs(brute - math.log(lucas(m))) < 1e-9  # enumeration oracle
    _report(1, f"log Z_64/64 = {value:.7f} vs log golden = {target:.7f} "
               f"({elapsed*1e3:.0f} ms); brute = trace to 1e-9 for m <= 20")


def test_criterion_02_lambda2_pressure():
    st, pot = hardcore(1, 2.0)
    t0 = time.time()
    sp = DerivedSpace(soficmaps.build_torus(1, 64), st, pot)
    value = partition_transfer_cycle(sp).log_Z / 64
    elapsed = time.time() - t0
    assert abs(value - math.log(2)) < 1e-6
    assert elapsed < 1.0
    _report(2, f"lambda=2: log Z_64/64 = {value:.7f} vs log 2 = {math.log(2):.7f} ({elapsed*1e3:.0f} ms)")


def test_criterion_03_kp_fixed_point_formula():
    lines = []
    for lam in (0.5, 1.0, 2.0):
        st, pot = hardcore(1, lam)
        t0 = time.time()
        oracle = TransferOracle(st, pot, Z1, 16)
        est = kp_pressure_at_fixed_point(st, pot, Z1, oracle, r=16, N=200_000, seed=7)
        beta16 = ssm_profile(st, pot, Z1, 16)[-1]
        c_hat = uniform_bound_c(st, pot, Z1, 2).c_hat
        elapsed = time.time() - t0
        target = hardcore_line_pressure(lam)
        budget = 3 * est.stderr + 3 * beta16 / c_hat
        assert abs(est.value - target) <= budget
        assert est.stderr < 0.005
        assert elapsed < 60.0
        lines.append(f"lam={lam}: {est.value:.6f} vs {target:.6f} (3se+3b/c = {budget:.2e}, {elapsed:.1f}s)")
    _report(3, "; ".join(lines))


def test_criterion_04_nu_independence():
    lines = []
    t0 = time.time()
    for lam in (1.0, 2.0):
        st, pot = hardcore(1, lam)
        oracle = TransferOracle(st, pot, Z1, 16)
        fixed = kp_pressure_at_fixed_point(st, pot, Z1, oracle, r=16, N=200_000, seed=7)
        mu = kp_pressure_at_measure(st, pot, Z1, oracle, r=16, N_inner=100, M_outer=8000, seed=11)
        joint = math.hypot(fixed.stderr, mu.stderr)
        diff = abs(fixed.value - mu.value)
        assert diff <= 3 * joint
        lines.append(f"lam={lam}: |{fixed.value:.5f} - {mu.value:.5f}| = {diff:.2e} <= 3*{joint:.2e}")
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(4, "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_05_entropy_formula():
    target = (2 / 3) * math.log(2)
    st, pot = hardcore(1, 2.0)
    t0 = time.time()
    oracle = TransferOracle(st, pot, Z1, 16)
    est = percolative_entropy(st, pot, Z1, oracle, r=16, N_inner=100, M_outer=16000, seed=13)
    elapsed = time.time() - t0
    assert abs(est.value - target) < 0.01
    # exact Shannon entropies on small cycles converge to the same value
    rates = []
    for m in (8, 12, 16):
        sp = DerivedSpace(soficmaps.build_torus(1, m), st, pot)
        rates.append(shannon_entropy_exact(sp) / m)
    gaps = [abs(r - target) for r in rates]
    assert gaps[-1] < 0.02
    assert gaps == sorted(gaps, reverse=True)
    _report(5, f"percolative entropy {est.value:.6f} vs (2/3)log2 = {target:.6f} "
               f"(diff {abs(est.value-target):.2e}, {elapsed:.1f}s); H(mu_16)/16 gap {gaps[-1]:.2e}")


def test_criterion_06_equilibrium_identity():
    from test_gibbs import random_safe_model

    rng = np.random.default_rng(20)
    t0 = time.time()
    worst = 0.0
    for k in range(20):
        if k % 2 == 0:
            n_gen, builder = 2, soficmaps.build_torus(2, 3)
        else:
            m = int(rng.integers(6, 14))
            n_gen, builder = 1, soficmaps.build_torus(1, m)
        st, pot = random_safe_model(rng, n_generators=n_gen)
        if st.alphabet > 2 and builder.n > 10:
            builder = soficmaps.build_torus(1, 9)
        sp = DerivedSpace(builder, st, pot)
        t = derived_gibbs_exact(sp)
        gap = abs(t.log_Z - (shannon_entropy_exact(sp, t) + mean_energy_exact(t)))
        worst = max(worst, gap)
        assert gap < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(6, f"log Z = H + <H*> on 20 random models, worst gap {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_07_gibbs_maximality():
    rng = np.random.default_rng(21)
    spaces = [
        DerivedSpace(soficmaps.build_torus(1, 10), *hardcore(1, 2.0)),
        DerivedSpace(soficmaps.build_torus(2, 3), *hardcore(2, 0.7)),
    ]
    worst = -math.inf
    for sp in spaces:
        t = derived_gibbs_exact(sp)
        energies = np.array([derived_energy(sp, x) for x in t.configs])
        best = float(np.sum(np.where(t.probs > 0, -t.probs * np.log(t.probs), 0)) + t.probs @ energies)
        for _ in range(100):
            w = rng.dirichlet(np.full(len(t.probs), 0.25))
            val = float(np.sum(np.where(w > 0, -w * np.log(w), 0.0)) + w @ energies)
            worst = max(worst, val - best)
            assert val <= best + 1e-9
    _report(7, f"200 random measures never beat mu_n; max functional excess {worst:.2e}")


def test_criterion_08_weitz_saw_equivalence():
    rng = np.random.default_rng(22)
    t0 = time.time()
    worst = 0.0
    n_checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        adj = [set() for _ in range(n)]
        for v in range(1, n):
            u = int(rng.integers(0, v))
            adj[u].add(v)
            adj[v].add(u)
        for _ in range(int(rng.integers(0, n))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                adj[int(u)].add(int(v))
                adj[int(v)].add(int(u))
        adj = [sorted(s) for s in adj]
        root = int(rng.integers(0, n))
        pins = {}
        for u in range(n):
            if u != root and rng.random() < 0.25:
                pins[u] = 0 if any(pins.get(w) == 1 for w in adj[u]) else int(rng.integers(0, 2))
        for lam in (0.5, 1.0, 2.0):
            diff = abs(
                hardcore_marginal_via_saw(adj, root, lam, pins)
                - brute_hardcore_marginal(adj, root, lam, pins)
            )
            worst = max(worst, diff)
            n_checked += 1
            assert diff < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(8, f"{n_checked} SAW-vs-brute marginals, worst diff {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_09_correction_lemma():
    st, pot = hardcore(2, 1.0)
    sp = DerivedSpace(soficmaps.build_torus(2, 6), st, pot)
    W = [sp.sm.sigma_array(g) for g in sp.mm_ball.elements]
    rng = np.random.default_rng(23)
    t0 = time.time()
    for _ in range(1000):
        x = rng.integers(0, 2, sp.n).astype(np.int8)
        E = error_set(sp, x)
        y = correct_errors(sp, x)
        assert is_in_Xn(sp, y)
        mask = np.zeros(sp.n, bool)
        for arr in W:
            mask[arr[E]] = True
        assert np.array_equal(y[~mask], x[~mask])
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(9, f"1000 corrections on the 6x6 torus, all in X^n and agreeing off "
               f"sigma^B2(E(x)) ({elapsed:.1f}s)")


def test_criterion_10_tssm_checker():
    t0 = time.time()
    hc, _ = hardcore(1, 1.0)
    assert check_tssm(hc, Z1).kind == "safe_symbol"
    from soficlab.constraints import full_shift

    assert check_tssm(full_shift(2, 2), Z2).kind == "safe_symbol"
    cb = checkerboard(1)
    verdict = check_tssm(cb, Z1, m=1, radius=2, k_max=2)
    assert verdict.kind == "violated"
    w = verdict.witness
    assert is_globally_admissible(cb, Z1, w, pad=3) == Verdict.NO
    from soficlab.constraints import Pattern

    for g, val in zip(w.sites, w.values):
        assert is_globally_admissible(cb, Z1, Pattern((g,), (val,)), pad=3) == Verdict.YES
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(10, f"hardcore/full-shift safe-symbol certified; checkerboard witness "
                f"{list(w.sites)} -> {list(w.values)} replay-confirmed ({elapsed:.2f}s)")


def test_criterion_11_weitz_threshold_formula():
    assert weitz_threshold(3) == 4.0
    assert weitz_threshold(4) == 1.6875
    assert weitz_threshold(5) == 256 / 243
    _report(11, "lambda_c: 4.0, 1.6875, 256/243 exact")


def test_criterion_12_local_weakstar_convergence():
    st, pot = hardcore(1, 1.0)
    ref = transfer_reference_marginal(st, pot, Z1, 1)
    t0 = time.time()
    fractions = []
    for m in (8, 16):
        sp = DerivedSpace(soficmaps.build_torus(1, m), st, pot)
        fractions.append(local_weakstar_gap(sp, ref, 1, 0.01, ("exact",)))
    sp32 = DerivedSpace(soficmaps.build_torus(1, 32), st, pot)
    fractions.append(local_weakstar_gap(sp32, ref, 1, 0.01, ("sampled", 60_000, 2, 100, 17)))
    elapsed = time.time() - t0
    assert fractions[0] >= fractions[1] >= fractions[2]
    assert fractions[-1] < 0.05
    assert elapsed < 60.0
    _report(12, f"gap fractions m=8,16,32: {fractions} ({elapsed:.1f}s)")


def test_criterion_13_sigma_independence_proxy():
    st, pot = hardcore(1, 1.0)
    t0 = time.time()
    p_torus = partition_transfer_cycle(
        DerivedSpace(soficmaps.build_torus(1, 64), st, pot)
    ).log_Z / 64
    p_folner = partition_cycle_decomposition(
        DerivedSpace(soficmaps.build_folner_box(1, 64), st, pot)
    ).log_Z / 64
    elapsed = time.time() - t0
    diff = abs(p_torus - p_folner)
    assert diff < 1e-3
    assert elapsed < 5.0
    _report(13, f"|p_torus - p_folner| = {diff:.2e} at m=64 ({elapsed:.2f}s)")


def test_criterion_14_mcmc_partition_sanity():
    st1, pot1 = hardcore(1, 1.0)
    sp_c4 = DerivedSpace(soficmaps.build_torus(1, 4), st1, pot1)
    t0 = time.time()
    res1 = partition_mcmc(sp_c4, seed=3, samples_per_point=12_000)
    diff1 = abs(res1.log_Z - math.log(7))
    assert diff1 < 0.02
    st2, pot2 = hardcore(2, 1.0)
    sp_t = DerivedSpace(soficmaps.build_torus(2, 4), st2, pot2)
    exact = partition_exact(sp_t).log_Z
    res2 = partition_mcmc(sp_t, seed=5, samples_per_point=10_000)
    diff2 = abs(res2.log_Z - exact)
    elapsed = time.time() - t0
    assert diff2 < 0.03
    assert elapsed < 120.0
    _report(14, f"C4: |{res1.log_Z:.4f} - log 7| = {diff1:.4f} < 0.02; "
                f"4x4 torus: diff = {diff2:.4f} < 0.03 ({elapsed:.1f}s)")
