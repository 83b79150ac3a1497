import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from soficlab import enumeration, finitemodel, gibbs, groups, soficmaps
from soficlab.constraints import (
    ConstraintStructure,
    Pattern,
    Potential,
    checkerboard,
    core_symbols,
    full_shift,
    hardcore,
    zero_potential,
)
from soficlab.errors import BudgetExceededError, EmptyFiberError
from soficlab.finitemodel import DerivedSpace, derived_energy, size_sweep
from soficlab.gibbs import ssm_profile, uniform_bound_c
from soficlab.kernels import Pcg64
from soficlab.sampling import sample_derived_gibbs

from oracles import golden_pressure, hardcore_line_density, sigma_word
from reference import (
    BallDistribution,
    beta_by_rows,
    derived_gibbs_exact,
    einsum_product,
    local_weakstar_gap,
    mean_energy_exact,
    shannon_entropy_exact,
    specification_ball,
    transfer_reference_marginal,
    uniform_bound_by_loop,
    uniform_bound_conditionings,
)

Z1, Z2 = groups.zd(1), groups.zd(2)
HC1 = hardcore(1, 1.0)


def test_specification_ball_examples():
    st, pot = HC1
    d = specification_ball(st, pot, Z1, 0, Pattern(((-1,), (1,)), (0, 0)))
    assert d.table == {(0,): 0.5, (1,): 0.5}
    d2 = specification_ball(st, pot, Z1, 0, Pattern(((-1,), (1,)), (1, 0)))
    assert d2.table == {(0,): 1.0}
    fs = full_shift(2, 1)
    d3 = specification_ball(fs, zero_potential(2, 1), Z1, 1, Pattern(((-2,), (2,)), (0, 1)))
    assert all(p == pytest.approx(1 / 8) for p in d3.table.values())
    d.check_normalized()
    d3.check_normalized()


def test_specification_ball_requires_full_shell():
    st, pot = HC1
    with pytest.raises(ValueError):
        specification_ball(st, pot, Z1, 1, Pattern(((-2,),), (0,)))


def test_exact_gibbs_tables():
    sp = DerivedSpace(soficmaps.build_torus(1, 4), *HC1)
    t = derived_gibbs_exact(sp)
    assert len(t.probs) == 7
    assert np.allclose(t.probs, 1 / 7)
    assert abs(t.probs.sum() - 1.0) < 1e-12
    st2, pot2 = hardcore(1, 2.0)
    t2 = derived_gibbs_exact(DerivedSpace(soficmaps.build_torus(1, 3), st2, pot2))
    assert sorted(np.round(t2.probs, 12).tolist()) == pytest.approx([1 / 7, 2 / 7, 2 / 7, 2 / 7])
    fs = DerivedSpace(soficmaps.build_torus(1, 2), full_shift(2, 1), zero_potential(2, 1))
    assert np.allclose(derived_gibbs_exact(fs).probs, 1 / 4)


def test_entropy_values():
    sp = DerivedSpace(soficmaps.build_torus(1, 4), *HC1)
    assert shannon_entropy_exact(sp) == pytest.approx(math.log(7), abs=1e-12)
    fs = DerivedSpace(soficmaps.build_torus(1, 10), full_shift(2, 1), zero_potential(2, 1))
    assert shannon_entropy_exact(fs) == pytest.approx(10 * math.log(2), abs=1e-12)
    st2, pot2 = hardcore(1, 2.0)
    t2 = derived_gibbs_exact(DerivedSpace(soficmaps.build_torus(1, 3), st2, pot2))
    expect = -(1 / 7) * math.log(1 / 7) - 3 * (2 / 7) * math.log(2 / 7)
    assert shannon_entropy_exact(t2.space, t2) == pytest.approx(expect, abs=1e-12)


def random_safe_model(rng, n_generators=2):
    """A random constraint structure with a safe symbol plus random weights."""
    from soficlab.constraints import ConstraintStructure, Potential

    a = int(rng.integers(2, 4))
    allowed = rng.random((n_generators, a, a)) < 0.6
    allowed[:, 0, :] = True
    allowed[:, :, 0] = True
    st = ConstraintStructure(a, allowed)
    pot = Potential(rng.normal(0, 0.7, a), rng.normal(0, 0.4, (n_generators, a, a)))
    return st, pot


def test_equilibrium_identity_random_models():
    """log Z_n = H(mu_n) + E[H*_n] exactly, on randomly weighted safe models."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        st, pot = random_safe_model(rng)
        sp = DerivedSpace(soficmaps.build_torus(2, 3), st, pot)
        t = derived_gibbs_exact(sp)
        lhs = t.log_Z
        rhs = shannon_entropy_exact(sp, t) + mean_energy_exact(t)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def _colourings(n: int) -> DerivedSpace:
    """Weighted proper 3-colourings of the n-cycle: there is no safe
    symbol, so the window filter of `derived_gibbs_exact` runs at every vertex."""
    st = ConstraintStructure(3, ~np.eye(3, dtype=bool)[None])
    return DerivedSpace(soficmaps.build_torus(1, n), st, Potential(np.array([0.0, 0.2, -0.1]), np.zeros((1, 3, 3))))


STREAMED_CASES = {
    "hardcore-Z2-4x4": lambda: DerivedSpace(soficmaps.build_torus(2, 4), *hardcore(2, 2.5)),
    "hardcore-F2-12": lambda: DerivedSpace(soficmaps.build_random_perm(2, 12, seed=3), *hardcore(2, 2.5)),
    "hardcore-F2-18": lambda: DerivedSpace(soficmaps.build_random_perm(2, 18, seed=1), *hardcore(2, 0.6)),
    "weighted-Z2-3x3": lambda: DerivedSpace(soficmaps.build_torus(2, 3), *random_safe_model(np.random.default_rng(5))),
    "colourings-Z1-12": lambda: _colourings(12),
}


@pytest.mark.parametrize("case", sorted(STREAMED_CASES))
def test_streamed_exact_pass_is_the_table(case):
    """The one exact pass of `partition_exact`, with no table, gives the
    entropy log Z - E[energy] and the mean energy of the full table to
    1e-12, and log Z itself."""
    sp = STREAMED_CASES[case]()
    assert (sp.safe_symbol is None) == case.startswith("colourings")
    res = finitemodel.partition_exact(sp)
    t = derived_gibbs_exact(sp)
    assert res.log_Z == pytest.approx(t.log_Z, abs=1e-12)
    assert res.log_Z - res.mean_energy == pytest.approx(shannon_entropy_exact(sp, t), abs=1e-12)
    assert res.mean_energy == pytest.approx(mean_energy_exact(t), abs=1e-12)


@pytest.mark.parametrize("case", sorted(STREAMED_CASES))
def test_streamed_exact_pass_keeps_the_einsum_bytes(case):
    """log Z and the mean energy of the exact pass are the same bytes with
    the elimination's final step as the einsum it was."""
    sp = STREAMED_CASES[case]()
    res = finitemodel.partition_exact(sp)
    with mock.patch.object(enumeration, "_product", einsum_product):
        expect = finitemodel.partition_exact(sp)
    assert (repr(res.log_Z), repr(res.mean_energy)) == (repr(expect.log_Z), repr(expect.mean_energy))


def test_empty_derived_space_has_no_table():
    """The checkerboard on the 3-cycle has no configuration: the exact pass
    gives log Z = -inf, and the table is a typed error, not numpy's
    ValueError on an empty reduction."""
    sp = DerivedSpace(soficmaps.build_torus(1, 3), checkerboard(1), zero_potential(2, 1))
    assert finitemodel.partition_exact(sp).log_Z == -math.inf
    with pytest.raises(EmptyFiberError):
        derived_gibbs_exact(sp)


def test_specification_pullback_matches_exact_conditional():
    """The derived conditional on a pulled-back window equals the group-side
    specification with the pulled-back boundary (all vertices window-good)."""
    st, pot = hardcore(1, 2.0)
    sp = DerivedSpace(soficmaps.build_torus(1, 10), st, pot)
    t = derived_gibbs_exact(sp)
    v = 3
    r = 1
    b = groups.ball(Z1, r)
    window = [sigma_word(sp.sm.perms, g, v) for g in b.elements]
    shell = groups.boundary_shell(Z1, r)
    shell_verts = [sigma_word(sp.sm.perms, g, v) for g in shell]
    rng = np.random.default_rng(4)
    for _ in range(5):
        # pick an admissible boundary condition from a configuration in X^n
        y = t.configs[rng.integers(len(t.configs))]
        boundary = Pattern(shell, tuple(int(y[u]) for u in shell_verts))
        spec_dist = specification_ball(st, pot, Z1, r, boundary)
        # conditional of mu_n given the boundary vertices' values
        keep = np.ones(len(t.configs), bool)
        for g_el, u in zip(shell, shell_verts):
            keep &= t.configs[:, u] == y[u]
        sub = t.probs[keep] / t.probs[keep].sum()
        derived = {}
        for p, cfg in zip(sub, t.configs[keep]):
            key = tuple(int(cfg[u]) for u in window)
            derived[key] = derived.get(key, 0.0) + float(p)
        for key, p in derived.items():
            assert p == pytest.approx(spec_dist.table.get(key, 0.0), abs=1e-9)


def test_gibbs_maximality():
    """No distribution on X^n beats mu_n for entropy + mean energy."""
    rng = np.random.default_rng(3)
    sp = DerivedSpace(soficmaps.build_torus(1, 8), *hardcore(1, 2.0))
    t = derived_gibbs_exact(sp)
    energies = np.array([derived_energy(sp, x) for x in t.configs])
    best = float(np.sum(np.where(t.probs > 0, -t.probs * np.log(t.probs), 0)) + t.probs @ energies)
    for _ in range(100):
        w = rng.dirichlet(np.full(len(t.probs), 0.3))
        val = float(np.sum(np.where(w > 0, -w * np.log(w), 0.0)) + w @ energies)
        assert val <= best + 1e-9


def test_sampler_hits_exact_frequencies():
    sp = DerivedSpace(soficmaps.build_torus(1, 4), *HC1)
    t = derived_gibbs_exact(sp)
    samples = sample_derived_gibbs(sp, sweeps=50, seed=5, n_samples=4000, thin=2)
    codes = samples @ (2 ** np.arange(4))
    table_codes = t.configs @ (2 ** np.arange(4))
    for code, p in zip(table_codes, t.probs):
        freq = float(np.mean(codes == code))
        se = math.sqrt(p * (1 - p) / len(samples))
        assert abs(freq - p) < 5 * se + 0.01


def test_sampler_full_shift_single_sweep_exact():
    fs = DerivedSpace(soficmaps.build_torus(1, 6), full_shift(2, 1), zero_potential(2, 1))
    samples = sample_derived_gibbs(fs, sweeps=1, seed=1, n_samples=3000, thin=1)
    freq = samples.mean()
    assert abs(freq - 0.5) < 0.02


def test_lambda_small_concentrates_on_empty():
    st, pot = hardcore(1, 1e-4)
    sp = DerivedSpace(soficmaps.build_torus(1, 8), st, pot)
    samples = sample_derived_gibbs(sp, sweeps=30, seed=2, n_samples=300, thin=1)
    assert samples.mean() < 0.01


def test_local_weakstar_exact_and_sampled():
    st, pot = HC1
    ref = transfer_reference_marginal(st, pot, Z1, 1)
    ref.check_normalized(1e-9)
    fractions = []
    for m in (8, 16):
        sp = DerivedSpace(soficmaps.build_torus(1, m), st, pot)
        fractions.append(local_weakstar_gap(sp, ref, 1, 0.01, ("exact",)))
    sp32 = DerivedSpace(soficmaps.build_torus(1, 32), st, pot)
    fractions.append(local_weakstar_gap(sp32, ref, 1, 0.01, ("sampled", 40_000, 2, 100, 7)))
    assert fractions[0] >= fractions[1] >= fractions[2]
    assert fractions[-1] < 0.05


def test_local_weakstar_trivial_cases():
    fs_st, fs_pot = full_shift(2, 1), zero_potential(2, 1)
    sp = DerivedSpace(soficmaps.build_torus(1, 10), fs_st, fs_pot)
    uniform = {w: 1 / 8 for w in itertools.product((0, 1), repeat=3)}
    ref = BallDistribution(Z1, 1, uniform)
    assert local_weakstar_gap(sp, ref, 1, 0.01, ("exact",)) == 0.0
    # eps >= 1 always gives fraction 0
    st, pot = HC1
    sp2 = DerivedSpace(soficmaps.build_torus(1, 8), st, pot)
    junk = BallDistribution(Z1, 1, {(0, 0, 0): 1.0})
    assert local_weakstar_gap(sp2, junk, 1, 1.0, ("exact",)) == 0.0


def test_ssm_profile_decay_and_regression():
    st, pot = HC1
    prof = ssm_profile(st, pot, Z1, 6)
    assert all(prof[i] > prof[i + 1] for i in range(len(prof) - 1))
    assert prof[4] < 0.01  # beta(5)
    assert prof[0] == pytest.approx(0.3, abs=1e-12)  # frozen: 1/2 - 1/5
    prof_enum = [gibbs._beta_enumeration(st, pot, Z1, r) for r in range(1, 5)]
    assert np.allclose(prof[:4], prof_enum, atol=1e-12)


def test_ssm_profile_full_shift_zero():
    prof = ssm_profile(full_shift(2, 1), zero_potential(2, 1), Z1, 4)
    assert np.allclose(prof, 0.0, atol=1e-12)


def test_ssm_profile_checkerboard_line():
    """Half of the boundaries of the period-2 line have mass zero; the
    transfer route skips them as the enumeration route does."""
    st, pot = checkerboard(1), zero_potential(2, 1)
    transfer = ssm_profile(st, pot, Z1, 4)
    assert list(transfer) == [gibbs._beta_enumeration(st, pot, Z1, r) for r in range(1, 5)] == [1.0] * 4


def test_ssm_profile_enumeration_z2():
    st, pot = hardcore(2, 1.0)
    prof = ssm_profile(st, pot, Z2, 1)
    assert prof.shape == (1,) and 0 < prof[0] < 1


def test_ssm_profile_budget_counts_the_whole_alphabet():
    # symbol 2 has no successor along e1, so it is not a core symbol, but the
    # joint table of the center and the shell still carries it on the shell
    allowed = np.ones((2, 3, 3), dtype=bool)
    allowed[0, 2, :] = False
    st, pot = ConstraintStructure(3, allowed), zero_potential(3, 2)
    assert core_symbols(st) == (0, 1)
    assert ssm_profile(st, pot, Z2, 1).shape == (1,)  # 3^8 boundary patterns
    with pytest.raises(BudgetExceededError):
        ssm_profile(st, pot, Z2, 2)  # 3^12 patterns, of which only 2^12 are core-valued


def test_ssm_profile_without_r_max_stops_at_the_budget(monkeypatch):
    """Without r_max the enumeration route stops before the first shell past
    SSM_BOUNDARY_PATTERNS and at SSM_RMAX radii; a budget that refuses
    r = 1 still raises."""
    st, pot = hardcore(2, 1.0)
    assert ssm_profile(st, pot, Z2).tolist() == ssm_profile(st, pot, Z2, 2).tolist()
    monkeypatch.setattr(gibbs, "SSM_RMAX", 1)
    assert ssm_profile(st, pot, Z2).shape == (1,)
    monkeypatch.setattr(gibbs, "SSM_BOUNDARY_PATTERNS", 2**7)
    with pytest.raises(BudgetExceededError, match="2\\^8 boundary patterns at r=1"):
        ssm_profile(st, pot, Z2)


def test_ssm_profile_enumeration_is_pinned(monkeypatch):
    """beta(r) read in place from the dense elimination table: bitwise the
    figures recorded when it was read through a dict of value tuples, on
    hardcore (F_2, Z^2) and on a three-symbol model whose symbol 2 is
    outside the core."""
    allowed = np.ones((2, 3, 3), dtype=bool)
    allowed[:, 1, 1] = False
    allowed[0, 2, :] = False
    st = ConstraintStructure(3, allowed)
    J = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, -0.5], [0.1, -0.5, 0.3]])
    pot = Potential(np.array([0.0, 0.4, -0.3]), np.array([J, J]))
    assert ssm_profile(*hardcore(2, 0.3), groups.free(2), 1).tolist() == [0.13571520839985096]
    assert ssm_profile(*hardcore(2, 1.0), Z2, 2).tolist() == [15 / 34, 0.31272944591479546]
    monkeypatch.setattr(gibbs, "SSM_BOUNDARY_PATTERNS", 3**12)
    assert ssm_profile(st, pot, Z2, 2).tolist() == [0.7590830572601426, 0.7244907294914447]
    assert ssm_profile(st, pot, groups.free(2), 1).tolist() == [0.7590830572601427]


def _random_model(a: int, k: int, seed: int):
    """An a-symbol model on k generators with a random potential and a
    relation that forbids one pair per generator and leaves the last
    symbol out of the core."""
    rng = np.random.default_rng(seed)
    allowed = np.ones((k, a, a), dtype=bool)
    allowed[:, 0, 1] = False
    allowed[:, :, a - 1] = False  # no symbol is followed by a - 1: a dead end
    return ConstraintStructure(a, allowed), Potential(rng.normal(size=a), rng.normal(size=(k, a, a)) * 0.5)


@pytest.mark.parametrize("a, spec, r, seed", [(3, Z2, 1, 0), (3, groups.free(2), 1, 0), (9, Z1, 1, 0), (9, Z1, 2, 1),
                                              (16, Z1, 1, 0)])
def test_beta_is_the_row_read_of_its_table(a, spec, r, seed):
    """beta(r) read from the joint table by rows per center symbol is the
    same bytes as read by one row per boundary, with symbols outside the
    core, and past the 8-term sums that numpy adds pairwise: at the seeds
    on Z^1, boundary totals added in sequence instead change beta's last
    bits."""
    structure, potential = _random_model(a, spec.n_generators, seed)
    assert core_symbols(structure) != tuple(range(a))
    beta = gibbs._beta_enumeration(structure, potential, spec, r)
    assert repr(beta) == repr(beta_by_rows(structure, potential, spec, r))


def test_uniform_bound_and_ising_profile_are_pinned():
    """c on B_1 by the `auto` oracle at pad 3 (the ball oracle on Z^2, the
    SAW oracle on F_2 hardcore) and beta on Z^2 Ising with a field: bitwise
    the figures recorded before the elimination tables were built once per
    generator."""
    assert uniform_bound_c(*hardcore(2, 1.0), Z2, 1).c_hat == 0.14060167642668506
    assert uniform_bound_c(*hardcore(2, 0.3), groups.free(2), 1).c_hat == 0.13729584545140175
    J = np.array([[0.3, -0.3], [-0.3, 0.3]])
    st, pot = full_shift(2, 2), Potential(np.array([0.0, 0.1]), np.array([J, J]))
    assert ssm_profile(st, pot, Z2, 2).tolist() == [0.6867276119982334, 0.5296633637985007]
    assert uniform_bound_c(st, pot, Z2, 1).c_hat == 0.07585818002124356


def test_f2_ising_beta_and_c_are_pinned():
    """On F_2 Ising c on B_1 asks the ball oracle at pad 3 for B_4 (161
    sites, a tree), bounded by the elimination plan alone since the 45-site
    limit went; beta(1) is the budget's other half."""
    J = np.array([[0.3, -0.3], [-0.3, 0.3]])
    st, pot = full_shift(2, 2), Potential(np.array([0.0, 0.1]), np.array([J, J]))
    F2 = groups.free(2)
    assert ssm_profile(st, pot, F2, 1).tolist() == [0.6867276119982335]
    assert uniform_bound_c(st, pot, F2, 1).c_hat == 0.07585818002124356


def test_uniform_bound():
    st, pot = HC1
    ub = uniform_bound_c(st, pot, Z1, 2)
    assert ub.c_hat == pytest.approx(0.2, abs=1e-12)  # frozen: empty pins at +-2
    assert ub.satisfies_formula
    fs = uniform_bound_c(full_shift(2, 1), zero_potential(2, 1), Z1, 1)
    assert fs.c_hat == pytest.approx(0.5, abs=1e-12)
    ub2 = uniform_bound_c(*hardcore(2, 1.0), Z2, 1)
    assert ub2.satisfies_formula and 0 < ub2.c_hat <= 0.5


@pytest.mark.parametrize("lam", [1.0, 3.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_uniform_bound_free1_equals_line(lam, r):
    # F_1 is the line: a word of length n sits at offset +-n, not +-1
    st, pot = hardcore(1, lam)
    line = uniform_bound_c(st, pot, Z1, r)
    f1 = uniform_bound_c(st, pot, groups.free(1), r)
    assert f1.c_hat == line.c_hat
    assert f1.witness == line.witness  # ball-order indices on both groups


@pytest.mark.parametrize("r", [1, 2])
def test_transfer_reference_marginal_free1_equals_line(r):
    st, pot = hardcore(1, 2.0)
    assert transfer_reference_marginal(st, pot, groups.free(1), r).table == \
        transfer_reference_marginal(st, pot, Z1, r).table


def test_uniform_bound_skips_inadmissible_conditionings_on_free2(monkeypatch):
    # B_2 of F_2 holds adjacent non-center sites; pinning two of them occupied
    # is inadmissible and skipped instead of reaching the SAW oracle
    F2 = groups.free(2)
    st, pot = hardcore(2, 0.3)
    monkeypatch.setattr(gibbs, "UNIFORM_BOUND_SUBSETS", 64)
    c2 = uniform_bound_c(st, pot, F2, 2).c_hat
    assert math.isfinite(c2) and 0.0 < c2 <= uniform_bound_c(st, pot, F2, 1).c_hat


ISING_J = np.array([[0.3, -0.3], [-0.3, 0.3]])
UNIFORM_BOUND_CASES = {
    "hardcore-Z1-r2": (hardcore(1, 1.0), Z1, 2),
    "hardcore-Z2-r1": (hardcore(2, 1.0), Z2, 1),
    "hardcore-F2-r1": (hardcore(2, 0.3), groups.free(2), 1),
    "ising-F2-r1": ((full_shift(2, 2), Potential(np.array([0.0, 0.1]), np.array([ISING_J, ISING_J]))),
                    groups.free(2), 1),
}


def _batches(monkeypatch, oracle=None):
    """The (rows, masks) of each batch that `gibbs`'s oracles are asked,
    answered by the oracle `gibbs.make_oracle` makes, or by `oracle`."""
    asked = []
    make = gibbs.make_oracle

    class Recorded:
        def __init__(self, *args, **kwargs):
            self.inner = oracle or make(*args, **kwargs)

        def batch(self, rows, masks):
            asked.append((rows.dtype, rows.shape, hashlib.sha256(rows).hexdigest(),
                          masks.dtype, masks.shape, hashlib.sha256(masks).hexdigest()))
            return self.inner.batch(rows, masks)

    monkeypatch.setattr(gibbs, "make_oracle", Recorded)
    return asked


@pytest.mark.parametrize("case", sorted(UNIFORM_BOUND_CASES))
def test_uniform_bound_is_the_loop_over_conditionings(case, monkeypatch):
    """c_hat and its witness, and the rows and masks of the oracle's batch,
    are those of the conditionings built one at a time."""
    model, spec, r = UNIFORM_BOUND_CASES[case]
    asked = _batches(monkeypatch)
    ub = uniform_bound_c(*model, spec, r)
    c_hat, witness = uniform_bound_by_loop(*model, spec, r)
    assert (repr(ub.c_hat), ub.witness) == (repr(c_hat), witness)
    assert len(asked) == 2 and asked[0] == asked[1]


class _StubOracle:
    """Conditionals of no model, a fixed function of each row's pins: the
    conditionings of a large ball without the cost of their eliminations."""

    def batch(self, rows, masks):
        return ((rows * masks * np.arange(1, rows.shape[1] + 1)).sum(axis=1) % 11 + 1) / 12.0


@pytest.mark.parametrize("subsets", [700, gibbs.UNIFORM_BOUND_SUBSETS])
def test_uniform_bound_conditionings_on_z2_b2(subsets, monkeypatch):
    """On B_2 of Z^2 (12 pinnable sites, adjacent ones among them) the rows
    and masks asked, c_hat and its witness are those of the conditionings
    built one at a time, with the subsets cut at 700, inside size 4, and at
    UNIFORM_BOUND_SUBSETS, all 4,096 (188,944 conditionings); the oracle is
    a stub."""
    monkeypatch.setattr(gibbs, "UNIFORM_BOUND_SUBSETS", subsets)
    asked = _batches(monkeypatch, _StubOracle())
    ub = uniform_bound_c(*hardcore(2, 1.0), Z2, 2)
    c_hat, witness = uniform_bound_by_loop(*hardcore(2, 1.0), Z2, 2)
    assert (repr(ub.c_hat), ub.witness) == (repr(c_hat), witness)
    assert len(asked) == 2 and asked[0] == asked[1]
    assert subsets < 4096 or asked[0][1] == (188_944 * 2, 13)


def test_uniform_bound_ball_branch_eliminates_once_per_conditioning():
    # the four neighbours of the Z^2 center are pairwise non-adjacent, so all
    # 3^4 core-valued conditionings are admissible; the two center symbols of
    # each share one elimination
    calls = []
    site_marginal = enumeration.site_marginal

    def counted(*args, **kwargs):
        calls.append(1)
        return site_marginal(*args, **kwargs)

    with mock.patch.object(enumeration, "site_marginal", counted):
        uniform_bound_c(*hardcore(2, 1.0), Z2, 1)
    assert len(calls) == 81


def test_ssm_coupling_proxy():
    """Where the profile is tiny, chains from opposite extremes agree in law."""
    st, pot = HC1
    sp = DerivedSpace(soficmaps.build_torus(1, 16), st, pot)
    prof = ssm_profile(st, pot, Z1, 8)
    assert prof[-1] < 1e-2
    from soficlab.sampling import GlauberEngine

    engine = GlauberEngine(sp.sm, st, pot)
    rng1 = Pcg64(1)
    rng2 = Pcg64(2)
    x_lo = engine.initial_state(0)
    x_hi = np.array([1, 0] * 8, dtype=np.int8)  # maximal admissible
    occ_lo = occ_hi = 0.0
    n_meas = 400
    for _ in range(n_meas):
        engine.sweeps(x_lo, 2, rng1)
        engine.sweeps(x_hi, 2, rng2)
        occ_lo += x_lo.mean()
        occ_hi += x_hi.mean()
    assert abs(occ_lo - occ_hi) / n_meas < 0.02


def test_entropy_rate_estimate_transfer():
    st, pot = HC1
    rows = size_sweep("entropy", st, pot, {"builder": "torus", "d": 1}, [16, 64])
    assert rows[-1]["entropy_rate"] == pytest.approx(golden_pressure(), abs=1e-4)
    st2, pot2 = hardcore(1, 2.0)
    rows2 = size_sweep("entropy", st2, pot2, {"builder": "torus", "d": 1}, [64])
    assert rows2[0]["entropy_rate"] == pytest.approx((2 / 3) * math.log(2), abs=1e-6)
    fs_rows = size_sweep(
        "entropy", full_shift(2, 1), zero_potential(2, 1), {"builder": "torus", "d": 1}, [8, 12], method="exact"
    )
    for row in fs_rows:
        assert row["entropy_rate"] == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_rate_estimate_cycles_route():
    st, pot = hardcore(1, 2.0)
    rows = size_sweep(
        "entropy", st, pot, {"builder": "random_perm", "k": 1, "seed": 7}, [14], method="cycles"
    )
    sp = DerivedSpace(soficmaps.build_random_perm(1, 14, seed=7), st, pot)
    assert rows[0]["entropy_rate"] == pytest.approx(shannon_entropy_exact(sp) / 14, abs=1e-12)
    folner = size_sweep("entropy", st, pot, {"builder": "folner", "d": 1}, [64])
    assert folner[0]["method"] == "cycles"
    assert folner[0]["entropy_rate"] == pytest.approx((2 / 3) * math.log(2), abs=1e-9)



def test_cycle_sweeps_build_the_transfer_matrix_once(monkeypatch):
    """The transfer matrix depends only on the model, so a sweep of the
    cycles route over Z^1 tori of 8, 16 and 32 sites builds it once, for
    the entropy and for the pressure, and the rows are those of a matrix
    built per size."""
    from soficlab import transfer

    st, pot = HC1
    builder, sizes = {"builder": "torus", "d": 1}, [8, 16, 32]
    expect = {experiment: size_sweep(experiment, st, pot, builder, sizes) for experiment in ("entropy", "pressure")}
    calls = []

    def counted(*args):
        calls.append(args)
        return transfer.build_transfer(*args)

    monkeypatch.setattr(finitemodel, "build_transfer", counted)
    for k, experiment in enumerate(("entropy", "pressure"), 1):
        assert size_sweep(experiment, st, pot, builder, sizes) == expect[experiment]
        assert len(calls) == k
    assert [row["method"] for row in expect["entropy"]] == ["cycles"] * 3

def test_entropy_rate_estimate_mcmc_route(monkeypatch):
    st, pot = hardcore(1, 2.0)
    monkeypatch.setattr(finitemodel, "ENERGY_SAMPLES", 400)
    rows = size_sweep(
        "entropy",
        st,
        pot,
        {"builder": "torus", "d": 1},
        [48],
        method="mcmc",
        seed=3,
        mcmc_kwargs={"samples_per_point": 1500, "grid_points": 48},
    )
    row = rows[0]
    assert abs(row["entropy_rate"] - (2 / 3) * math.log(2)) < 3 * row["stderr"] + 0.01


def test_lem_ssm1_numeric_form():
    """Conditionals whose conditioning sets agree inside B_r differ by at most
    3 beta(r) (numeric instance of the screening estimate)."""
    st, pot = HC1
    from soficlab.transfer import build_transfer

    tm = build_transfer(st, pot)
    prof = ssm_profile(st, pot, Z1, 6)
    rng = np.random.default_rng(8)

    def admissible(pins):
        offs = sorted(pins)
        return all(
            not (pins[a] == 1 and pins[b] == 1 and b - a == 1) for a, b in zip(offs, offs[1:])
        )

    checked = 0
    while checked < 200:
        r = int(rng.integers(1, 6))
        shared = {}
        for off in range(-r, r + 1):
            if off != 0 and rng.random() < 0.5:
                shared[off] = int(rng.integers(0, 2))
        far_y = dict(shared)
        far_z = dict(shared)
        for side in (-1, 1):
            d = int(rng.integers(r + 1, r + 4))
            if rng.random() < 0.7:
                far_y[side * d] = int(rng.integers(0, 2))
            d2 = int(rng.integers(r + 1, r + 4))
            if rng.random() < 0.7:
                far_z[side * d2] = int(rng.integers(0, 2))
        if not (admissible(far_y) and admissible(far_z)):
            continue
        checked += 1
        p_y = tm.conditional_center(far_y)
        p_z = tm.conditional_center(far_z)
        assert np.max(np.abs(p_y - p_z)) <= 3 * prof[r - 1] + 1e-12