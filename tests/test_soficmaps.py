import numpy as np
import pytest

from soficlab import groups, soficmaps

from oracles import sigma_word

Z1, Z2 = groups.zd(1), groups.zd(2)


def test_torus_cycle():
    sm = soficmaps.build_torus(1, 4)
    assert sm.perms[0].tolist() == [1, 2, 3, 0]
    assert sigma_word(sm.perms, (3,), 2) == 1  # 2 + 3 mod 4


def test_torus_commutes_exactly():
    sm = soficmaps.build_torus(2, 3)
    a, b = sm.perms
    assert np.array_equal(a[b], b[a])
    # both letter orders agree for g = (1,1)
    v = np.arange(9)
    assert np.array_equal(sm.sigma_array((1, 1)), a[b[v]])


def test_sigma_word_identity_and_shift():
    sm = soficmaps.build_torus(1, 8)
    assert sigma_word(sm.perms, (0,), 5) == 5
    assert sigma_word(sm.perms, (3,), 2) == 5



@pytest.mark.parametrize("sm,free", [
    (soficmaps.build_folner_box(2, 4), False),  # its generators do not commute
    (soficmaps.build_random_perm(2, 12, seed=3), True),
], ids=["folner-z2", "random-f2"])
def test_sigma_array_is_the_per_vertex_word_action(sm, free):
    """sigma_array(g) against the tests' one-step-at-a-time action of g's
    word on each vertex, over B_2."""
    for g in groups.ball(sm.spec, 2).elements:
        assert sm.sigma_array(g).tolist() == [sigma_word(sm.perms, g, v, free=free) for v in range(sm.n)]

def test_torus_word_multiplicativity():
    sm = soficmaps.build_torus(2, 8)
    rng = np.random.default_rng(0)
    els = groups.ball(Z2, 3).elements
    for _ in range(30):
        g = els[rng.integers(len(els))]
        h = els[rng.integers(len(els))]
        if groups.word_length(Z2, g) + groups.word_length(Z2, h) > 3:
            continue
        gh = groups.mul(Z2, g, h)
        assert np.array_equal(sm.sigma_array(g)[sm.sigma_array(h)], sm.sigma_array(gh))


def test_permutation_validity_and_inverse_coherence():
    for sm in (soficmaps.build_torus(2, 4), soficmaps.build_folner_box(2, 4),
               soficmaps.build_random_perm(2, 50, seed=5)):
        for s in range(sm.n_generators):
            assert sorted(sm.perms[s].tolist()) == list(range(sm.n))
            assert np.array_equal(sm.perms_inv[s][sm.perms[s]], np.arange(sm.n))


def test_goodness_torus():
    sm8 = soficmaps.build_torus(1, 8)
    assert soficmaps.good_vertices(sm8, groups.ball(Z1, 3)).fraction == 1.0
    sm4 = soficmaps.build_torus(1, 4)
    assert soficmaps.good_vertices(sm4, groups.ball(Z1, 2)).fraction == 0.0


def test_goodness_monotone_in_window():
    sm = soficmaps.build_random_perm(2, 300, seed=2)
    f = groups.free(2)
    g1 = set(soficmaps.good_vertices(sm, groups.ball(f, 1)).good_vertices.tolist())
    g2 = set(soficmaps.good_vertices(sm, groups.ball(f, 2)).good_vertices.tolist())
    assert g2 <= g1


def test_goodness_asymptotic_tori():
    fracs = [
        soficmaps.good_vertices(soficmaps.build_torus(1, m), groups.ball(Z1, 3)).fraction
        for m in (4, 8, 16, 32)
    ]
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1.0
    assert all(f == 1.0 for m, f in zip((4, 8, 16, 32), fracs) if m >= 8)  # m >= 2r+2


def test_folner_box_values():
    # d = 1: the wrap bijection is forced, so the box coincides with the torus
    smf = soficmaps.build_folner_box(1, 8)
    smt = soficmaps.build_torus(1, 8)
    assert np.array_equal(smf.perms, smt.perms)
    assert soficmaps.good_vertices(smf, groups.ball(Z1, 2)).fraction == 1.0
    # d = 2: reversal wrap; good set is the depth-2 interior
    for m in (6, 8, 12):
        frac = soficmaps.good_vertices(
            soficmaps.build_folner_box(2, m), groups.ball(Z2, 1)
        ).fraction
        assert frac == pytest.approx((m - 4) ** 2 / m**2)


def test_folner_fraction_grows():
    fracs = [
        soficmaps.good_vertices(soficmaps.build_folner_box(2, m), groups.ball(Z2, 1)).fraction
        for m in (6, 12, 24)
    ]
    assert fracs == sorted(fracs) and fracs[-1] > 0.6


def test_random_perm_goodness_pinned():
    sm = soficmaps.build_random_perm(2, 10_000, seed=1)
    rep = soficmaps.good_vertices(sm, groups.ball(groups.free(2), 1))
    assert rep.fraction >= 0.95
    assert rep.fraction == 1.0  # frozen for this seed


def test_random_perm_single_cycle():
    sm = soficmaps.build_random_perm(1, 40, seed=3)
    perm = sm.perms[0]
    seen = np.zeros(40, bool)
    cycles = 0
    for v in range(40):
        if not seen[v]:
            cycles += 1
            while not seen[v]:
                seen[v] = True
                v = perm[v]
    assert cycles == 1
    assert not np.any(perm == np.arange(40))


def test_random_perm_determinism():
    a = soficmaps.build_random_perm(2, 100, seed=9)
    b = soficmaps.build_random_perm(2, 100, seed=9)
    assert np.array_equal(a.perms, b.perms)


def test_good_vertices_defects():
    rep = soficmaps.good_vertices(soficmaps.build_torus(2, 8), groups.ball(Z2, 2))
    assert rep.multiplicative_defect == 0.0 and rep.trace_defect == 0.0
    rep = soficmaps.good_vertices(soficmaps.build_torus(1, 3), groups.ball(Z1, 3))
    assert rep.trace_defect == 1.0  # e1^3 fixes everything
    rep = soficmaps.good_vertices(soficmaps.build_torus(1, 4), groups.ball(Z1, 0))
    assert rep.trace_defect == 0.0  # F = {identity}: the trace condition excludes the identity


def test_degenerate_small_map():
    sm = soficmaps.build_random_perm(1, 2, seed=0)
    rep = soficmaps.good_vertices(sm, groups.ball(groups.free(1), 1))
    assert 0.0 <= rep.fraction <= 1.0


@pytest.mark.parametrize("row", [[0, 1, 1, 3], [0, 1, 2, 4], [0, 1, 2, 10**15], [0, 1, 2, -1], [0, 1, 2],
                                 [0, 1, 2, 3, 4]],
                         ids=["repeated", "equal-to-n", "far-past-n", "negative", "short", "long"])
def test_a_generator_that_is_not_a_permutation_is_refused(row):
    assert soficmaps.SoficMap(Z1, 4, [[1, 2, 3, 0]], {}).perms_inv.tolist() == [[3, 0, 1, 2]]
    with pytest.raises(ValueError, match="^generator 0 is not a permutation$"):
        soficmaps.SoficMap(Z1, 4, [row], {})
