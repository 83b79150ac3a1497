import numpy as np
import pytest

from soficlab import groups, soficmaps
from soficlab.pasts import (
    PastSample,
    coupling_check,
    lex_past,
    lex_past_mask,
    pulled_back_past,
    sample_percolation_masks,
    sample_percolation_past,
    sample_vertex_order,
)

Z1, Z2 = groups.zd(1), groups.zd(2)


def test_percolation_past_basics():
    p = sample_percolation_past(Z2, 0, seed=1)
    assert p.membership.tolist() == [False]
    p2 = sample_percolation_past(Z2, 2, seed=1)
    assert not p2.membership[0]
    # membership consistent with the stored uniforms
    chi = p2.uniforms
    assert np.array_equal(p2.membership[1:], chi[1:] < chi[0])


def test_percolation_past_statistics():
    rng = np.random.default_rng(0)
    masks = sample_percolation_masks(Z1, 2, 20_000, rng)
    L = masks.shape[1]
    # mean size (|B_r| - 1)/2 by rank exchangeability
    mean = masks.sum(axis=1).mean()
    expect = (L - 1) / 2
    se = masks.sum(axis=1).std() / np.sqrt(len(masks))
    assert abs(mean - expect) < 3 * se
    # each fixed non-identity site has probability 1/2
    for col in range(1, L):
        freq = masks[:, col].mean()
        assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(len(masks))


@pytest.mark.parametrize("chunk_floats", [1, 7, 2**16])
@pytest.mark.parametrize("n_samples", [0, 1, 13, 1003])
def test_percolation_masks_in_row_chunks_are_one_draw(chunk_floats, n_samples):
    """Masks drawn by consecutive calls of at most chunk_floats uniforms (one
    row at least), as the streamed estimators draw them, are one draw."""
    F2 = groups.free(2)
    L = len(groups.ball(F2, 2).elements)
    rng = np.random.default_rng(4)
    chi = rng.random((n_samples, L))
    expected = chi < chi[:, :1]
    expected[:, 0] = False
    chunked_rng = np.random.default_rng(4)
    rows = max(1, chunk_floats // L)
    masks = [sample_percolation_masks(F2, 2, min(rows, n_samples - lo), chunked_rng)
             for lo in range(0, n_samples, rows)]
    masks = np.concatenate(masks) if masks else sample_percolation_masks(F2, 2, 0, chunked_rng)
    assert masks.dtype == bool and np.array_equal(masks, expected)
    assert chunked_rng.random() == rng.random()  # the stream goes on where one draw leaves it


def test_percolation_transitivity_via_uniforms():
    p = sample_percolation_past(Z2, 2, seed=3)
    chi = p.uniforms
    order = np.argsort(chi)
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(chi))
    # u in past of v iff rank(u) < rank(v): transitive and total by construction
    for u in range(1, len(chi)):
        if p.membership[u]:
            assert ranks[u] < ranks[0]
        else:
            assert ranks[u] > ranks[0]


def test_lex_past():
    assert lex_past(Z2, (-1, 5))
    assert lex_past(Z2, (0, -1))
    assert not lex_past(Z2, (0, 0))
    assert not lex_past(Z2, (1, -7))
    mask = lex_past_mask(Z1, 3)
    b = groups.ball(Z1, 3)
    for g, m in zip(b.elements, mask):
        assert m == (g[0] < 0)


def test_lex_past_needs_zd():
    with pytest.raises(ValueError):
        lex_past(groups.free(2), (1,))


def test_vertex_order():
    sm = soficmaps.build_torus(1, 16)
    o1 = sample_vertex_order(sm, seed=4)
    o2 = sample_vertex_order(sm, seed=4)
    assert np.array_equal(o1.rank, o2.rank)
    assert sorted(o1.rank.tolist()) == list(range(16))


def test_vertex_order_uniformity():
    sm = soficmaps.build_torus(1, 8)
    counts = np.zeros((8, 8))
    for seed in range(400):
        o = sample_vertex_order(sm, seed=seed)
        counts[np.arange(8), o.rank] += 1
    # chi-square against uniform ranks
    expect = 400 / 8
    chi2 = ((counts - expect) ** 2 / expect).sum()
    # dof = 49; very loose threshold (p >> 0.001)
    assert chi2 < 120


def test_pulled_back_past_matches_diagonal_coupling():
    """At injective-window good vertices, the pulled-back past computed from
    shared uniforms equals the group-side percolation membership exactly."""
    sm = soficmaps.build_torus(1, 32)
    r = 3
    b = groups.ball(Z1, r)
    order = sample_vertex_order(sm, seed=9)
    for v in (0, 5, 17):
        images = [soficmaps.sigma_word(sm, g, v) for g in b.elements]
        chi_pulled = order.uniforms[images]
        group_side = PastSample(Z1, r, chi_pulled < chi_pulled[0], chi_pulled)
        group_side.membership[0] = False
        mask = pulled_back_past(sm, order, v, r)
        assert np.array_equal(mask, group_side.membership)


def test_pulled_back_past_trivia():
    sm = soficmaps.build_torus(1, 8)
    order = sample_vertex_order(sm, seed=2)
    v_min = int(np.argmin(order.rank))
    assert not pulled_back_past(sm, order, v_min, 2).any()
    assert not pulled_back_past(sm, order, 3, 0).any()


def test_coupling_check_values():
    assert coupling_check(soficmaps.build_torus(1, 8), 2) == 1.0
    assert coupling_check(soficmaps.build_torus(1, 4), 2) == 0.0
    frac = coupling_check(soficmaps.build_random_perm(2, 10_000, seed=1), 2)
    assert frac >= 0.9
    assert frac == pytest.approx(0.9927, abs=1e-12)  # frozen for seed=1
