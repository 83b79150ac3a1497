import numpy as np
import pytest

from soficlab import groups
from soficlab.pasts import lex_past, lex_past_mask, sample_percolation_masks

Z1, Z2 = groups.zd(1), groups.zd(2)


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
