"""Random pasts of the identity on a ball B_r.

The percolation past attaches i.i.d. uniforms to the sites of B_r and puts a
site in the past of the identity when its uniform is below the identity's (a
tie, a probability-zero event, leaves the site out);
`sample_percolation_masks` draws these masks in one call and
`percolation_chunks(patterns, n_inner, rng)` on the sites of each pattern in
bounded chunks of the same stream.  The lexicographic past on Z^d is the
deterministic algebraic order.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .groups import Element, GroupSpec


def sample_percolation_masks(spec: GroupSpec, r: int, n_samples: int, rng) -> np.ndarray:
    """(n_samples, |B_r|) membership masks; column 0 is the identity (always False).

    The uniforms are one draw of n_samples rows from rng, so a call holds
    float64 uniforms and the bool mask for its rows.  `percolation_chunks`
    draws the same stream in bounded chunks, and the compiled percolation
    kernels draw of it only the uniforms a row reads, each by an exact jump.
    """
    L = len(groups.ball(spec, r).elements)
    chi = rng.random((n_samples, L))
    masks = chi < chi[:, :1]
    masks[:, 0] = False
    return masks


# the bound on a chunk of random-past rows: at most this many uniforms (one
# row at least), so neither the uniforms, the masks, the value rows nor an
# oracle batch grows with the row count; the chunks are consecutive row
# blocks of one stream, so the bound changes no value
CHUNK_FLOATS = 2**16


def percolation_chunks(patterns: np.ndarray, n_inner: int, rng):
    """Yield (start, stop, rows, masks) over the n = len(patterns) * n_inner
    random-past rows: row i pairs patterns[i // n_inner] with the i-th
    percolation past on the pattern's L sites, B_r for a pattern on B_r.

    The masks of rows start..stop-1 are the next stop - start rows of
    `rng.random((n, L))`, as `sample_percolation_masks` draws them on B_r,
    and each chunk holds at most CHUNK_FLOATS uniforms.  rows is a broadcast
    view when the chunk lies inside one pattern's rows, else a copy.
    """
    n_patterns, L = patterns.shape
    n = n_patterns * n_inner
    step = max(1, CHUNK_FLOATS // L)
    for start in range(0, n, step):
        stop = min(start + step, n)
        chi = rng.random((stop - start, L))
        masks = chi < chi[:, :1]
        masks[:, 0] = False
        first, last = start // n_inner, (stop - 1) // n_inner
        if first == last:
            rows = np.broadcast_to(patterns[first], (stop - start, L))
        else:
            rows = patterns[np.arange(start, stop) // n_inner]
        yield start, stop, rows, masks


def lex_past(spec: GroupSpec, g: Element) -> bool:
    """Algebraic past of Z^d: true iff g is lexicographically negative."""
    if spec.kind != "zd":
        raise ValueError("lexicographic past is defined for Z^d")
    for a in g:
        if a < 0:
            return True
        if a > 0:
            return False
    return False


def lex_past_mask(spec: GroupSpec, r: int) -> np.ndarray:
    b = groups.ball(spec, r)
    return np.array([lex_past(spec, g) for g in b.elements])
