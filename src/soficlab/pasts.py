"""Random pasts of the identity on a ball B_r.

The percolation past attaches i.i.d. uniforms to the sites of B_r and puts a
site in the past of the identity when its uniform is below the identity's (a
tie, a probability-zero event, leaves the site out);
`sample_percolation_masks` draws these masks in one call and
`percolation_chunks` on the sites of each pattern in bounded chunks of the
same stream; `percolation_rows` hands a reader's conditionals over those
rows to a consumer, chunk by chunk.  The
lexicographic past on Z^d is the deterministic algebraic order.
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


# the bound on a chunk of random-past rows: at most this many floats, one
# row at least, so that neither the uniforms and masks of a chunk (one float
# per site of a row) nor a chunk of conditionals (one per row) grows with the
# row count; the chunks are consecutive row blocks of one stream, so the
# bound changes no value
CHUNK_FLOATS = 2**16


def chunk_rows(unit: int) -> int:
    """The rows of one chunk of conditionals handed to a consumer: a
    multiple of unit, at most CHUNK_FLOATS, and one unit at least."""
    return max(unit, CHUNK_FLOATS // unit * unit)


def percolation_chunks(patterns: np.ndarray, n_inner: int, rng, start: int, stop: int):
    """Yield (lo, hi, rows, masks) over the random-past rows start to stop -
    1 of the n = len(patterns) * n_inner: row i pairs patterns[i // n_inner]
    with the i-th percolation past on the pattern's L sites, B_r for a
    pattern on B_r.

    The masks are the next rows of `rng.random((n, L))`, as
    `sample_percolation_masks` draws them on B_r, and each chunk holds at
    most CHUNK_FLOATS uniforms.  rows is int64, a broadcast view when the
    chunk lies inside one pattern's rows, else a copy.
    """
    step = max(1, CHUNK_FLOATS // patterns.shape[1])
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        chi = rng.random((hi - lo, patterns.shape[1]))
        masks = chi < chi[:, :1]
        masks[:, 0] = False
        first, last = lo // n_inner, (hi - 1) // n_inner
        if first == last:
            rows = np.broadcast_to(patterns[first].astype(np.int64), chi.shape)
        else:
            rows = patterns[np.arange(lo, hi) // n_inner].astype(np.int64, copy=False)
        yield lo, hi, rows, masks


def percolation_rows(patterns: np.ndarray, n_inner: int, rng, read, consume, unit: int = 1):
    """consume(lo, hi, p) for consecutive chunks of the n = len(patterns) *
    n_inner random-past rows of `percolation_chunks`, p the conditionals
    read(rows, masks) of rows lo to hi - 1: the Python route of the
    percolation kernels and of the ball oracle.

    A chunk is `chunk_rows(unit)` rows, the last one fewer, so that each
    starts at a multiple of unit, and p is a view of one buffer, which
    consume may overwrite.  If consume raises, the stream is advanced past
    the rows not drawn yet, so it ends where the whole call leaves it, and
    the error is raised.
    """
    n, L = len(patterns) * n_inner, patterns.shape[1]
    step = chunk_rows(unit)
    buf = np.empty(min(step, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        for start, stop, rows, masks in percolation_chunks(patterns, n_inner, rng, lo, hi):
            buf[start - lo:stop - lo] = read(rows, masks)
        try:
            consume(lo, hi, buf[:hi - lo])
        except Exception:
            rng.advance((n - hi) * L)
            raise


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
