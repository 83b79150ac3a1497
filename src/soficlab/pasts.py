"""Invariant random pasts, induced vertex orders, and coupling diagnostics.

The percolation past attaches i.i.d. uniforms to sites and declares u earlier
than v when chi_u < chi_v; the lexicographic past on Z^d is the deterministic
algebraic order.  Ties between finite-precision uniforms are broken by site
index (a probability-zero event, resolved for reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .groups import Element, GroupSpec
from .soficmaps import SoficMap, good_vertices


@dataclass
class PastSample:
    """Membership of the past of the identity, restricted to B_r (ball order)."""

    spec: GroupSpec
    radius: int
    membership: np.ndarray  # bool per ball element; identity entry False
    uniforms: np.ndarray | None = None


def sample_percolation_past(spec: GroupSpec, r: int, seed: int) -> PastSample:
    rng = np.random.default_rng(np.random.SeedSequence([seed, r, 0xFA57]))
    return _percolation_from_rng(spec, r, rng)


def _percolation_from_rng(spec: GroupSpec, r: int, rng) -> PastSample:
    b = groups.ball(spec, r)
    chi = rng.random(len(b.elements))
    membership = chi < chi[0]  # identity is the first ball element
    membership[0] = False
    return PastSample(spec, r, membership, chi)


def sample_percolation_masks(spec: GroupSpec, r: int, n_samples: int, rng) -> np.ndarray:
    """(n_samples, |B_r|) membership masks; column 0 is the identity (always False).

    The uniforms are one draw of n_samples rows from rng, so a call holds
    float64 uniforms and the bool mask for its rows.  `percolation_chunks`
    draws the same stream in bounded chunks, and the compiled percolation
    kernels draw it a row at a time.
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


def percolation_chunks(patterns: np.ndarray, n_inner: int, lo: int, n: int, ball_size: int, rng):
    """Yield (start, stop, rows, masks) over n random-past rows: row i pairs
    patterns[(lo + i) // n_inner] with the i-th percolation past on a ball of
    ball_size sites, its mask cut to the pattern width L.

    The masks of rows start..stop-1 are the next stop - start rows of
    `rng.random((n, ball_size))`, as `sample_percolation_masks` draws them,
    and each chunk holds at most CHUNK_FLOATS uniforms.  rows is a broadcast
    view when the chunk lies inside one pattern's rows, else a copy.  A width
    outside [1, ball_size] is a ValueError before any draw.
    """
    L = patterns.shape[1]
    if not 1 <= L <= ball_size:
        raise ValueError(f"pattern width {L} is not in [1, {ball_size}], the ball size of the pasts")
    step = max(1, CHUNK_FLOATS // ball_size)
    for start in range(0, n, step):
        stop = min(start + step, n)
        chi = rng.random((stop - start, ball_size))
        masks = chi[:, :L] < chi[:, :1]
        masks[:, 0] = False
        first, last = (lo + start) // n_inner, (lo + stop - 1) // n_inner
        if first == last:
            rows = np.broadcast_to(patterns[first], (stop - start, L))
        else:
            rows = patterns[(lo + np.arange(start, stop)) // n_inner]
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


@dataclass
class VertexOrder:
    n: int
    rank: np.ndarray  # rank[v] = position of v in the order
    uniforms: np.ndarray


def sample_vertex_order(sm: SoficMap, seed: int) -> VertexOrder:
    rng = np.random.default_rng(np.random.SeedSequence([seed, sm.n, 0x0BD]))
    chi = rng.random(sm.n)
    order = np.lexsort((np.arange(sm.n), chi))
    rank = np.empty(sm.n, dtype=np.int64)
    rank[order] = np.arange(sm.n)
    return VertexOrder(sm.n, rank, chi)


def pulled_back_past(sm: SoficMap, order: VertexOrder, v: int, r: int) -> np.ndarray:
    """Mask over B_r ball order: g in the pulled-back past iff sigma^g(v) precedes v."""
    b = groups.ball(sm.spec, r)
    images = np.array([sm.sigma_array(g)[v] for g in b.elements])
    mask = order.rank[images] < order.rank[v]
    mask[0] = False
    return mask


def coupling_check(sm: SoficMap, r: int) -> float:
    """Fraction of vertices where the diagonal coupling with the percolation
    past is exact: B_r-good vertices with an injective window."""
    report = good_vertices(sm, groups.ball(sm.spec, r))
    good = report.good_vertices
    if good.size == 0:
        return 0.0
    b = groups.ball(sm.spec, r)
    images = np.stack([sm.sigma_array(g)[good] for g in b.elements])
    srt = np.sort(images, axis=0)
    injective = np.all(srt[1:] != srt[:-1], axis=0) if len(b.elements) > 1 else np.ones(good.size, bool)
    return float(np.count_nonzero(injective)) / sm.n
