"""Pure-Python twins of the kernels in _glauber.c: the fallback when the C
library is unavailable, and the tests' reference for it.

The sweep keeps the C kernel's arithmetic and uniform consumption, so
trajectories agree bitwise between backends; the transfer lookups read the
same table entry per row as the C lookups, and both raise the same
ValueError for a symbol outside the alphabet or a negative side column.
`tree_batch` is the tree oracle's numpy ratio recursion, whose arithmetic
the C tree kernel repeats.  The percolation twins draw the C kernels'
uniforms through `pasts.percolation_chunks`, so the generator ends in the
same state.
"""

from typing import NamedTuple

import numpy as np

from .errors import InconsistentPinsError
from .pasts import percolation_chunks


def glauber_sweeps(x, nbr_out, nbr_in, wh, wj, allowed, uniforms, sweeps, counts=None, safe=0):
    """Run `sweeps` heat-bath sweeps over x in place; if counts is given,
    counts[t] is the number of sites not equal to `safe` after sweep t."""
    n = x.shape[0]
    n_gen = nbr_out.shape[0]
    a = wh.shape[0]
    if a > 64:
        raise ValueError("alphabet too large for kernel")

    # plain python containers beat numpy scalar indexing in the inner loop
    xs = x.tolist()
    outs = [nbr_out[s].tolist() for s in range(n_gen)]
    inns = [nbr_in[s].tolist() for s in range(n_gen)]
    whl = wh.tolist()
    wjl = [wj[s].tolist() for s in range(n_gen)]
    alw = [allowed[s].tolist() for s in range(n_gen)]
    u = uniforms.tolist()
    gens = list(range(n_gen))
    symbols = list(range(a))
    weights = [0.0] * a

    base = 0
    for t in range(sweeps):
        for v in range(n):
            total = 0.0
            for c in symbols:
                w = whl[c]
                for s in gens:
                    o = outs[s][v]
                    if o == v:
                        w = w * wjl[s][c][c]
                    else:
                        xo = xs[o]
                        if not alw[s][c][xo]:
                            w = 0.0
                            break
                        w = w * wjl[s][c][xo]
                        xi = xs[inns[s][v]]
                        if not alw[s][xi][c]:
                            w = 0.0
                            break
                        w = w * wjl[s][xi][c]
                weights[c] = w
                total = total + w
            if total > 0.0:
                thr = u[base] * total
                pick = a - 1
                cum = 0.0
                for c in symbols:
                    cum = cum + weights[c]
                    if thr < cum:
                        pick = c
                        break
                xs[v] = pick
            base += 1
        if counts is not None:
            counts[t] = n - xs.count(safe)
    x[:] = xs
    return None


def symbol_error(symbol: int, a: int) -> ValueError:
    """The error of every lookup for a center or pin symbol outside [0, a)."""
    return ValueError(f"symbol {symbol} of a center or pin is outside the alphabet [0, {a})")


def clash_error(i: int, j: int) -> InconsistentPinsError:
    """The error of both tree kernels for two adjacent sites pinned occupied."""
    return InconsistentPinsError(f"adjacent occupied pins {i}, {j}")


def column_error() -> ValueError:
    """The error of both transfer lookups for a negative side column."""
    return ValueError("side column of the transfer lookup is negative")


def transfer_lookup(values, masks, sides, tables):
    """(n, L) patterns and masks -> (n,) tables[v0, dl, bl, dr, br].

    v0 is the center symbol, column 0.  sides[s, k] is the column of the
    site at distance k+1 on side s (0 left, 1 right); columns at or past L
    are not in the rows.  On each side the first pinned column in that
    order is the nearest pin: dl/dr is its distance and bl/br its symbol,
    both 0 when the side has no pin.  A negative side column raises
    `column_error`; the first symbol outside the alphabet among v0, bl and
    br, in row order, raises `symbol_error`.
    """
    if (sides < 0).any():
        raise column_error()
    n, L = values.shape
    rows = np.arange(n)
    near = []  # distance to, and symbol of, the nearest pin on the left, then the right
    for side in sides:
        dist = np.flatnonzero(side < L)
        cols = side[dist]
        if len(cols) == 0:
            near += [0, 0]
            continue
        first = masks[:, cols].argmax(axis=1)
        nearest = cols[first]
        # a side with no pin reads distance 0 and symbol index 0
        pinned = masks[rows, nearest]
        near += [np.where(pinned, dist[first] + 1, 0), np.where(pinned, values[rows, nearest], 0)]
    dl, bl, dr, br = near
    v0 = values[:, 0]
    a = tables.shape[0]
    read = np.stack(np.broadcast_arrays(v0, bl, br), axis=1)
    outside = (read < 0) | (read >= a)
    if outside.any():
        raise symbol_error(int(read.flat[outside.argmax()]), a)
    return tables[v0, dl, bl, dr, br]


def percolation_lookup(patterns, n_inner, lo, ball_size, sides, tables, rng, out):
    """out[i] = the transfer lookup of patterns[(lo + i) // n_inner] under
    the i-th of len(out) percolation pasts drawn from rng.

    The pasts are those of `pasts.percolation_chunks`, which also checks
    the pattern width against ball_size; each chunk is read through
    `transfer_lookup`, so its errors are this function's.
    """
    if (sides < 0).any():  # before any draw, as the C kernel checks
        raise column_error()
    for start, stop, rows, masks in percolation_chunks(patterns, n_inner, lo, len(out), ball_size, rng):
        out[start:stop] = transfer_lookup(rows, masks, sides, tables)


class Tree(NamedTuple):
    """A rooted tree in level order, as both tree kernels read it.

    Level l is sites starts[l] .. starts[l+1]-1 and site 0 the root.  The
    children of site v, all in the next level, are
    children[child_ptr[v]:child_ptr[v+1]], in the order their factors are
    multiplied; every site of one level has as many.  lam is the activity
    of each site, free its ratio with nothing pinned below it, and edges
    (int64, (m, 2)) the pairs that may not both be pinned occupied.
    """

    starts: np.ndarray
    child_ptr: np.ndarray
    children: np.ndarray
    lam: np.ndarray
    free: np.ndarray
    edges: np.ndarray


def level_ratio(tree: Tree, level: int, outer: np.ndarray) -> np.ndarray:
    """R = lam prod_c 1/(1+R_c) of every site of one level from the ratios
    `outer` of the next level out, over any leading row axes of `outer`."""
    lo, hi = tree.starts[level], tree.starts[level + 1]
    kids = tree.children[tree.child_ptr[lo]:tree.child_ptr[hi]].reshape(hi - lo, -1) - hi
    factor = 1.0 / (1.0 + outer)
    ratio = np.empty(outer.shape[:-1] + (hi - lo,))
    ratio[...] = tree.lam[lo:hi]
    for k in range(kids.shape[1]):
        ratio *= factor[..., kids[:, k]]
    return ratio


def tree_batch(values, masks, tree: Tree):
    """(n, L) int64 patterns and bool masks -> (n,) hardcore conditionals of
    the center symbol, by the ratio recursion over `tree` with pins as
    R = 0 (symbol 0) or R = inf (symbol 1), all rows at once.

    Sites at or past L are never pinned, so the deepest level of the window
    starts from the unpinned ratios; a pinned center returns its pin.  The
    center and every pinned site must hold 0 or 1, else `symbol_error` of
    the first such symbol in column order; then two adjacent pinned 1s are
    `clash_error` of the first such edge.  Either is the error of the first
    row that has one.
    """
    starts = tree.starts
    L = values.shape[1]
    deepest = int(np.searchsorted(starts, L - 1, side="right")) - 1
    edges = tree.edges[tree.edges.max(axis=1) < L]
    pinned = masks.astype(bool, copy=False)
    read = pinned.copy()
    read[:, 0] = True
    bad = read & ((values < 0) | (values > 1))
    occupied = pinned & (values == 1)
    clash = occupied[:, edges[:, 0]] & occupied[:, edges[:, 1]]
    wrong = bad.any(axis=1) | clash.any(axis=1)
    if wrong.any():
        k = int(wrong.argmax())
        if bad[k].any():
            raise symbol_error(int(values[k, bad[k].argmax()]), 2)
        raise clash_error(*(int(i) for i in edges[clash[k].argmax()]))
    ratio = np.tile(tree.free[starts[deepest]:starts[deepest + 1]], (len(values), 1))
    for level in range(deepest, -1, -1):
        if level < deepest:
            ratio = level_ratio(tree, level, ratio)
        if level > 0:  # a pinned center returns its pin below
            win = slice(starts[level], min(starts[level + 1], L))
            block = ratio[:, : win.stop - win.start]
            block[pinned[:, win]] = 0.0
            block[occupied[:, win]] = np.inf
    r0 = ratio[:, 0]
    p_occ = np.where(pinned[:, 0], values[:, 0], r0 / (1.0 + r0))
    return np.where(values[:, 0] == 1, p_occ, 1.0 - p_occ)


def tree_percolation(patterns, n_inner, lo, ball_size, tree: Tree, rng, out):
    """out[i] = the `tree_batch` conditional of patterns[(lo + i) // n_inner]
    under the i-th of len(out) percolation pasts drawn from rng, as
    `percolation_lookup` draws them; its errors are those of `tree_batch`
    and of `pasts.percolation_chunks`."""
    for start, stop, rows, masks in percolation_chunks(patterns, n_inner, lo, len(out), ball_size, rng):
        out[start:stop] = tree_batch(rows, masks, tree)
