"""Pure-Python twins of the kernels in _glauber.c: the fallback when the C
library is unavailable, and the tests' reference for it.

The sweep keeps the C kernel's arithmetic and uniform consumption, so
trajectories agree bitwise between backends; the transfer lookups read the
same table entry per row as the C lookups, and both raise the same
ValueError for a symbol outside the alphabet or a negative side column.
The percolation lookup draws the C kernel's uniforms, so the generator
ends in the same state.
"""

import numpy as np


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
    """The error of both transfer lookups for a center or pin symbol outside [0, a)."""
    return ValueError(f"symbol {symbol} of a center or nearest pin is outside the alphabet [0, {a})")


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


# uniforms per draw of the percolation twin: the draws are consecutive row
# blocks of one stream, so the block size bounds memory and changes no value
_DRAW_FLOATS = 2**16


def percolation_lookup(patterns, n_inner, lo, ball_size, sides, tables, rng, out):
    """out[i] = the transfer lookup of patterns[(lo + i) // n_inner] under
    the i-th of len(out) percolation pasts drawn from rng.

    A past is a row of `rng.random((., ball_size))`, its mask
    chi < chi[0] cut to the pattern width L <= ball_size with the center
    unpinned, as `pasts.sample_percolation_masks` draws it.  Rows are drawn
    in blocks of at most _DRAW_FLOATS uniforms (one row at least) and read
    through `transfer_lookup`, so its errors are this function's.
    """
    if (sides < 0).any():  # before any draw, as the C kernel checks
        raise column_error()
    L = patterns.shape[1]
    if not 1 <= L <= ball_size:
        raise ValueError(f"pattern width {L} is not in [1, {ball_size}], the ball size of the pasts")
    n = len(out)
    step = max(1, _DRAW_FLOATS // ball_size)
    for start in range(0, n, step):
        stop = min(start + step, n)
        chi = rng.random((stop - start, ball_size))
        masks = chi[:, :L] < chi[:, :1]
        masks[:, 0] = False
        rows = patterns[(lo + np.arange(start, stop)) // n_inner]
        out[start:stop] = transfer_lookup(rows, masks, sides, tables)
