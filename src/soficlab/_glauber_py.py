"""Pure-Python twins of the five kernels in _glauber.c: the fallback when
the C library is unavailable, and the tests' reference for it.

Every kernel of either backend draws from one stream type,
`kernels.Pcg64`, soficlab's PCG64, bitwise numpy's
`default_rng(SeedSequence(entropy))`, and refuses anything else, a numpy
Generator included, before any draw (`checked_stream`).  On this backend
the stream's `random` draws through numpy's Generator, so `numpy.random`
is loaded here, and not on the compiled backend.  The sweep keeps the C
kernel's arithmetic and uniform consumption, and draws the doubles the C
kernel draws from the stream, so trajectories and stream states agree
bitwise between backends.  `transfer_lookup` and
`tree_batch` are the transfer and tree oracles' numpy batches on both
backends: the C percolation lookup reads the table entry per row that
`transfer_lookup` reads, and the C tree kernel repeats the arithmetic of
`tree_batch`.  The percolation twins draw the C kernels' uniforms through
`pasts.percolation_chunks` and hand their conditionals to the caller's
consumer in the chunks of `pasts.percolation_rows`, so the stream ends in
the same state.  Both backends' percolation kernels first refuse, through
`check_rows` and `check_patterns`, rows that do not fit and a pattern that
some past could make an error, before any draw and whatever their chunks
and seed; past those checks only the consumer can raise, and the stream
ends where the whole call's draws leave it.  `markov_windows` is the numpy
counting loop that the C window sampler repeats per uniform, and
`permutations` is numpy's own `Generator.permutation`, which the C
Fisher-Yates shuffle repeats draw for draw.
"""

import operator
from typing import NamedTuple

import numpy as np

from . import pasts
from .errors import InconsistentPinsError

# the most uniforms the sweep draws from a stream at once, 128 KB of
# float64: enough sweeps per draw to amortise it on small graphs, without a
# buffer that grows with the number of sweeps
UNIFORM_BUFFER = 2**14
# the most symbols of a sweep on either backend: the C kernel's weights buffer
MAX_ALPHABET = 64


def glauber_sweeps(x, nbr_out, nbr_in, wh, wj, allowed, uniforms, sweeps, counts=None, safe=0, work=None):
    """Run `sweeps` heat-bath sweeps over x in place; if counts is given,
    counts[t] is the number of sites not equal to `safe` after sweep t.
    work, the compiled kernel's `kernels.SweepWorkspace`, is ignored.

    uniforms is an array of at least sweeps * n uniforms, one per site
    update, or a `kernels.Pcg64`.  A stream fills one reused buffer of at
    most UNIFORM_BUFFER doubles, max(1, UNIFORM_BUFFER // n) sweeps at a
    time; m draws of k doubles are the values of one draw of m * k, so the
    updates read, and the stream ends in, what `uniforms.random(sweeps *
    n)` gives.
    """
    n = x.shape[0]
    n_gen = nbr_out.shape[0]
    a = wh.shape[0]
    if a > MAX_ALPHABET:
        raise ValueError(f"alphabet too large for kernel (at most {MAX_ALPHABET} symbols)")
    if not isinstance(uniforms, np.ndarray):
        checked_stream(uniforms, "uniforms, unless a float64 array,")
        chunk = max(1, UNIFORM_BUFFER // max(1, n))
        buffer = np.empty(chunk * n)

        def draw(t):
            return uniforms.random(out=buffer[: min(chunk, sweeps - t) * n]).tolist()
    else:
        chunk = max(1, sweeps)

        def draw(t):
            return uniforms.tolist()

    # plain python containers beat numpy scalar indexing in the inner loop
    xs = x.tolist()
    outs = [nbr_out[s].tolist() for s in range(n_gen)]
    inns = [nbr_in[s].tolist() for s in range(n_gen)]
    whl = wh.tolist()
    wjl = [wj[s].tolist() for s in range(n_gen)]
    alw = [allowed[s].tolist() for s in range(n_gen)]
    gens = list(range(n_gen))
    symbols = list(range(a))
    weights = [0.0] * a

    for t in range(sweeps):
        if t % chunk == 0:
            u = draw(t)
            base = 0
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


def checked_stream(rng, name: str = "rng"):
    """Refuse, before any draw, an rng that is not a `kernels.Pcg64`, the one
    stream that every kernel of both backends draws from, with a ValueError
    that names that type."""
    from .kernels import Pcg64  # kernels imports this module first, so this only looks it up

    if not isinstance(rng, Pcg64):
        raise ValueError(f"{name} must be a soficlab.kernels.Pcg64, not {type(rng).__name__}")


def symbol_error(symbol: int, a: int) -> ValueError:
    """The error of every lookup for a center or pin symbol outside [0, a)."""
    return ValueError(f"symbol {symbol} of a center or pin is outside the alphabet [0, {a})")


def clash_error(i: int, j: int) -> InconsistentPinsError:
    """The error of both tree kernels for two adjacent sites pinned occupied."""
    return InconsistentPinsError(f"adjacent occupied pins {i}, {j}")


def column_error() -> ValueError:
    """The error of every transfer lookup for a negative side column."""
    return ValueError("side column of the transfer lookup is negative")


def transfer_lookup(values, masks, sides, tables):
    """(n, L) patterns and masks -> (n,) tables[v0, dl, bl, dr, br].

    v0 is the center symbol, column 0.  sides[s, k] is the column of the
    site at distance k+1 on side s (0 left, 1 right); columns at or past L
    are not in the rows.  On each side the first pinned column in that
    order is the nearest pin: dl/dr is its distance and bl/br its symbol,
    both 0 when the side has no pin.  A row whose center is pinned reads 1,
    the probability of the pinned symbol given itself.  A negative side
    column raises `column_error`; the first symbol outside the alphabet
    among v0, bl and br, in row order, raises `symbol_error`.
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
    out = tables[v0, dl, bl, dr, br]
    out[masks[:, 0]] = 1.0
    return out


def check_patterns(patterns, a: int, edges=None):
    """Refuse a random-past kernel's patterns before any past is drawn.

    The first symbol outside [0, a), in C order, is `symbol_error`; then,
    when a tree's edges ((m, 2) int64) are given, the first row with 1 at
    both ends of an edge inside the pattern width is `clash_error` of its
    first such edge.  The symbol check is two reductions, so it allocates
    nothing unless it fails, and the edge check reads only patterns that
    hold a 1.
    """
    if not patterns.size:
        return
    high = patterns.max()
    if patterns.min() < 0 or high >= a:
        raise symbol_error(int(patterns.flat[((patterns < 0) | (patterns >= a)).argmax()]), a)
    if edges is None or high != 1:
        return
    edges = edges[edges.max(axis=1) < patterns.shape[1]]
    occupied = patterns == 1
    clash = occupied[:, edges[:, 0]] & occupied[:, edges[:, 1]]
    if clash.any():
        raise clash_error(*(int(i) for i in edges[clash[clash.any(axis=1).argmax()].argmax()]))


def check_rows(patterns, n_inner: int, consume, unit: int):
    """Refuse, before any draw, patterns without a center column, n_inner
    < 1, a consume that is not callable, or a consumer's unit that does not
    divide the n_inner rows per pattern into whole units."""
    if not callable(consume):
        raise ValueError(f"consume must be callable, not {type(consume).__name__}")
    n = len(patterns) * n_inner
    if patterns.shape[1] < 1 or n_inner < 1 or unit < 1 or n % unit:
        raise ValueError(f"{n} rows of {len(patterns)} patterns of width {patterns.shape[1]} at {n_inner} "
                         f"per pattern do not fit units of {unit} rows")


def percolation_lookup(patterns, n_inner, sides, tables, rng, consume, unit=1):
    """consume(lo, hi, p), p[i] the transfer lookup of row lo + i: pattern
    (lo + i) // n_inner under the (lo + i)-th of len(patterns) * n_inner
    percolation pasts drawn from rng, each past on the pattern's own
    columns, in the chunks of `pasts.percolation_rows`, split at multiples
    of unit.

    Before any draw, `checked_stream` refuses an rng that is not a
    `kernels.Pcg64`, `check_rows` rows that do not fit, `check_patterns` a
    symbol outside the alphabet of tables, and a negative side column is
    `column_error`; the pasts are those of `pasts.percolation_chunks`, and
    each chunk is read through `transfer_lookup`.
    """
    checked_stream(rng)
    check_rows(patterns, n_inner, consume, unit)
    check_patterns(patterns, tables.shape[0])
    if (sides < 0).any():
        raise column_error()
    pasts.percolation_rows(patterns, n_inner, rng, lambda rows, masks: transfer_lookup(rows, masks, sides, tables),
                           consume, unit)


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


def tree_percolation(patterns, n_inner, tree: Tree, rng, consume, unit=1):
    """consume(lo, hi, p), p[i] the `tree_batch` conditional of pattern
    (lo + i) // n_inner under the (lo + i)-th percolation past drawn from
    rng, drawn and handed over as `percolation_lookup` does.  An rng that
    is not a `kernels.Pcg64`, rows that do not fit, and a symbol outside
    {0, 1} or two adjacent 1s anywhere in the patterns, are refused by
    `checked_stream`, `check_rows` and `check_patterns` before any draw."""
    checked_stream(rng)
    check_rows(patterns, n_inner, consume, unit)
    check_patterns(patterns, 2, tree.edges)
    pasts.percolation_rows(patterns, n_inner, rng, lambda rows, masks: tree_batch(rows, masks, tree), consume, unit)


def check_sizes(**sizes) -> tuple:
    """The sizes as ints, each refused before any draw with a ValueError
    unless it is a non-negative integer."""
    sizes = {name: operator.index(size) for name, size in sizes.items()}
    for name, size in sizes.items():
        if size < 0:
            raise ValueError(f"{name} must be non-negative, not {size}")
    return tuple(sizes.values())


def check_windows(cum_pi, cum_step, n, length) -> tuple:
    """(a, n, length, dtype) of `markov_windows`' arguments, refused before
    any draw with a ValueError unless cum_pi is a float64 array of a >= 1
    entries, cum_step a float64 array of shape (a, a), n >= 0 and length
    >= 1.  The dtype is int8 up to 127 symbols, else the smallest signed
    integer dtype that holds a, which the twin's count reaches before it is
    cut to a - 1."""
    n, length = check_sizes(n=n, length=length)
    if not (isinstance(cum_pi, np.ndarray) and isinstance(cum_step, np.ndarray)
            and cum_pi.dtype == cum_step.dtype == np.float64 and cum_pi.ndim == 1 and len(cum_pi)
            and cum_step.shape == (len(cum_pi),) * 2 and length):
        raise ValueError(f"cum_pi {getattr(cum_pi, 'shape', None)} and cum_step "
                         f"{getattr(cum_step, 'shape', None)} must be float64 of shapes (a,) and (a, a), "
                         f"a >= 1, for windows of length {length} >= 1")
    a = len(cum_pi)
    return a, n, length, np.min_scalar_type(-a - 1)


def markov_windows(cum_pi, cum_step, n, length, rng):
    """(n, length) windows of the stationary Markov chain on a = len(cum_pi)
    symbols whose cumulative laws are cum_pi, at symbol 0, and cum_step[x],
    for a step from symbol x: the symbols of the uniforms `rng.random((n,
    length))`, each the number of cumulative probabilities at or below its
    uniform, cut to a - 1, and in the dtype of `check_windows`.

    The uniforms are drawn in row chunks of at most `pasts.CHUNK_FLOATS`,
    so no array of every row's uniforms is held, and each step's symbols
    are counted one candidate symbol at a time over the chunk.  rng must be
    a `kernels.Pcg64` (`checked_stream`), and the arguments pass
    `check_windows`, before any draw.
    """
    checked_stream(rng)
    a, n, length, dtype = check_windows(cum_pi, cum_step, n, length)
    cum_by_symbol = np.ascontiguousarray(cum_step.T)
    out = np.empty((n, length), dtype=dtype)
    step = max(1, pasts.CHUNK_FLOATS // length)
    for lo in range(0, n, step):
        block = out[lo:lo + step]
        u = rng.random(block.shape)
        block[:, 0] = np.searchsorted(cum_pi, u[:, 0], side="right").clip(0, a - 1)
        count = np.empty(len(block), dtype=dtype)
        for j in range(1, length):
            # the symbols c with u >= cum_step[prev, c], counted one c at a time
            prev, uj = block[:, j - 1], u[:, j]
            count[:] = 0
            for c in range(a):
                count += uj >= cum_by_symbol[c][prev]
            np.minimum(count, a - 1, out=block[:, j])
    return out


def permutations(k, n, rng):
    """(k, n) int64: k permutations of range(n), each numpy's
    `Generator.permutation(n)` in turn on one Generator in rng's state;
    rng then takes that Generator's state, and a uint32 half it keeps
    buffered is dropped (`kernels.Pcg64.numpy_draw`).  rng must be a
    `kernels.Pcg64`, and k and n non-negative integers, before any draw."""
    checked_stream(rng)
    k, n = check_sizes(k=k, n=n)
    return rng.numpy_draw(lambda generator: np.array([generator.permutation(n) for _ in range(k)],
                                                     dtype=np.int64).reshape(k, n))
