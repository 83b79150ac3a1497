"""Independent oracles used to freeze expected values: plain BFS, brute-force
enumeration, and closed forms, kept free of the package's counting machinery."""

import itertools
import math

import numpy as np


def bfs_ball_count(neighbors_fn, origin, r):
    """Count elements within distance r by breadth-first search."""
    seen = {origin}
    frontier = [origin]
    for _ in range(r):
        nxt = []
        for g in frontier:
            for h in neighbors_fn(g):
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def zd_neighbors(d):
    def fn(g):
        for i in range(d):
            for step in (1, -1):
                yield g[:i] + (g[i] + step,) + g[i + 1 :]

    return fn


def free_neighbors(k):
    def fn(g):
        for i in range(1, k + 1):
            for letter in (i, -i):
                if g and g[-1] == -letter:
                    yield g[:-1]
                else:
                    yield g + (letter,)

    return fn


def free_ball_closed_form(k, r):
    """1 + 2k((2k-1)^r - 1)/(2k-2) for k >= 2."""
    return 1 + 2 * k * ((2 * k - 1) ** r - 1) // (2 * k - 2)


def zd_ball_closed_form(d, r):
    """Delannoy-type count: |B_r(Z^d)| = sum_k 2^k C(d,k) C(r,k)."""
    return sum(2**k * math.comb(d, k) * math.comb(r, k) for k in range(0, min(d, r) + 1))


def lucas(m):
    """Number of independent sets of the m-cycle."""
    a, b = 2, 1  # L_0, L_1
    for _ in range(m):
        a, b = b, a + b
    return a


def brute_cycle_partition(m, lam):
    """Hardcore partition function of C_m by direct enumeration."""
    total = 0.0
    for bits in itertools.product([0, 1], repeat=m):
        if any(bits[i] and bits[(i + 1) % m] for i in range(m)):
            continue
        total += lam ** sum(bits)
    return total


def brute_hardcore_marginal(adj, v, lam, pins):
    """P(v occupied) on a finite graph by enumeration."""
    n = len(adj)
    num = den = 0.0
    for bits in itertools.product([0, 1], repeat=n):
        if any(bits[u] != s for u, s in pins.items()):
            continue
        if any(bits[u] and bits[w] for u in range(n) for w in adj[u] if w > u):
            continue
        w = lam ** sum(bits) if not hasattr(lam, "__getitem__") else math.prod(
            lam[u] for u in range(n) if bits[u]
        )
        den += w
        if bits[v]:
            num += w
    return num / den


def golden_pressure():
    return math.log((1 + math.sqrt(5)) / 2)


def hardcore_line_pressure(lam):
    """log of the dominant root of x^2 = x + lam."""
    return math.log((1 + math.sqrt(1 + 4 * lam)) / 2)


def hardcore_line_density(lam):
    """Occupation density of the stationary hardcore chain, from the Perron data
    of [[1, lam], [1, 0]]: right vector (x, 1), left vector (x, lam)/..., with
    x the dominant eigenvalue."""
    x = (1 + math.sqrt(1 + 4 * lam)) / 2
    # pi proportional to (l_a r_a): l = (x, lam), r = (x, 1)
    p0 = x * x
    p1 = lam
    return p1 / (p0 + p1)


def hardcore_stationary_p0(lam):
    x = (1 + math.sqrt(1 + 4 * lam)) / 2
    return x * x / (x * x + lam)


def transfer_batch_argmin(tables, offsets, r_max, values, masks):
    """Center conditionals of a rank-1 transfer oracle read from its lookup
    tables, with the nearest pin on each side found as the argmin of a
    distance array in which unpinned sites hold a sentinel past r_max."""
    n, L = values.shape
    off = offsets[:L]
    big = r_max + 10**6
    dist_l = np.where(masks & (off < 0)[None, :], -off[None, :], big)
    dist_r = np.where(masks & (off > 0)[None, :], off[None, :], big)
    il = np.argmin(dist_l, axis=1)
    ir = np.argmin(dist_r, axis=1)
    rows = np.arange(n)
    dl = dist_l[rows, il]
    dr = dist_r[rows, ir]
    bl = np.where(dl < big, values[rows, il], 0)
    br = np.where(dr < big, values[rows, ir], 0)
    dl = np.where(dl < big, dl, 0)
    dr = np.where(dr < big, dr, 0)
    return tables[values[:, 0], dl, bl, dr, br]


def info_fn_full_width(oracle, ball_size, values, mask):
    """-log of the oracle's center conditional asked with the full-width
    pattern and its mask cleared beyond the first ball_size sites (the ball
    order prefix B_r); None when the conditional is zero."""
    cleared = np.array(mask, dtype=bool)
    cleared[ball_size:] = False
    p = oracle.conditional(np.asarray(values), cleared)
    return -math.log(p) if p > 0.0 else None
