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


def random_connected_graph(rng, n):
    """Sorted adjacency lists of a random tree on n vertices (each vertex
    joined to an earlier one) plus up to n - 1 random extra edges."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = int(rng.integers(0, v))
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.integers(0, n, 2)
        if u != v:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
    return [sorted(s) for s in adj]


def grid_hardcore_marginal(rows, cols, root, lam, pins):
    """P(root occupied) of hardcore on the rows x cols grid graph (vertex
    i * cols + j) by a transfer from row to row over the independent sets of
    one row, as bitmasks; pins map vertices to 0 or 1, lam is a scalar or one
    activity per vertex.  The full and the root-occupied vectors are scaled
    by the same factor each row."""
    lams = list(lam) if hasattr(lam, "__getitem__") else [lam] * (rows * cols)
    states = [s for s in range(1 << cols) if not s & (s >> 1)]
    compatible = np.array([[not s & t for t in states] for s in states], dtype=float)

    def weights(i, forced):
        w = np.ones(len(states))
        for k, s in enumerate(states):
            for j in range(cols):
                v, bit = i * cols + j, s >> j & 1
                if pins.get(v, bit) != bit or forced and v == root and not bit:
                    w[k] = 0.0
                elif bit:
                    w[k] *= lams[v]
        return w

    full, occupied = weights(0, False), weights(0, True)
    for i in range(1, rows):
        scale = full.sum()
        full = weights(i, False) * (compatible @ full) / scale
        occupied = weights(i, True) * (compatible @ occupied) / scale
    return float(occupied.sum() / full.sum())


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


def bethe_hardcore_pressure(lam, degree):
    """Bethe pressure of hardcore at activity lam on the d-regular tree:
    R = lam/(1+R)^(d-1) by bisection on [0, lam] down to adjacent floats (the
    plain iteration can fall into a 2-cycle), then
    P = log(1 + lam/(1+R)^d) - (d/2) log((1+2R)/(1+R)^2)."""
    lo, hi = 0.0, lam
    while lo < (mid := (lo + hi) / 2) < hi:
        if mid < lam / (1 + mid) ** (degree - 1):
            lo = mid
        else:
            hi = mid
    return math.log(1 + lam / (1 + lo) ** degree) - degree / 2 * math.log((1 + 2 * lo) / (1 + lo) ** 2)


def transfer_batch_argmin(tables, offsets, r_max, values, masks):
    """Center conditionals of a rank-1 transfer oracle read from its lookup
    tables, with the nearest pin on each side found as the argmin of a
    distance array in which unpinned sites hold a sentinel past r_max; a
    pinned center reads 1."""
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
    return np.where(masks[:, 0], 1.0, tables[values[:, 0], dl, bl, dr, br])


def info_fn_full_width(oracle, ball_size, values, mask):
    """-log of the oracle's center conditional asked with the full-width
    pattern and its mask cleared beyond the first ball_size sites (the ball
    order prefix B_r); None when the conditional is zero."""
    cleared = np.array(mask, dtype=bool)
    cleared[ball_size:] = False
    p = oracle.conditional(np.asarray(values), cleared)
    return -math.log(p) if p > 0.0 else None


def conditional_tables_loop(tm, r_max):
    """`TransferMatrix.conditional_tables` entry by entry: for each nearest
    left pin (dl, bl) and right pin (dr, br), the center weights
    left-factor * right-factor over their sum, an all-zero column where the
    sum is 0."""
    a = tm.alphabet
    left, right = tm.perron()
    powers = [np.eye(a)]
    for _ in range(r_max):
        powers.append(powers[-1] @ (tm.T / tm.lam))
    tab = np.zeros((a, r_max + 1, a, r_max + 1, a))
    for dl, bl, dr, br in itertools.product(range(r_max + 1), range(a), range(r_max + 1), range(a)):
        w = (powers[dl][bl, :] if dl else left) * (powers[dr][:, br] if dr else right)
        tot = w.sum()
        if tot > 0.0:
            tab[:, dl, bl, dr, br] = w / tot
    return tab


def into(out):
    """A percolation consumer that stores the conditionals of every chunk in
    out: the flat array of every row that the estimators no longer hold."""
    def consume(lo, hi, p):
        out[lo:hi] = p

    return consume


def sample_windows_loop(tm, r, n_samples, rng):
    """`TransferMatrix.sample_windows` with each step's symbol read as the
    number of cumulative step probabilities at or below its uniform."""
    a = tm.alphabet
    length = 2 * r + 1
    cum_pi = np.cumsum(tm.stationary())
    cum_P = np.cumsum(tm.step_probs(), axis=1)
    u = rng.random((n_samples, length))
    out = np.empty((n_samples, length), dtype=np.int8)
    out[:, 0] = np.searchsorted(cum_pi, u[:, 0], side="right").clip(0, a - 1)
    for j in range(1, length):
        out[:, j] = (u[:, j, None] >= cum_P[out[:, j - 1]]).sum(axis=1).clip(0, a - 1)
    return out


def sample_windows_rows(tm, r, n_samples, rng):
    """`TransferMatrix.sample_windows` one row and one step at a time, in
    Python ints: each symbol the number of cumulative probabilities at or
    below its uniform, cut to a - 1."""
    a = tm.alphabet
    cum_pi = np.cumsum(tm.stationary())
    cum_P = np.cumsum(tm.step_probs(), axis=1)
    rows = []
    for u in rng.random((n_samples, 2 * r + 1)):
        row = [min(int(np.searchsorted(cum_pi, u[0], side="right")), a - 1)]
        for x in u[1:]:
            row.append(min(int(np.searchsorted(cum_P[row[-1]], x, side="right")), a - 1))
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(n_samples, 2 * r + 1)


def sigma_word(perms, g, v, free=False):
    """Image of vertex v under sigma^g, one generator step at a time.

    perms[s] is the permutation of positive generator s.  g is a Z^d
    vector, whose word is the e1 block, then the e2 block and so on, or
    with free=True an F_k reduced word of signed letters +-(s+1).  The
    rightmost letter acts first, and a negative letter by the inverse
    permutation, found by search.
    """
    if free:
        word = list(g)
    else:
        word = [(i + 1) * (1 if a > 0 else -1) for i, a in enumerate(g) for _ in range(abs(a))]
    for letter in reversed(word):
        perm = [int(u) for u in perms[abs(letter) - 1]]
        v = perm[v] if letter > 0 else perm.index(v)
    return v


def min_degree_plan_scan(scopes, sites, out):
    """Min-degree elimination order by a scan of every remaining site for
    the least (degree, site), on the graph whose edges join the sites of
    each scope: a list of (site, its sorted neighbours when it goes), each
    step joining those neighbours into a clique.  Sites of out stay."""
    nbrs = {i: set() for i in sites}
    for scope in scopes:
        for i in scope:
            nbrs[i] |= set(scope) - {i}
    todo = set(nbrs) - set(out)
    steps = []
    while todo:
        v = min(todo, key=lambda i: (len(nbrs[i]), i))
        todo.remove(v)
        near = sorted(nbrs[v])
        steps.append((v, tuple(near)))
        for i in near:
            nbrs[i] |= set(near) - {i}
            nbrs[i].discard(v)
    return steps
