"""Reference values the benchmark checks soficlab's outputs against.

None of these import soficlab: each is a closed form, a published constant,
or a brute force written here, so a defect on the timed path cannot also
move its reference.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np

# Baxter's hard-square entropy constant (Annals of Combinatorics 3, 1999):
# the pressure of the hardcore model at activity 1 on Z^2 is log(KAPPA).
KAPPA = 1.5030480824753322


def hard_square_pressure() -> float:
    return math.log(KAPPA)


def line_pressure(lam: float) -> float:
    """Hardcore pressure on Z^1: log of the top eigenvalue of [[1, 1], [lam, 0]]."""
    return math.log((1.0 + math.sqrt(1.0 + 4.0 * lam)) / 2.0)


def bethe_pressure(lam: float, degree: int) -> float:
    """Hardcore pressure on the free group's Cayley tree (Bethe lattice).

    R solves R = lam / (1 + R)^(degree - 1), the occupation ratio of a branch
    (the map is a contraction for the activities used here, so plain
    iteration converges); the pressure is the site term minus half the
    degree times the edge term.
    """
    r = 0.0
    for _ in range(100_000):
        nxt = lam / (1.0 + r) ** (degree - 1)
        if abs(nxt - r) < 1e-16:
            break
        r = nxt
    else:
        raise ArithmeticError("Bethe fixed-point iteration did not converge")
    site = math.log(1.0 + lam * (1.0 + r) ** (-degree))
    edge = math.log((1.0 + 2.0 * r) / (1.0 + r) ** 2)
    return site - 0.5 * degree * edge


def _diamond(radius: int):
    """Sites of the Z^2 ball {|x| + |y| <= radius} and its nearest-neighbour edges."""
    sites = [(x, y) for x in range(-radius, radius + 1)
             for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius]
    index = {s: i for i, s in enumerate(sites)}
    edges = [(index[(x, y)], index[(x + dx, y + dy)])
             for (x, y) in sites for dx, dy in ((1, 0), (0, 1))
             if (x + dx, y + dy) in index]
    return sites, index, edges


@functools.lru_cache(maxsize=None)
def hard_square_beta(r: int) -> Fraction:
    """Exact mixing-profile value beta(r) of the hardcore model at activity 1 on Z^2.

    The sites at distance r + 1 are pinned to every 0/1 pattern (no two of
    them are adjacent); beta(r) is the largest minus the smallest
    conditional occupation probability of the origin.  At activity 1 that
    conditional is the share of the inner ball's independent sets avoiding
    the neighbours of the occupied pinned sites that contain the origin, a
    ratio of integer counts.
    """
    sites, index, edges = _diamond(r + 1)
    inner = [i for i, (x, y) in enumerate(sites) if abs(x) + abs(y) <= r]
    shell = [i for i, (x, y) in enumerate(sites) if abs(x) + abs(y) == r + 1]
    pos_in = {s: k for k, s in enumerate(inner)}
    pos_sh = {s: k for k, s in enumerate(shell)}
    shell_nbrs = np.zeros(len(inner), dtype=np.int64)  # bitmask of pinned neighbours
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if a in pos_in and b in pos_sh:
                shell_nbrs[pos_in[a]] |= 1 << pos_sh[b]

    sets = np.array(list(product((0, 1), repeat=len(inner))), dtype=bool)
    for u, v in edges:
        if u in pos_in and v in pos_in:
            sets = sets[~(sets[:, pos_in[u]] & sets[:, pos_in[v]])]
    blocked = np.bitwise_or.reduce(np.where(sets, shell_nbrs, 0), axis=1)
    origin = sets[:, pos_in[index[(0, 0)]]]

    patterns = np.arange(1 << len(shell), dtype=np.int64)
    allowed = (blocked[:, None] & patterns[None, :]) == 0  # (independent sets, patterns)
    z_all = allowed.sum(axis=0)
    z_occ = allowed[origin].sum(axis=0)
    probs = [Fraction(int(a), int(b)) for a, b in zip(z_occ, z_all)]
    return max(probs) - min(probs)
