"""Finite almost-actions: torus and box quotients of Z^d, random models for F_k.

A SoficMap stores one permutation of {0..n-1} per positive generator; inverse
generators act by the exact inverse permutations, and a general group element
acts by composing generator permutations along its canonical reduced word,
rightmost letter first.  Under this convention the inverse-coherence
conditions of window goodness hold identically, so goodness reduces to
injectivity of the window map and multiplicativity on the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import groups, kernels
from .errors import CapExceededError
from .groups import CayleyBall, Element, GroupSpec

MAP_CAP = 100_000_000  # the most vertices of a torus or Folner box, 800 MB per permutation


def _is_permutation(p: np.ndarray, n: int) -> bool:
    """Whether p lists 0..n-1 once each: n entries in [0, n) and n distinct
    values.  Counting touches fewer of numpy's code pages than np.sort, whose
    first call adds about 0.3 MB to a small run's peak RSS."""
    if p.shape != (n,) or (n and (p.min() < 0 or p.max() >= n)):
        return False
    return np.count_nonzero(np.bincount(p, minlength=n)) == n


@dataclass
class SoficMap:
    spec: GroupSpec
    n: int
    perms: np.ndarray  # (S, n) int64, perms[s] = sigma^{s}
    provenance: dict
    perms_inv: np.ndarray = field(init=False)
    _sigma_cache: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.perms = np.asarray(self.perms, dtype=np.int64)
        inv = np.empty_like(self.perms)
        for s in range(self.perms.shape[0]):
            p = self.perms[s]
            if not _is_permutation(p, self.n):
                raise ValueError(f"generator {s} is not a permutation")
            inv[s, p] = np.arange(self.n, dtype=np.int64)
        self.perms_inv = inv

    @property
    def n_generators(self) -> int:
        return self.perms.shape[0]

    def sigma_array(self, g: Element) -> np.ndarray:
        """sigma^g as an array over all vertices (composition along the word)."""
        if g in self._sigma_cache:
            return self._sigma_cache[g]
        arr = np.arange(self.n, dtype=np.int64)
        # rightmost letter acts first
        for letter in reversed(groups.letters(self.spec, g)):
            table = self.perms[letter - 1] if letter > 0 else self.perms_inv[-letter - 1]
            arr = table[arr]
        arr.setflags(write=False)
        self._sigma_cache[g] = arr
        return arr


def build_torus(d: int, m: int) -> SoficMap:
    """Exact quotient (Z/mZ)^d: sigma^{e_i} adds e_i mod m."""
    if m < 2:
        raise ValueError("m must be >= 2")
    n = m**d
    if n > MAP_CAP:
        raise CapExceededError(f"torus size {n} exceeds cap")
    idx = np.arange(n, dtype=np.int64)
    perms = np.empty((d, n), dtype=np.int64)
    for i in range(d):
        stride = m ** (d - 1 - i)
        coord = (idx // stride) % m
        perms[i] = idx + stride * ((coord + 1) % m - coord)
    return SoficMap(groups.zd(d), n, perms, {"builder": "torus", "d": d, "m": m})


def build_folner_box(d: int, m: int) -> SoficMap:
    """Folner box {0..m-1}^d: shift inside; overflow wraps to the opposite face
    with all complementary coordinates reversed.

    The reversal is the arbitrary-bijection choice; it keeps the map a
    permutation while breaking exactness near the boundary, so only interior
    vertices are window-good.  For d = 1 there are no complementary
    coordinates and the construction necessarily coincides with the torus.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    n = m**d
    if n > MAP_CAP:
        raise CapExceededError(f"box size {n} exceeds cap")
    perms = np.empty((d, n), dtype=np.int64)
    coords = np.stack(np.unravel_index(np.arange(n), (m,) * d), axis=1)
    for i in range(d):
        dst = coords.copy()
        inside = coords[:, i] < m - 1
        dst[inside, i] += 1
        overflow = ~inside
        dst[overflow, i] = 0
        for j in range(d):
            if j != i:
                dst[overflow, j] = m - 1 - dst[overflow, j]
        perms[i] = np.ravel_multi_index([dst[:, j] for j in range(d)], (m,) * d)
    return SoficMap(groups.zd(d), n, perms, {"builder": "folner", "d": d, "m": m})


def build_random_perm(k: int, n: int, seed: int) -> SoficMap:
    """Random model for F_k: one uniform n-cycle per positive generator.

    Sampling full cycles (rather than uniform permutations) makes every
    generator fixed-point free and gives the single-cycle component structure
    per generator; local neighborhoods still Benjamini-Schramm converge to the
    2k-regular tree, which good_vertices certifies per instance.  Cycle s
    runs along `kernels.permutations(k, n, Pcg64(seed))[s]`, bitwise the
    s-th `default_rng(SeedSequence(seed)).permutation(n)` of numpy.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    perms = np.empty((k, n), dtype=np.int64)
    for s, order in enumerate(kernels.permutations(k, n, kernels.Pcg64(seed))):
        perms[s, order] = order[np.r_[1:n, 0]]
    return SoficMap(
        groups.free(k), n, perms, {"builder": "random_perm", "k": k, "n": n, "seed": seed}
    )


@dataclass
class GoodnessReport:
    ball: CayleyBall
    good_vertices: np.ndarray  # sorted int64
    fraction: float
    multiplicative_defect: float
    trace_defect: float

    def to_dict(self) -> dict:
        return {
            "radius": self.ball.radius,
            "ball_size": len(self.ball),
            "n_good": int(self.good_vertices.size),
            "fraction": self.fraction,
            "multiplicative_defect": self.multiplicative_defect,
            "trace_defect": self.trace_defect,
        }


def good_vertices(sm: SoficMap, F: CayleyBall) -> GoodnessReport:
    """Window goodness relative to F.

    A vertex is F-good when the window map g -> sigma^g(v) is injective on F
    and sigma^g(sigma^h(u)) = sigma^{gh}(u) for all g, h in F and u in the
    window.  With word-composed permutations and exact generator inverses,
    the two inverse conditions of goodness hold at every vertex.
    """
    spec = sm.spec
    els = F.elements
    arrs = [sm.sigma_array(g) for g in els]
    images = np.stack(arrs)  # (|F|, n)

    srt = np.sort(images, axis=0)
    injective = np.all(srt[1:] != srt[:-1], axis=0) if len(els) > 1 else np.ones(sm.n, bool)

    pointwise = np.ones(sm.n, dtype=bool)
    worst_mult = 0.0
    for g in els:
        ag = sm.sigma_array(g)
        for h in els:
            ah = sm.sigma_array(h)
            agh = sm.sigma_array(groups.mul(spec, g, h))
            eq = ag[ah] == agh
            worst_mult = max(worst_mult, float(np.mean(~eq)))
            pointwise &= eq
    window_ok = np.ones(sm.n, dtype=bool)
    for arr in arrs:
        window_ok &= pointwise[arr]

    good = np.flatnonzero(injective & window_ok).astype(np.int64)

    ident = groups.identity(spec)
    worst_trace = 0.0
    idx = np.arange(sm.n)
    for g in els:
        if g == ident:
            continue
        worst_trace = max(worst_trace, float(np.mean(sm.sigma_array(g) == idx)))

    return GoodnessReport(
        ball=F,
        good_vertices=good,
        fraction=good.size / sm.n,
        multiplicative_defect=worst_mult,
        trace_defect=worst_trace,
    )
