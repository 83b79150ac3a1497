"""Finitely generated groups Z^d and F_k: word metric, balls, Cayley-ball graphs.

Elements of Z^d are integer tuples of length d.  Elements of F_k are reduced
words stored as tuples of nonzero signed letters: letter ``+(i+1)`` is the
i-th positive generator, ``-(i+1)`` its inverse, and the product is read left
to right.  The empty tuple / zero vector is the identity.

Exhaustion convention: radius arguments always refer to word-metric balls
B_r; code that mirrors an exhaustion indexed from F_1 = {identity} uses
F_{r+1} = B_r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CapExceededError

BALL_CAP = 1_000_000  # the most elements of a ball
Element = tuple  # Z^d: tuple[int] of length d; F_k: reduced tuple of signed letters


@dataclass(frozen=True)
class GroupSpec:
    """A concrete group: free abelian Z^d (kind="zd") or free F_k (kind="free")."""

    kind: str
    rank: int

    def __post_init__(self):
        if self.kind not in ("zd", "free"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def n_generators(self) -> int:
        """Number of positive generators."""
        return self.rank

    def generator_names(self) -> list[str]:
        if self.kind == "zd":
            return [f"e{i + 1}" for i in range(self.rank)]
        return [chr(ord("a") + i) for i in range(self.rank)]


def zd(d: int) -> GroupSpec:
    return GroupSpec("zd", d)


def free(k: int) -> GroupSpec:
    return GroupSpec("free", k)


def is_tree(spec: GroupSpec) -> bool:
    """Whether the Cayley graph is a tree: F_k, or Z^1."""
    return spec.kind == "free" or spec.rank == 1


def identity(spec: GroupSpec) -> Element:
    if spec.kind == "zd":
        return (0,) * spec.rank
    return ()


def generator(spec: GroupSpec, s: int) -> Element:
    """Positive generator number s (0-based)."""
    if not 0 <= s < spec.rank:
        raise ValueError("generator index out of range")
    if spec.kind == "zd":
        return tuple(1 if i == s else 0 for i in range(spec.rank))
    return (s + 1,)


def _reduce_word(letters) -> Element:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def mul(spec: GroupSpec, g: Element, h: Element) -> Element:
    if spec.kind == "zd":
        return tuple(a + b for a, b in zip(g, h))
    return _reduce_word(g + h)


def inv(spec: GroupSpec, g: Element) -> Element:
    if spec.kind == "zd":
        return tuple(-a for a in g)
    return tuple(-a for a in reversed(g))


def word_length(spec: GroupSpec, g: Element) -> int:
    if spec.kind == "zd":
        return sum(abs(a) for a in g)
    return len(g)


def line_offset(spec: GroupSpec, g: Element) -> int:
    """Position of a rank-1 element on the line: g[0] on Z^1, the signed word
    length on F_1 (whose reduced words repeat one letter)."""
    if spec.kind == "zd":
        return g[0]
    return len(g) if not g or g[0] > 0 else -len(g)


def letters(spec: GroupSpec, g: Element) -> tuple[int, ...]:
    """Canonical reduced word for g, as signed letters in left-to-right product order.

    For Z^d the canonical word lists the e1 block first, then e2, etc.
    """
    if spec.kind == "free":
        return g
    out = []
    for i, a in enumerate(g):
        letter = (i + 1) if a > 0 else -(i + 1)
        out.extend([letter] * abs(a))
    return tuple(out)


def apply_letter(spec: GroupSpec, letter: int, g: Element) -> Element:
    """Left-multiply g by a single signed letter."""
    if spec.kind == "zd":
        i = abs(letter) - 1
        step = 1 if letter > 0 else -1
        return g[:i] + (g[i] + step,) + g[i + 1 :]
    # g is reduced, so only its first letter can cancel
    return g[1:] if g and g[0] == -letter else (letter,) + g


@dataclass(frozen=True)
class CayleyBall:
    """Word-metric ball B_r with its labeled edge set (g, s.g) for positive s."""

    spec: GroupSpec
    radius: int
    elements: tuple[Element, ...]
    index: dict = field(hash=False, compare=False)
    edges: tuple[tuple[int, int, int], ...]  # (src index, positive gen index, dst index)
    shell_sizes: tuple[int, ...]  # |B_0|, |B_1|-|B_0|, ...

    def __len__(self) -> int:
        return len(self.elements)

    def shell(self, r: int) -> tuple[Element, ...]:
        """Elements at word length exactly r."""
        lo = sum(self.shell_sizes[:r])
        return self.elements[lo : lo + self.shell_sizes[r]]


# every ball asked for, kept for the process by (group, radius)
_BALLS: dict[tuple[GroupSpec, int], CayleyBall] = {}


def ball(spec: GroupSpec, r: int) -> CayleyBall:
    """Ball B_r sorted length-lexicographically; B_r is a prefix of B_{r+1}.

    B_r is cut from the smallest larger ball of the group asked for so far
    (`_prefix_ball`), else grown a shell at a time from the largest smaller
    one (B_0 if none), and kept for the process; the balls grown through
    are not kept.  `ball.cache_clear()` drops every kept ball.  A ball of
    more than BALL_CAP elements is a CapExceededError.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    b = _BALLS.get((spec, r))
    if b is None:
        kept = [k for g, k in list(_BALLS) if g == spec]
        above = [k for k in kept if k > r]
        if above:
            b = _prefix_ball(_BALLS[spec, min(above)], r)
        elif kept:  # every kept ball of the group is smaller
            b = _BALLS[spec, max(kept)]
        else:
            e = identity(spec)
            b = CayleyBall(spec=spec, radius=0, elements=(e,), index={e: 0}, edges=(), shell_sizes=(1,))
        while b.radius < r:
            b = _next_ball(b, BALL_CAP)
        _BALLS[spec, r] = b
    return b


ball.cache_clear = _BALLS.clear  # the name functools.lru_cache gives it


def _next_ball(prev: CayleyBall, cap: int) -> CayleyBall:
    """B_{r+1} from B_r = prev: one new sorted shell, prev's elements and
    index extended, and prev's edges from sites of length at most r-1 kept,
    since all their neighbours lie in B_r; only the edges of shells r and
    r+1 are computed.  On F_k the shell and its edges come from reduced
    words alone (`_free_shell`)."""
    spec, r = prev.spec, prev.radius
    index = prev.index
    if spec.kind == "free":
        shell = _free_shell(spec.rank, prev.shell(r))
    else:
        signed = [s for i in range(spec.rank) for s in (i + 1, -(i + 1))]
        shell = sorted({h for g in prev.shell(r) for letter in signed
                        if (h := apply_letter(spec, letter, g)) not in index})
    total = len(prev) + len(shell)
    if total > cap:
        raise CapExceededError(f"ball size exceeds cap {cap}")
    elements = prev.elements + tuple(shell)
    index = dict(index)
    index.update((g, i) for i, g in enumerate(shell, len(prev)))
    lo = len(prev) - prev.shell_sizes[r]  # the first site of shell r
    keep = len(prev.edges)  # edges are in source order: drop those from shell r
    while keep and prev.edges[keep - 1][0] >= lo:
        keep -= 1
    edges = list(prev.edges[:keep])
    if spec.kind == "free":
        _free_edges(spec.rank, elements, index, lo, len(prev), edges)
    else:
        for i in range(lo, total):
            g = elements[i]
            for s in range(spec.rank):
                j = index.get(apply_letter(spec, s + 1, g))
                if j is not None:
                    edges.append((i, s, j))
    return CayleyBall(
        spec=spec,
        radius=r + 1,
        elements=elements,
        index=index,
        edges=tuple(edges),
        shell_sizes=prev.shell_sizes + (len(shell),),
    )


def _free_shell(rank: int, shell: tuple) -> list:
    """The words of length r+1 of F_rank, sorted, from those of length r
    (sorted): each letter, in order, before each word it does not cancel.
    In a tree every such word is new, so none is looked up."""
    return [(letter,) + g for letter in sorted(s for i in range(1, rank + 1) for s in (i, -i))
            for g in shell if not g or g[0] != -letter]


def _free_edges(rank: int, elements: tuple, index: dict, lo: int, hi: int, edges: list) -> None:
    """Append to `edges` the edges (i, s, j) of F_rank's ball from the sites
    i of shell r (lo <= i < hi) and shell r+1 (i >= hi), in source then
    generator order.  s.g cancels g's first letter when that is -(s+1), and
    else prefixes it: from shell r both lie in the ball; from shell r+1 only
    the cancelling one does."""
    for i in range(lo, hi):
        g = elements[i]
        for s in range(1, rank + 1):
            edges.append((i, s - 1, index[g[1:] if g and g[0] == -s else (s,) + g]))
    for i in range(hi, len(elements)):
        g = elements[i]
        if g[0] < 0:
            edges.append((i, -g[0] - 1, index[g[1:]]))


def _prefix_ball(big: CayleyBall, r: int) -> CayleyBall:
    """B_r cut from a larger ball: its first |B_r| elements, their index,
    and its edges with both ends among them, which are in source order."""
    m = sum(big.shell_sizes[: r + 1])
    elements = big.elements[:m]
    return CayleyBall(
        spec=big.spec,
        radius=r,
        elements=elements,
        index={g: i for i, g in enumerate(elements)},
        edges=tuple(e for e in itertools.takewhile(lambda e: e[0] < m, big.edges) if e[2] < m),
        shell_sizes=big.shell_sizes[: r + 1],
    )


def boundary_shell(spec: GroupSpec, r: int) -> tuple[Element, ...]:
    """The M-boundary of B_r for M = B_1: elements at word length exactly r+1."""
    return ball(spec, r + 1).shell(r + 1)
