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

from dataclasses import dataclass, field
from functools import lru_cache

from .config import ball_cap
from .errors import CapExceededError

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
    return _reduce_word((letter,) + g)


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


@lru_cache(maxsize=None)
def ball(spec: GroupSpec, r: int) -> CayleyBall:
    """Ball B_r sorted length-lexicographically; B_r is a prefix of B_{r+1}."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    cap = ball_cap()
    shells: list[list[Element]] = [[identity(spec)]]
    seen = {identity(spec)}
    signed = [s for i in range(spec.rank) for s in (i + 1, -(i + 1))]
    total = 1
    for _ in range(r):
        nxt = set()
        for g in shells[-1]:
            for letter in signed:
                h = apply_letter(spec, letter, g)
                if h not in seen:
                    nxt.add(h)
        total += len(nxt)
        if total > cap:
            raise CapExceededError(f"ball size exceeds cap {cap}")
        seen.update(nxt)
        shells.append(sorted(nxt))
    elements = tuple(g for shell in shells for g in shell)
    index = {g: i for i, g in enumerate(elements)}
    edges = []
    for i, g in enumerate(elements):
        for s in range(spec.rank):
            h = apply_letter(spec, s + 1, g)
            j = index.get(h)
            if j is not None:
                edges.append((i, s, j))
    return CayleyBall(
        spec=spec,
        radius=r,
        elements=elements,
        index=index,
        edges=tuple(edges),
        shell_sizes=tuple(len(s) for s in shells),
    )


def boundary_shell(spec: GroupSpec, r: int) -> tuple[Element, ...]:
    """The M-boundary of B_r for M = B_1: elements at word length exactly r+1."""
    return ball(spec, r + 1).shell(r + 1)


def ball_certificate(spec: GroupSpec, r: int):
    """Canonical certificate of the rooted, edge-labeled ball B_r.

    Two groups' balls are isomorphic as rooted labeled digraphs iff the
    certificates are equal.  The BFS discovery order is canonical because
    every vertex has at most one outgoing and one incoming edge per label.
    """
    b = ball(spec, r)
    signed = [s for i in range(spec.rank) for s in (i + 1, -(i + 1))]
    order = {identity(spec): 0}
    queue = [identity(spec)]
    while queue:
        g = queue.pop(0)
        for letter in signed:
            h = apply_letter(spec, letter, g)
            if h in b.index and h not in order:
                order[h] = len(order)
                queue.append(h)
    edges = sorted(
        (order[b.elements[i]], s, order[b.elements[j]]) for (i, s, j) in b.edges
    )
    return (spec.rank, len(b.elements), tuple(edges))


def balls_isomorphic(spec_a: GroupSpec, spec_b: GroupSpec, r: int) -> bool:
    return ball_certificate(spec_a, r) == ball_certificate(spec_b, r)
