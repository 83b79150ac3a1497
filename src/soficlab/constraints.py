"""Nearest-neighbor constraint structures and admissibility machinery.

A constraint structure is an alphabet {0..a-1} with one allowed-pair relation
per positive generator; configurations are structural homomorphisms from a
Cayley (or sofic) graph into it.  A potential assigns per-site and per-edge
log-weights with the same nearest-neighbor footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import groups
from .errors import BudgetExceededError
from .groups import Element, GroupSpec

ADMISSIBILITY_NODE_BUDGET = 2_000_000  # search nodes of one `is_globally_admissible`
TSSM_PAD, TSSM_MAX_ASSIGNMENTS = 3, 200_000  # the search pad and value assignments of `check_tssm`


class ConstraintStructure:
    """Alphabet size plus an a-by-a boolean allowed-pair matrix per generator."""

    def __init__(self, alphabet: int, allowed):
        self.alphabet = int(alphabet)
        self.allowed = np.ascontiguousarray(np.asarray(allowed, dtype=bool))
        if self.allowed.ndim != 3 or self.allowed.shape[1:] != (alphabet, alphabet):
            raise ValueError("allowed must have shape (n_generators, a, a)")
        if not self.allowed.any(axis=(1, 2)).all():
            raise ValueError("some generator relation allows no pair; the shift is empty")
        self.n_generators = self.allowed.shape[0]

    def key(self) -> bytes:
        return self.allowed.tobytes() + bytes([self.alphabet, self.n_generators])

    def __eq__(self, other):
        return isinstance(other, ConstraintStructure) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


@dataclass
class Potential:
    """Vertex log-weights h and per-generator edge log-weights J."""

    h: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.J = np.asarray(self.J, dtype=float)
        if self.J.ndim != 3 or self.J.shape[1] != self.J.shape[2] or self.h.ndim != 1:
            raise ValueError("h must be (a,), J must be (n_generators, a, a)")
        if not (np.isfinite(self.h).all() and np.isfinite(self.J).all()):
            raise ValueError("potential entries must be finite")

    @property
    def alphabet(self) -> int:
        return self.h.shape[0]

    def norm(self) -> float:
        """Upper bound on |phi|: max|h| + sum_s max|J_s|."""
        return float(np.max(np.abs(self.h)) + np.sum(np.max(np.abs(self.J), axis=(1, 2))))


def zero_potential(alphabet: int, n_generators: int) -> Potential:
    return Potential(np.zeros(alphabet), np.zeros((n_generators, alphabet, alphabet)))


def hardcore(n_generators: int, lam: float) -> tuple[ConstraintStructure, Potential]:
    """Independent sets with activity lam: forbid adjacent occupied pairs."""
    allowed = np.ones((n_generators, 2, 2), dtype=bool)
    allowed[:, 1, 1] = False
    h = np.array([0.0, np.log(lam)])
    return ConstraintStructure(2, allowed), Potential(h, np.zeros((n_generators, 2, 2)))


def full_shift(alphabet: int, n_generators: int) -> ConstraintStructure:
    return ConstraintStructure(alphabet, np.ones((n_generators, alphabet, alphabet), dtype=bool))


def checkerboard(n_generators: int) -> ConstraintStructure:
    """Forbid equal adjacent symbols on a binary alphabet."""
    allowed = np.ones((n_generators, 2, 2), dtype=bool)
    allowed[:, 0, 0] = False
    allowed[:, 1, 1] = False
    return ConstraintStructure(2, allowed)


@dataclass(frozen=True)
class Pattern:
    """Partial map from group elements to symbols."""

    sites: tuple[Element, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.sites) != len(set(self.sites)):
            raise ValueError("pattern sites must be distinct")
        if len(self.sites) != len(self.values):
            raise ValueError("sites and values must align")

    def as_dict(self) -> dict:
        return dict(zip(self.sites, self.values))


def detect_safe_symbol(structure: ConstraintStructure):
    """Smallest symbol whose row and column are all-true in every relation."""
    for a in range(structure.alphabet):
        if structure.allowed[:, a, :].all() and structure.allowed[:, :, a].all():
            return a
    return None


@lru_cache(maxsize=None)
def _core_symbols_cached(key: bytes, alphabet: int, allowed_bytes: bytes, n_gen: int):
    allowed = np.frombuffer(allowed_bytes, dtype=bool).reshape(n_gen, alphabet, alphabet)
    alive = np.ones(alphabet, dtype=bool)
    changed = True
    while changed:
        changed = False
        for a in range(alphabet):
            if not alive[a]:
                continue
            for s in range(n_gen):
                if not (allowed[s, a, :] & alive).any() or not (allowed[s, :, a] & alive).any():
                    alive[a] = False
                    changed = True
                    break
    return tuple(np.flatnonzero(alive).tolist())


def core_symbols(structure: ConstraintStructure) -> tuple[int, ...]:
    """Symbols that survive iterated removal of per-generator dead ends.

    Any point of the full orbit space uses only these symbols: every symbol in
    a bi-infinite structural homomorphism needs a successor and a predecessor
    per generator.
    """
    return _core_symbols_cached(
        structure.key(), structure.alphabet, structure.allowed.tobytes(), structure.n_generators
    )


def is_locally_admissible(structure: ConstraintStructure, spec: GroupSpec, pattern: Pattern) -> bool:
    lookup = pattern.as_dict()
    for g, a in lookup.items():
        for s in range(spec.n_generators):
            h = groups.apply_letter(spec, s + 1, g)
            b = lookup.get(h)
            if b is not None and not structure.allowed[s, a, b]:
                return False
    return True


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN_AT_PAD = "unknown_at_pad"


def is_globally_admissible(
    structure: ConstraintStructure,
    spec: GroupSpec,
    pattern: Pattern,
    pad: int = 2,
) -> Verdict:
    """Search for an extension of the pattern to a padded ball.

    NO is always definitive: a globally admissible pattern restricts to a
    locally admissible total pattern on any ball, and only core symbols can
    occur in a point of the shift.  YES needs a certificate that a total
    ball filling extends to the whole group: a safe symbol, or a tree-shaped
    Cayley graph with the filling drawn from core symbols.
    """
    if not pattern.sites:
        return Verdict.YES
    if not is_locally_admissible(structure, spec, pattern):
        return Verdict.NO
    core = core_symbols(structure)
    if not core:
        return Verdict.NO
    if any(v not in core for v in pattern.values):
        return Verdict.NO
    safe = detect_safe_symbol(structure)
    if safe is not None:
        return Verdict.YES

    from .enumeration import SiteGraph, has_admissible_filling

    radius = max(groups.word_length(spec, g) for g in pattern.sites)
    b = groups.ball(spec, radius + pad)
    graph = SiteGraph.from_ball(b)
    pins = {b.index[g]: v for g, v in zip(pattern.sites, pattern.values)}
    found = has_admissible_filling(graph, structure, pins, symbols=core, node_budget=ADMISSIBILITY_NODE_BUDGET)
    if found is None:
        raise BudgetExceededError("extension search budget exceeded")
    if not found:
        return Verdict.NO
    if groups.is_tree(spec):
        return Verdict.YES
    return Verdict.UNKNOWN_AT_PAD


@dataclass
class TssmVerdict:
    kind: str  # "safe_symbol" | "holds_up_to" | "violated"
    range_radius: int = 1
    tested_radius: int = 0
    tested_support: int = 0
    complete: bool = True
    safe_symbol: int | None = None
    witness: Pattern | None = None

    @property
    def certified(self) -> bool:
        return self.kind == "safe_symbol"


def check_tssm(
    structure: ConstraintStructure,
    spec: GroupSpec,
    m: int = 1,
    radius: int = 3,
    k_max: int = 3,
) -> TssmVerdict:
    """Bounded check of topological strong spatial mixing with range B_m.

    Fast path: a safe symbol certifies TSSM with range B_1 outright (any
    locally admissible pattern extends by filling with the safe symbol).
    Otherwise patterns on supports F inside B_radius with |F| <= k_max are
    searched for a witness: all windows on F intersected with B_m g globally
    admissible while the full pattern is not.  Refutations are definitive;
    absent a witness the verdict is a bounded certificate.
    """
    from itertools import combinations, product

    safe = detect_safe_symbol(structure)
    if safe is not None:
        return TssmVerdict(kind="safe_symbol", range_radius=1, safe_symbol=safe)
    if m > radius:
        raise ValueError("need m <= radius")

    core = core_symbols(structure)
    elements = groups.ball(spec, radius).elements
    checked = 0
    for size in range(2, k_max + 1):
        for support in combinations(elements, size):
            # windows F ∩ B_m g for g in F
            windows = []
            for g in support:
                win = tuple(
                    h
                    for h in support
                    if groups.word_length(spec, groups.mul(spec, h, groups.inv(spec, g))) <= m
                )
                windows.append(win)
            for values in product(core, repeat=size):
                checked += 1
                if checked > TSSM_MAX_ASSIGNMENTS:
                    return TssmVerdict(
                        kind="holds_up_to",
                        tested_radius=radius,
                        tested_support=k_max,
                        complete=False,
                    )
                lookup = dict(zip(support, values))
                ok_windows = True
                for win in windows:
                    wpat = Pattern(win, tuple(lookup[h] for h in win))
                    if is_globally_admissible(structure, spec, wpat, pad=TSSM_PAD) != Verdict.YES:
                        ok_windows = False
                        break
                if not ok_windows:
                    continue
                full = Pattern(support, values)
                if is_globally_admissible(structure, spec, full, pad=TSSM_PAD) == Verdict.NO:
                    return TssmVerdict(
                        kind="violated",
                        tested_radius=radius,
                        tested_support=k_max,
                        witness=full,
                    )
    return TssmVerdict(kind="holds_up_to", tested_radius=radius, tested_support=k_max)
