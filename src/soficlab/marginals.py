"""Conditional-marginal oracles: exact transfer matrices on lines, ball
enumeration with a safe boundary, and exact hardcore marginals of a pinned
ball graph (a numpy tree recursion over the whole batch on tree groups, the
memoised SAW unfolding per distinct row elsewhere).

A query hands over a pattern on B_r in canonical ball order together with a
conditioning mask; the oracle returns the conditional probability of the
pattern's center symbol given the masked sites.  Because B_r is always a
prefix of B_R in ball order, oracles built at a larger radius serve smaller
queries unchanged.
"""

from __future__ import annotations

import numpy as np

from . import enumeration, groups
from .constraints import ConstraintStructure, Potential, detect_safe_symbol
from .enumeration import SiteGraph
from .errors import InconsistentPinsError, NoSafeSymbolError, SchemaError
from .groups import GroupSpec
from .saw import hardcore_marginal_via_saw
from .transfer import build_transfer


def _memo_batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(N, L) patterns and masks -> (N,) center conditionals, one
    `self.conditional` call per distinct row over the oracle's lifetime.

    The memo lives on the oracle (`self._memo`), so a stream of small
    batches solves each distinct row once, as one large batch would.  Rows
    are keyed as int64 values and bool masks, 9 bytes per site, so rows of
    different widths never share a key.
    """
    values = np.asarray(values, dtype=np.int64)
    masks = np.asarray(masks, dtype=bool)
    cache = self._memo
    out = np.empty(len(values))
    for k, (v, m) in enumerate(zip(values, masks)):
        key = v.tobytes() + m.tobytes()
        if key not in cache:
            cache[key] = self.conditional(v, m)
        out[k] = cache[key]
    return out


class TransferOracle:
    """Exact conditionals of the infinite-volume measure on a rank-1 group."""

    name = "transfer"

    def __init__(self, structure: ConstraintStructure, potential: Potential, spec: GroupSpec, r_max: int):
        if spec.rank != 1:
            raise SchemaError("transfer oracle needs a rank-1 group")
        self.spec = spec
        self.r_max = r_max
        self.tm = build_transfer(structure, potential)
        self.offsets = np.array([groups.line_offset(spec, g) for g in groups.ball(spec, r_max).elements])
        self.tables = self.tm.conditional_tables(r_max)

    def conditional(self, values, mask) -> float:
        return float(self.batch(np.asarray(values)[None, :], np.asarray(mask)[None, :])[0])

    def batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(N, L) patterns and masks -> (N,) conditional probabilities of the center.

        The chain is Markov, so only the nearest pin on each side counts:
        with each side's columns ordered by distance to the center, it is
        the first True of the mask there.  Offsets on a rank-1 ball are
        distinct, so that pin is unique.
        """
        n, L = values.shape
        off = self.offsets[:L]
        rows = np.arange(n)
        near = []  # distance to, and symbol of, the nearest pin on the left, then the right
        for dist in (-off, off):
            cols = np.flatnonzero(dist > 0)
            cols = cols[np.argsort(dist[cols])]
            if len(cols) == 0:
                near += [0, 0]
                continue
            nearest = cols[masks[:, cols].argmax(axis=1)]
            # a side with no pin reads distance 0 and symbol index 0
            pinned = masks[rows, nearest]
            near += [np.where(pinned, dist[nearest], 0), np.where(pinned, values[rows, nearest], 0)]
        dl, bl, dr, br = near
        return self.tables[values[:, 0], dl, bl, dr, br]


class BallEnumerationOracle:
    """Enumeration on a padded ball with a safe-symbol boundary shell.

    Exact for the finite window; the gap to the infinite-volume conditional
    is budgeted by the mixing profile at the pad distance.
    """

    name = "ball"

    def __init__(
        self,
        structure: ConstraintStructure,
        potential: Potential,
        spec: GroupSpec,
        r_max: int,
        pad: int = 4,
    ):
        safe = detect_safe_symbol(structure)
        if safe is None:
            raise NoSafeSymbolError("ball oracle uses a safe boundary")
        self.structure = structure
        self.potential = potential
        self.spec = spec
        self.r_max = r_max
        self.pad = pad
        radius = r_max + pad
        self.ball = groups.ball(spec, radius)
        self.graph = SiteGraph.from_ball(self.ball)
        self.shell_pins = {
            self.ball.index[g]: safe for g in groups.ball(spec, radius).shell(radius)
        }
        # the center marginal of the last pin set: rows that differ only in
        # the center symbol, such as those of `uniform_bound_c`, arrive
        # consecutively and share one elimination
        self._last = (None, None)
        self._memo: dict[bytes, float] = {}

    def conditional(self, values, mask) -> float:
        pins = dict(self.shell_pins)
        for i in np.flatnonzero(np.asarray(mask)):
            pins[int(i)] = int(values[i])
        if self._last[0] != pins:
            probs = enumeration.site_marginal(
                self.graph, self.structure, self.potential, 0, pins=pins
            )
            self._last = (pins, probs)
        return float(self._last[1][int(values[0])])

    batch = _memo_batch


class SawOracle:
    """Exact hardcore conditionals of the pinned ball graph.

    On tree groups (F_k and the line) the ball graph is itself a tree, so
    `batch` runs the hardcore recursion R_v = lam_v prod_c 1/(1+R_c) level by
    level in numpy over every row at once, with pins as R = 0 (empty) or
    R = inf (occupied); children are multiplied in the order of the SAW
    unfolding, so each conditional is bitwise equal to
    `saw.hardcore_marginal_via_saw` on the same ball, activities and pins.
    On other groups each distinct row goes through the self-avoiding-walk
    unfolding of the pin-reduced ball graph, memoised on the oracle.

    boundary="free" truncates the graph at the ball; boundary
    "self_consistent" replaces the activity of the outermost shell with the
    occupation ratio R* of an infinite regular branch, which removes the
    truncation bias entirely on tree groups in the uniqueness regime.
    """

    name = "saw"

    def __init__(
        self,
        structure: ConstraintStructure,
        potential: Potential,
        spec: GroupSpec,
        r_max: int,
        boundary: str = "free",
    ):
        if not is_hardcore(structure, potential):
            raise SchemaError("SAW oracle supports hardcore models only")
        self.spec = spec
        self.r_max = r_max
        self.boundary = boundary
        self.tree = spec.kind == "free" or spec.rank == 1
        lam = float(np.exp(potential.h[1] - potential.h[0]))
        self.ball = groups.ball(spec, r_max)
        n = len(self.ball.elements)
        adj = [set() for _ in range(n)]
        for (i, _s, j) in self.ball.edges:
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
        self.adj = [sorted(s) for s in adj]
        self.lam = np.full(n, lam)
        if boundary == "self_consistent":
            if not self.tree:
                raise SchemaError("self-consistent boundary is exact only on tree groups")
            self.lam[n - self.ball.shell_sizes[-1]:] = _tree_fixed_point(lam, 2 * spec.rank)
        elif boundary != "free":
            raise SchemaError(f"unknown saw_boundary {boundary!r}; expected free or self_consistent")
        self._memo: dict[bytes, float] = {}
        if self.tree:
            self._tree_setup()

    def _tree_setup(self):
        """Levels of the ball by word length; each site's children (its
        neighbours one level out, in increasing site index, the order of
        `build_saw_tree`) as positions in the next level; and the ratio of
        every site with nothing pinned below it."""
        self.starts = np.cumsum((0,) + self.ball.shell_sizes)
        top = len(self.ball.shell_sizes) - 1
        self.kids = []
        for level in range(top + 1):
            nxt = self.starts[level + 1]
            sites = range(self.starts[level], nxt)
            self.kids.append(np.array([[j - nxt for j in self.adj[i] if j >= nxt] for i in sites], dtype=np.intp))
        self.free_ratio = [None] * (top + 1)
        ratio = np.zeros(0)
        for level in range(top, -1, -1):
            ratio = self.free_ratio[level] = self._level_ratio(level, ratio)
        self.edges = np.array([(i, j) for (i, _s, j) in self.ball.edges], dtype=np.intp).reshape(-1, 2)

    def _level_ratio(self, level: int, outer: np.ndarray) -> np.ndarray:
        """R of every site of one level from the ratios `outer` of the next
        level out, over any leading row axes of `outer`."""
        lam = self.lam[self.starts[level]:self.starts[level + 1]]
        factor = 1.0 / (1.0 + outer)
        ratio = np.empty(outer.shape[:-1] + lam.shape)
        ratio[...] = lam
        for k in range(self.kids[level].shape[1]):
            ratio *= factor[..., self.kids[level][:, k]]
        return ratio

    def conditional(self, values, mask) -> float:
        if self.tree:
            return float(self.batch(np.asarray(values)[None, :], np.asarray(mask)[None, :])[0])
        # pins live inside the query window; the marginal is computed on the
        # full padded ball so the free boundary sits far from the center
        pins = {int(i): int(values[i]) for i in np.flatnonzero(np.asarray(mask))}
        p_occ = hardcore_marginal_via_saw(self.adj, 0, self.lam, pins)
        return p_occ if int(values[0]) == 1 else 1.0 - p_occ

    def batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(N, L) patterns and masks -> (N,) center conditionals.

        On tree groups one level recursion runs over all N rows, so its
        memory is proportional to the batch; callers that stream many rows
        bound the batch (`randominfo._streamed_info`).
        """
        if not self.tree:
            return _memo_batch(self, values, masks)
        L = values.shape[1]
        starts = self.starts
        deepest = int(np.searchsorted(starts, L - 1, side="right")) - 1
        edges = self.edges[self.edges.max(axis=1) < L]
        pinned = masks.astype(bool, copy=False)
        occupied = pinned & (values == 1)
        clash = occupied[:, edges[:, 0]] & occupied[:, edges[:, 1]]
        if clash.any():
            i, j = edges[np.flatnonzero(clash.any(axis=0))[0]]
            raise InconsistentPinsError(f"adjacent occupied pins {i}, {j}")
        # sites at or beyond the query width are never pinned, so the
        # deepest level of the window starts from the unpinned ratios
        ratio = np.tile(self.free_ratio[deepest], (len(values), 1))
        for level in range(deepest, -1, -1):
            if level < deepest:
                ratio = self._level_ratio(level, ratio)
            if level > 0:  # a pinned center returns its pin below
                win = slice(starts[level], min(starts[level + 1], L))
                block = ratio[:, : win.stop - win.start]
                block[pinned[:, win]] = 0.0
                block[occupied[:, win]] = np.inf
        r0 = ratio[:, 0]
        p_occ = np.where(pinned[:, 0], values[:, 0], r0 / (1.0 + r0))
        return np.where(values[:, 0] == 1, p_occ, 1.0 - p_occ)


def _tree_fixed_point(lam: float, degree: int) -> float:
    """Occupation ratio R* = lam / (1+R*)^(degree-1) of the infinite regular
    branch, by bisection (the right side is decreasing in R*)."""
    lo, hi = 0.0, lam
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lam / (1.0 + mid) ** (degree - 1) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def is_hardcore(structure: ConstraintStructure, potential: Potential) -> bool:
    if structure.alphabet != 2 or not np.allclose(potential.J, 0.0):
        return False
    want = np.array([[True, True], [True, False]])
    return all(np.array_equal(structure.allowed[s], want) for s in range(structure.n_generators))


def make_oracle(
    kind: str,
    structure: ConstraintStructure,
    potential: Potential,
    spec: GroupSpec,
    r_max: int,
    pad: int = 4,
    saw_boundary: str = "free",
):
    """The conditional oracle of the given kind; "auto" is the exact transfer
    oracle on rank-1 groups and the safe-boundary ball oracle elsewhere."""
    if kind == "auto":
        kind = "transfer" if spec.rank == 1 else "ball"
    if kind == "transfer":
        return TransferOracle(structure, potential, spec, r_max)
    if kind == "ball":
        return BallEnumerationOracle(structure, potential, spec, r_max, pad=pad)
    if kind == "saw":
        # the self-consistent shell is already the infinite continuation, so
        # one layer beyond the conditioning radius suffices
        extra = 1 if saw_boundary == "self_consistent" else pad
        return SawOracle(structure, potential, spec, r_max + extra, boundary=saw_boundary)
    raise SchemaError(f"unknown oracle {kind!r}; expected auto, transfer, ball or saw")
