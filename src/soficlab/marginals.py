"""Conditional-marginal oracles: exact transfer matrices on lines, ball
elimination with a safe boundary shell, memoised per distinct row, and exact
hardcore marginals of a pinned ball graph on tree groups (a numpy tree
recursion over the whole batch).  Off tree groups the ball oracle is the one
pinned-ball engine: for hardcore its empty shell at radius R+1 is a free
boundary at radius R.

A query hands over a pattern on B_r in canonical ball order together with a
conditioning mask; the oracle returns the conditional probability of the
pattern's center symbol given the masked sites.  Because B_r is always a
prefix of B_R in ball order, oracles built at a larger radius serve smaller
queries unchanged; rows wider than an oracle's ball are a ValueError.

Every oracle answers the same two calls: `batch(values, masks)` for rows
with their masks, and `percolation_batch(patterns, n_inner, ball_size, rng,
out)` for rows whose masks are percolation pasts drawn from rng, which the
transfer and tree oracles draw inside their compiled kernels.
"""

from __future__ import annotations

import numpy as np

from . import enumeration, groups, kernels
from ._glauber_py import Tree, level_ratio, tree_batch
from .constraints import ConstraintStructure, Potential, detect_safe_symbol
from .enumeration import SiteGraph
from .errors import InconsistentPinsError, NoSafeSymbolError, SchemaError
from .groups import GroupSpec
from .pasts import percolation_chunks
from .transfer import build_transfer


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
        # ball order is by word length, which is the distance to the center,
        # so sides[s, k] is the column at distance k+1 on the left, then the right
        self.sides = np.stack([np.flatnonzero(self.offsets < 0), np.flatnonzero(self.offsets > 0)])
        self.tables = self.tm.conditional_tables(r_max)

    def conditional(self, values, mask) -> float:
        return float(self.batch(np.asarray(values)[None, :], np.asarray(mask)[None, :])[0])

    def batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(N, L) patterns and masks -> (N,) conditional probabilities of the center.

        The chain is Markov, so only the nearest pin on each side counts:
        with each side's columns ordered by distance to the center, it is
        the first pinned one there.  Offsets on a rank-1 ball are distinct,
        so that pin is unique.  `kernels.transfer_lookup` finds both pins
        and reads the table; rows keep their stride, so broadcast pattern
        rows and sliced masks are not copied.  Rows wider than the oracle's
        ball, and a center or nearest-pin symbol outside the alphabet, are
        a ValueError.
        """
        values = _rows(values, np.int64)
        _check_width(values.shape[-1], len(self.offsets), self.r_max)
        return kernels.transfer_lookup(values, _rows(masks, bool), self.sides, self.tables)

    def percolation_batch(self, patterns: np.ndarray, n_inner: int, ball_size: int, rng, out: np.ndarray):
        """out[k] = the conditional of the center of patterns[k // n_inner]
        given the k-th of len(out) percolation pasts on a ball of ball_size
        sites, drawn from rng.

        The pasts are those of `pasts.sample_percolation_masks(spec, r,
        len(out), rng)` cut to the pattern width, but `kernels.percolation_lookup`
        draws each one as it reads it, so no uniforms, masks or value rows
        are held.  The errors are those of `batch`.
        """
        patterns = _rows(patterns, np.int64)
        _check_width(patterns.shape[1], len(self.offsets), self.r_max)
        kernels.percolation_lookup(patterns, n_inner, 0, ball_size, self.sides, self.tables, rng, out)


def _check_width(width: int, sites: int, radius: int):
    """Every oracle's refusal of rows wider than its ball B_radius of `sites`
    sites: the oracle reads no site past its ball, so a pin there would go
    unread."""
    if width > sites:
        raise ValueError(f"rows of width {width} are wider than the {sites} sites "
                         f"of the oracle's ball B_{radius}")


def _rows(arr, dtype) -> np.ndarray:
    """arr as a `dtype` array whose columns are contiguous, as the transfer
    lookup reads them; an array that already is one is returned uncopied."""
    arr = np.asarray(arr, dtype=dtype)
    if arr.ndim == 2 and (arr.shape[1] > 1 and arr.strides[1] != arr.itemsize or arr.strides[0] < 0):
        arr = np.ascontiguousarray(arr)
    return arr


class BallEnumerationOracle:
    """Elimination on a padded ball with a safe-symbol boundary shell.

    Exact for the finite window; the gap to the infinite-volume conditional
    is budgeted by the mixing profile at the pad distance.  For hardcore the
    empty shell at radius r_max + pad is a free boundary one step in, so at
    pad p+1 this oracle gives the free-boundary conditionals of B_{r_max+p}.
    Pins that admit no configuration raise InconsistentPinsError.
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
        self.shell_pins = {self.ball.index[g]: safe for g in self.ball.shell(radius)}
        # the center marginal of the last pin set: rows that differ only in
        # the center symbol, such as those of `uniform_bound_c`, arrive
        # consecutively and share one elimination
        self._last = (None, None)
        self._memo: dict[bytes, float] = {}

    def conditional(self, values, mask) -> float:
        _check_width(len(values), len(self.ball), self.r_max + self.pad)
        pins = dict(self.shell_pins)
        for i in np.flatnonzero(np.asarray(mask)):
            pins[int(i)] = int(values[i])
        if self._last[0] != pins:
            probs = enumeration.site_marginal(
                self.graph, self.structure, self.potential, 0, pins=pins
            )
            if np.isnan(probs[0]):
                raise InconsistentPinsError("the pins admit no configuration of the ball and its safe shell")
            self._last = (pins, probs)
        return float(self._last[1][int(values[0])])

    def batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(N, L) patterns and masks -> (N,) center conditionals, one
        `conditional` call per distinct row over the oracle's lifetime.

        The memo lives on the oracle, so a stream of small batches solves
        each distinct row once, as one large batch would.  Rows are keyed as
        int64 values and bool masks, 9 bytes per site, so rows of different
        widths never share a key, and a row wider than the padded ball is
        refused by `conditional` before it is keyed.
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

    def percolation_batch(self, patterns: np.ndarray, n_inner: int, ball_size: int, rng, out: np.ndarray):
        """out[k] = the conditional of the center of patterns[k // n_inner]
        given the k-th of len(out) percolation pasts on a ball of ball_size
        sites, drawn from rng in the chunks of `pasts.percolation_chunks`,
        each chunk one `batch`, whose memo needs whole rows."""
        patterns = np.asarray(patterns, dtype=np.int64)
        _check_width(patterns.shape[1], len(self.ball), self.r_max + self.pad)
        for start, stop, rows, masks in percolation_chunks(patterns, n_inner, 0, len(out), ball_size, rng):
            out[start:stop] = self.batch(rows, masks)


class SawOracle:
    """Exact hardcore conditionals of the pinned ball graph of a tree group.

    On tree groups (F_k and the line) the ball graph is itself a tree, so
    the oracle runs the hardcore recursion R_v = lam_v prod_c 1/(1+R_c)
    (Weitz, STOC 2006) level by level, with pins as R = 0 (empty) or
    R = inf (occupied); children are multiplied in the order of the SAW
    unfolding, so each conditional is bitwise equal to
    `saw.hardcore_marginal_via_saw` on the same ball, activities and pins.
    `batch` is the numpy recursion `_glauber_py.tree_batch` over every row
    at once; `percolation_batch` is `kernels.tree_percolation`, which draws
    each past as it runs the recursion on it and gives `batch`'s results
    bitwise.  Other groups are refused: there the self-avoiding-walk tree
    of the ball grows exponentially with its radius, and the ball oracle one
    pad further out gives the same conditionals, since an empty shell at
    radius R+1 is a free boundary at radius R.

    boundary="free" truncates the graph at the ball; boundary
    "self_consistent" replaces the activity of the outermost shell with the
    occupation ratio R* of an infinite unpinned regular branch.  In the
    uniqueness regime that makes each conditional exact for the pins it is
    given, but it does not remove the truncation bias of the estimators: a
    random past also pins sites beyond B_r, which this shell treats as
    free.  On F_2 hardcore at lambda = 1 (`nu: fixed0`, N = 200,000) the
    estimate at r = 4 is 0.39709 +- 0.00040, 10 stderr below the Bethe
    pressure 0.401225, and at r = 6 still 4.5 stderr below it (ROADMAP
    item 9).
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
        if not groups.is_tree(spec):
            raise SchemaError(
                "the SAW oracle runs on tree groups (F_k and Z^1) only; off them oracle: ball at "
                "pad: p+1 gives the conditionals of oracle: saw at pad: p"
            )
        self.spec = spec
        self.r_max = r_max
        self.boundary = boundary
        lam = float(np.exp(potential.h[1] - potential.h[0]))
        self.ball = groups.ball(spec, r_max)
        n = len(self.ball.elements)
        self.lam = np.full(n, lam)
        if boundary == "self_consistent":
            self.lam[n - self.ball.shell_sizes[-1]:] = _tree_fixed_point(lam, 2 * spec.rank)
        elif boundary != "free":
            raise SchemaError(f"unknown saw_boundary {boundary!r}; expected free or self_consistent")
        self.tree = self._tree()

    def _tree(self) -> Tree:
        """The ball as the tree kernels read it: levels by word length; each
        site's children its neighbours one level out, in increasing site
        index (the order of `build_saw_tree`); and the ratio of every site
        with nothing pinned below it."""
        starts = np.cumsum((0,) + self.ball.shell_sizes, dtype=np.int64)
        edges = np.ascontiguousarray(np.array(self.ball.edges, dtype=np.int64).reshape(-1, 3)[:, [0, 2]])
        # a tree ball's edges join consecutive levels once each, and ball
        # order is by level, so the larger end of each edge is the child
        pairs = np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        child_ptr = np.concatenate(([0], np.cumsum(np.bincount(pairs[:, 0], minlength=len(self.lam)))))
        tree = Tree(starts, child_ptr, pairs[:, 1].copy(), self.lam, np.empty(0), edges)
        free = [np.zeros(0)]
        for level in range(len(starts) - 2, -1, -1):
            free.insert(0, level_ratio(tree, level, free[0]))
        return tree._replace(free=np.concatenate(free))

    def conditional(self, values, mask) -> float:
        return float(self.batch(np.asarray(values)[None, :], np.asarray(mask)[None, :])[0])

    def batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(N, L) patterns and masks -> (N,) center conditionals by
        `_glauber_py.tree_batch`, whose memory is proportional to the batch.

        Rows wider than the oracle's ball are a ValueError; a center or pin
        symbol outside {0, 1} is `symbol_error`, and adjacent occupied pins
        are `InconsistentPinsError`, each of the first row that has one.
        """
        values = np.asarray(values, dtype=np.int64)
        _check_width(values.shape[1], len(self.ball), self.r_max)
        return tree_batch(values, np.asarray(masks, dtype=bool), self.tree)

    def percolation_batch(self, patterns: np.ndarray, n_inner: int, ball_size: int, rng, out: np.ndarray):
        """out[k] = the conditional of the center of patterns[k // n_inner]
        given the k-th of len(out) percolation pasts on a ball of ball_size
        sites, drawn from rng inside `kernels.tree_percolation`; the results,
        the errors and the generator's state are those of `batch` over the
        masks of `pasts.percolation_chunks`."""
        patterns = _rows(patterns, np.int64)
        _check_width(patterns.shape[1], len(self.ball), self.r_max)
        kernels.tree_percolation(patterns, n_inner, 0, ball_size, self.tree, rng, out)


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
    """The conditional oracle of the given kind, and the only code that picks
    a kind: "auto" is the exact transfer oracle on rank-1 groups, the SAW
    oracle (a linear tree recursion) for hardcore models on free groups, and
    the safe-boundary ball oracle elsewhere."""
    if kind == "auto":
        if spec.rank == 1:
            kind = "transfer"
        elif spec.kind == "free" and is_hardcore(structure, potential):
            kind = "saw"
        else:
            kind = "ball"
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
