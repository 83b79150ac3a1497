"""Conditional-marginal oracles: exact transfer matrices on lines, ball
elimination with a safe boundary shell, memoised per pin set, and exact
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
with their masks, and `percolation_batch(patterns, n_inner, rng, consume,
unit)` for n_inner rows per pattern whose masks are percolation pasts on
the pattern's sites drawn from rng, which the transfer and tree oracles
draw inside their compiled kernels.  No oracle holds every row's
conditional: each hands them to consume(lo, hi, p) in chunks of at most
`pasts.CHUNK_FLOATS` rows that start at multiples of unit, the compiled
kernels from their worker threads, so the caller keeps what it needs of
each chunk and memory does not grow with the rows.
"""

from __future__ import annotations

import numpy as np

from . import enumeration, groups, kernels
from ._glauber_py import Tree, check_patterns, check_rows, symbol_error, transfer_lookup, tree_batch
from .constraints import ConstraintStructure, Potential, detect_safe_symbol
from .enumeration import SiteGraph
from .errors import InconsistentPinsError, NoSafeSymbolError, SchemaError
from .groups import GroupSpec
from .pasts import percolation_rows
from .transfer import LOG_FLOAT_MAX, build_transfer


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
        so that pin is unique.  `_glauber_py.transfer_lookup` finds both
        pins of every row at once and reads the table, on either kernel
        backend; a pinned center gives 1.  Rows wider than the oracle's
        ball, and a center or nearest-pin symbol outside the alphabet, are
        a ValueError.
        """
        values = np.asarray(values, dtype=np.int64)
        _check_width(values.shape[-1], len(self.offsets), self.r_max)
        return transfer_lookup(values, np.asarray(masks, dtype=bool), self.sides, self.tables)

    def percolation_batch(self, patterns: np.ndarray, n_inner: int, rng, consume, unit: int = 1):
        """consume(lo, hi, p) with p[i] the conditional of the center of
        row lo + i, pattern (lo + i) // n_inner, given the (lo + i)-th of n
        = len(patterns) * n_inner percolation pasts, drawn from rng, in
        chunks that start at multiples of unit (which divides n).

        For patterns on B_r the pasts are `pasts.sample_percolation_masks(spec,
        r, n, rng)`, but `kernels.percolation_lookup` draws each one as it
        reads it, so no uniforms, masks or value rows are held.  A symbol
        outside the alphabet anywhere in the patterns is `symbol_error`
        before any draw, whatever the pasts would read.
        """
        patterns = _integer_rows(patterns)
        _check_width(patterns.shape[1], len(self.offsets), self.r_max)
        kernels.percolation_lookup(patterns, n_inner, self.sides, self.tables, rng, consume, unit)


def _integer_rows(patterns) -> np.ndarray:
    """The patterns of `percolation_batch` as a C-contiguous array of their
    own integer dtype, others as int64: each chunk of rows is converted to
    int64 only as it runs, so the int8 windows of mu need no int64 copy."""
    patterns = np.asarray(patterns)
    return np.ascontiguousarray(patterns, dtype=None if patterns.dtype.kind in "iu" else np.int64)


def _check_width(width: int, sites: int, radius: int):
    """Every oracle's refusal of rows wider than its ball B_radius of `sites`
    sites, since the oracle reads no site past its ball and a pin there
    would go unread, and of rows without the center column."""
    if width < 1:
        raise ValueError("rows need a center column")
    if width > sites:
        raise ValueError(f"rows of width {width} are wider than the {sites} sites "
                         f"of the oracle's ball B_{radius}")


class BallEnumerationOracle:
    """Elimination on a padded ball with a safe-symbol boundary shell.

    Exact for the finite window; the gap to the infinite-volume conditional
    is budgeted by the mixing profile at the pad distance.  For hardcore the
    empty shell at radius r_max + pad is a free boundary one step in, so at
    pad p+1 this oracle gives the free-boundary conditionals of B_{r_max+p}.
    Pins that admit no configuration raise InconsistentPinsError.

    One memo, kept for the oracle's lifetime, maps each pin set (the mask
    and the symbols at the masked sites) to the center marginal of one
    elimination; every row with that pin set reads it, whatever its center
    symbol and its symbols at unpinned sites.
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
        # the (i, s, j) edges of the ball between non-center sites, which two
        # pins of one past can hold
        self._pin_edges = np.array([e for e in self.ball.edges if e[0] and e[2]], np.int64).reshape(-1, 3)
        # pin set (`_key`) -> center marginal, over the oracle's lifetime
        self._memo: dict[bytes, list] = {}

    @staticmethod
    def _key(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """The pin set of each row as int64: its mask, then its symbols at
        the masked sites and 0 elsewhere (so a row's width is in its key)."""
        return np.concatenate([masks, np.where(masks, values, 0)], axis=-1, dtype=np.int64)

    def conditional(self, values, mask) -> float:
        """The center conditional of one row, from the memoised center
        marginal of its pin set, eliminated on a miss: a center or pinned
        symbol outside the alphabet, center first, is `symbol_error`."""
        _check_width(len(values), len(self.ball), self.r_max + self.pad)
        a = self.structure.alphabet
        values, mask = np.asarray(values), np.asarray(mask, dtype=bool)
        pinned = np.flatnonzero(mask)
        for i in (0, *pinned):
            if not 0 <= values[i] < a:
                raise symbol_error(int(values[i]), a)
        key = self._key(values, mask).tobytes()
        if key not in self._memo:
            pins = {**self.shell_pins, **{int(i): int(values[i]) for i in pinned}}
            probs = enumeration.site_marginal(self.graph, self.structure, self.potential, 0, pins=pins)
            if np.isnan(probs[0]):
                raise InconsistentPinsError("the pins admit no configuration of the ball and its safe shell")
            self._memo[key] = probs.tolist()
        return self._memo[key][int(values[0])]

    def batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(N, L) patterns and masks -> (N,) center conditionals, one
        `conditional` call per distinct pin set over the oracle's lifetime,
        so a stream of small batches solves each pin set once, as one large
        batch would.  A memo hit checks its center symbol as `conditional`
        does; rows wider than the padded ball are refused before any row."""
        values = np.asarray(values, dtype=np.int64)
        masks = np.asarray(masks, dtype=bool)
        _check_width(values.shape[-1], len(self.ball), self.r_max + self.pad)
        a = self.structure.alphabet
        memo = self._memo
        out = np.empty(len(values))
        for k, (key, center) in enumerate(zip(self._key(values, masks), values[:, 0].tolist())):
            probs = memo.get(key.tobytes())
            if probs is None:
                out[k] = self.conditional(values[k], masks[k])
            elif 0 <= center < a:
                out[k] = probs[center]
            else:
                raise symbol_error(center, a)
        return out

    def percolation_batch(self, patterns: np.ndarray, n_inner: int, rng, consume, unit: int = 1):
        """consume(lo, hi, p) as `TransferOracle.percolation_batch` calls
        it, with the pasts drawn from rng in the chunks of
        `pasts.percolation_rows`, each of `pasts.percolation_chunks` one
        `batch`, whose memo keys each row's pin set.  Before any draw,
        whatever the pasts would pin, rows that do not fit are
        `check_rows`'s ValueError, a symbol outside the alphabet anywhere in
        the patterns is `symbol_error`, and two sites that some past could
        pin together into no configuration are `_check_pin_pairs`'s
        InconsistentPinsError."""
        patterns = _integer_rows(patterns)
        _check_width(patterns.shape[1], len(self.ball), self.r_max + self.pad)
        check_rows(patterns, n_inner, consume, unit)
        check_patterns(patterns, self.structure.alphabet)
        self._check_pin_pairs(patterns)
        percolation_rows(patterns, n_inner, rng, self.batch, consume, unit)

    def _check_pin_pairs(self, patterns: np.ndarray):
        """Refuse patterns, symbols checked, in which two non-center sites
        on one edge (i, s, j) of the ball hold symbols that
        `structure.allowed[s]` forbids: a percolation past pins both with
        positive probability, and those pins admit no configuration.  The
        error names the first such row's first such edge in ball order.

        A pairwise check is exact here: with the safe symbol on every
        unpinned site, the center and the shell included, pins that clash
        on no edge always extend to a configuration, and the potential is
        finite.  What a pairwise check cannot see is a site that three or
        more pins leave with no admissible symbol; that needs a model
        without a safe symbol, which this oracle does not take.
        """
        edges = self._pin_edges[self._pin_edges[:, [0, 2]].max(axis=1) < patterns.shape[1]]
        if not (len(edges) and len(patterns)):
            return
        i, s, j = edges.T
        clash = ~self.structure.allowed[s, patterns[:, i], patterns[:, j]]
        if clash.any():
            row = int(clash.any(axis=1).argmax())
            k = int(clash[row].argmax())
            raise InconsistentPinsError(
                f"pins {i[k]} and {j[k]} of pattern {row} hold the forbidden pair "
                f"({patterns[row, i[k]]}, {patterns[row, j[k]]}) on an edge of the ball")


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

    The oracle conditions on B_{r_max} and continues the tree unpinned for
    `pad` more levels, the conditionals of the ball B_{r_max + pad} with
    nothing pinned past B_{r_max}.  Every site of one level of F_k or the
    line has the same unpinned continuation, so only B_{r_max} is built:
    the ratio of level r_max is a scalar recursion inward from level
    r_max + pad, over 2k children at the root and 2k - 1 elsewhere, in the
    order of `_glauber_py.level_ratio`, and equals bitwise the ratio that
    the whole ball B_{r_max + pad} gives there.  Its cost is |B_{r_max}|
    sites and (r_max + pad) 2k scalar multiplications; rows wider than
    B_{r_max} are refused.

    boundary="free" starts the outermost level r_max + pad at activity
    lam, which truncates the graph there; boundary "self_consistent"
    starts it at the occupation ratio R* of an infinite unpinned regular
    branch.  In the uniqueness regime that makes each conditional exact
    for the pins it is given, but it does not remove the truncation bias of
    the estimators: a random past also pins sites beyond B_r, which this
    shell treats as free.  On F_2 hardcore at lambda = 1 (`nu: fixed0`,
    N = 200,000) the estimate at r = 4 is 0.39709 +- 0.00040, 10 stderr
    below the Bethe pressure 0.401225, and at r = 6 still 4.5 stderr below
    it (ROADMAP item 9).
    """

    name = "saw"

    def __init__(
        self,
        structure: ConstraintStructure,
        potential: Potential,
        spec: GroupSpec,
        r_max: int,
        pad: int = 0,
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
        self.pad = pad
        self.boundary = boundary
        log_lam = float(potential.h[1] - potential.h[0])
        if log_lam > LOG_FLOAT_MAX:  # refused before the exp, which would overflow to inf
            raise SchemaError(f"the activity log h(1) - h(0) = {log_lam!r} (vertex_log_weights) is above "
                              f"log(float max) = {LOG_FLOAT_MAX:.6g}, so its activity is no float")
        lam = float(np.exp(log_lam))
        if boundary == "self_consistent":
            outer = _tree_fixed_point(lam, 2 * spec.rank)
        elif boundary == "free":
            outer = lam
        else:
            raise SchemaError(f"unknown saw_boundary {boundary!r}; expected free or self_consistent")
        self.ball = groups.ball(spec, r_max)
        # the activity of every site: lam, and `outer` on level r_max + pad
        self.lam = np.full(len(self.ball), lam)
        if pad == 0:
            self.lam[len(self.ball) - self.ball.shell_sizes[-1]:] = outer
        self.tree = self._tree(self._level_free(lam, outer))

    def _level_free(self, lam: float, outer: float) -> list:
        """The ratio of a site of each level 0..r_max with nothing pinned
        below it, by R_l = lam prod 1/(1+R_{l+1}) from R_{r_max+pad} = outer
        inward, each child's factor multiplied in turn as `level_ratio`
        multiplies them."""
        ratio = outer
        free = [outer] * (self.r_max + 1)
        for level in range(self.r_max + self.pad - 1, -1, -1):
            factor = 1.0 / (1.0 + ratio)
            ratio = lam
            for _ in range(2 * self.spec.rank - (level > 0)):
                ratio *= factor
            if level <= self.r_max:
                free[level] = ratio
        return free

    def _tree(self, level_free: list) -> Tree:
        """The ball as the tree kernels read it: levels by word length; each
        site's children its neighbours one level out, in increasing site
        index (the order of `build_saw_tree`); and the ratio of every site
        with nothing pinned below it, that of its level."""
        starts = np.cumsum((0,) + self.ball.shell_sizes, dtype=np.int64)
        edges = np.ascontiguousarray(np.array(self.ball.edges, dtype=np.int64).reshape(-1, 3)[:, [0, 2]])
        # a tree ball's edges join consecutive levels once each, and ball
        # order is by level, so the larger end of each edge is the child
        pairs = np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        child_ptr = np.concatenate(([0], np.cumsum(np.bincount(pairs[:, 0], minlength=len(self.lam)))))
        free = np.repeat(level_free, self.ball.shell_sizes)
        return Tree(starts, child_ptr, pairs[:, 1].copy(), self.lam, free, edges)

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

    def percolation_batch(self, patterns: np.ndarray, n_inner: int, rng, consume, unit: int = 1):
        """consume(lo, hi, p) as `TransferOracle.percolation_batch` calls
        it, with the pasts drawn from rng inside `kernels.tree_percolation`;
        the conditionals and the generator's state are those of `batch`
        over the masks of `pasts.percolation_chunks`.  A symbol outside
        {0, 1} or two adjacent 1s anywhere in the patterns is refused before
        any draw, whatever the pasts would pin."""
        patterns = _integer_rows(patterns)
        _check_width(patterns.shape[1], len(self.ball), self.r_max)
        kernels.tree_percolation(patterns, n_inner, self.tree, rng, consume, unit)


def _tree_fixed_point(lam: float, degree: int) -> float:
    """Occupation ratio R* = lam / (1+R*)^(degree-1) of the infinite regular
    branch, by bisection (the right side is decreasing in R*).  A power past
    the largest float (lam above about 1.1e103 on F_2) takes the branch that
    lam / inf would take, not a bare OverflowError."""
    lo, hi = 0.0, lam
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            above = lam / (1.0 + mid) ** (degree - 1) > mid
        except OverflowError:
            above = False
        if above:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def is_hardcore(structure: ConstraintStructure, potential: Potential) -> bool:
    """Two symbols, no edge weight (|J| <= 1e-8, np.allclose's tolerance
    at 0) and the hardcore relation on every generator."""
    if structure.alphabet != 2 or not (np.abs(potential.J) <= 1e-8).all():
        return False
    return bool((structure.allowed == np.array([[True, True], [True, False]])).all())


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
    the safe-boundary ball oracle elsewhere.

    Every oracle serves rows up to B_{r_max}.  The ball oracle builds the
    padded ball B_{r_max + pad} and serves rows up to it; the SAW oracle
    builds B_{r_max} alone, continues it unpinned for pad levels (one under
    the self-consistent shell) by a per-level recursion, and refuses rows
    wider than B_{r_max}."""
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
        return SawOracle(structure, potential, spec, r_max, pad=extra, boundary=saw_boundary)
    raise SchemaError(f"unknown oracle {kind!r}; expected auto, transfer, ball or saw")
