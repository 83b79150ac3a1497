"""Conditional-marginal oracles: exact transfer matrices on lines, ball
enumeration with a safe boundary, and SAW trees for hardcore models.

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
from .errors import NoSafeSymbolError, SchemaError
from .groups import GroupSpec
from .saw import hardcore_marginal_via_saw
from .transfer import build_transfer


def _memo_batch(self, values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(N, L) patterns and masks -> (N,) center conditionals, one
    `self.conditional` call per distinct row."""
    cache: dict[bytes, float] = {}
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
        """(N, L) patterns and masks -> (N,) conditional probabilities of the center."""
        n, L = values.shape
        off = self.offsets[:L]
        big = self.r_max + 10**6
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

    def conditional(self, values, mask) -> float:
        pins = dict(self.shell_pins)
        for i in np.flatnonzero(np.asarray(mask)):
            pins[int(i)] = int(values[i])
        probs = enumeration.site_marginal(
            self.graph, self.structure, self.potential, 0, pins=pins
        )
        return float(probs[int(values[0])])

    batch = _memo_batch


class SawOracle:
    """Hardcore conditionals through the self-avoiding-walk unfolding of the
    pin-reduced ball graph.

    boundary="free" truncates the graph at the ball; boundary
    "self_consistent" replaces the activity of the outermost shell with the
    occupation ratio R* of an infinite regular branch, which removes the
    truncation bias entirely on groups whose Cayley graph is a tree (F_k and
    the line) in the uniqueness regime.
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
        self.lam = float(np.exp(potential.h[1] - potential.h[0]))
        self.ball = groups.ball(spec, r_max)
        n = len(self.ball.elements)
        adj = [set() for _ in range(n)]
        for (i, _s, j) in self.ball.edges:
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
        self.adj = [sorted(s) for s in adj]
        if boundary == "self_consistent":
            if spec.kind != "free" and spec.rank != 1:
                raise SchemaError("self-consistent boundary is exact only on tree groups")
            rstar = _tree_fixed_point(self.lam, 2 * spec.rank)
            lam_vec = np.full(n, self.lam)
            shell_start = n - self.ball.shell_sizes[-1]
            lam_vec[shell_start:] = rstar
            self.lam = lam_vec
        elif boundary != "free":
            raise SchemaError(f"unknown saw_boundary {boundary!r}; expected free or self_consistent")

    def conditional(self, values, mask) -> float:
        # pins live inside the query window; the marginal is computed on the
        # full padded ball so the free boundary sits far from the center
        pins = {int(i): int(values[i]) for i in np.flatnonzero(np.asarray(mask))}
        p_occ = hardcore_marginal_via_saw(self.adj, 0, self.lam, pins)
        return p_occ if int(values[0]) == 1 else 1.0 - p_occ

    batch = _memo_batch


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
