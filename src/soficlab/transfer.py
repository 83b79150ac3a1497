"""Transfer-matrix machinery for rank-1 groups (Z^1 lines and cycles).

The weighted transfer matrix is T[a, b] = 1[(a,b) allowed] * exp(h(b) +
J(a,b)).  Traces of powers give exact cycle partition functions; the Perron
data gives the infinite-volume stationary Markov chain, whose conditionals
are computed exactly by screening to the nearest pinned site on each side.
The Perron pair needs an irreducible relation: one whose support graph on
the core symbols is strongly connected.  A reducible relation, such as
[[1, 1], [0, 1]] or the identity, has traces but no unique stationary chain;
everything built on the pair raises ReducibleTransferError there.  A
weight h(b) + J(a, b) on an allowed pair past LOG_FLOAT_MAX is a SchemaError,
and conditional tables past the elimination table cap a CapExceededError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constraints import ConstraintStructure, Potential, core_symbols
from .enumeration import ELIMINATION_TABLE_CAP
from .errors import CapExceededError, ReducibleTransferError, SchemaError

LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest x whose exponential is a float


@dataclass
class TransferMatrix:
    structure: ConstraintStructure
    potential: Potential
    T: np.ndarray
    lam: float  # dominant eigenvalue
    right: np.ndarray  # positive Perron vectors
    left: np.ndarray
    irreducible: bool

    @property
    def alphabet(self) -> int:
        return self.structure.alphabet

    def perron(self) -> tuple[np.ndarray, np.ndarray]:
        """The Perron pair (left, right) with left . right = 1."""
        if not self.irreducible:
            raise ReducibleTransferError(
                "transfer relation is reducible on its core symbols, so there is no unique stationary chain"
            )
        return self.left, self.right

    def stationary(self) -> np.ndarray:
        left, right = self.perron()
        p = left * right
        return p / p.sum()

    def step_probs(self) -> np.ndarray:
        """P(a -> b) of the stationary chain."""
        _, right = self.perron()
        return self.T * right[None, :] / (self.lam * right[:, None])

    def log_trace_power(self, m: int) -> float:
        """log trace(T^m), the exact cycle partition value; -inf if the trace is 0."""
        tr = float(np.trace(np.linalg.matrix_power(self.T / self.lam, m)))
        if tr <= 0.0:
            return -math.inf
        return m * math.log(self.lam) + math.log(tr)

    def cycle_pair_marginal(self, m: int) -> np.ndarray:
        """P(x_v = a, x_{v+1} = b) on the m-cycle, identical for every v."""
        M = self.T / self.lam
        raw = M * np.linalg.matrix_power(M, m - 1).T
        return raw / raw.sum()

    def conditional_center(self, pins: dict) -> np.ndarray:
        """Exact mu(x_0 = . | pinned offsets), offsets as nonzero ints: a
        column of `conditional_tables`.

        The stationary chain is Markov, so only the nearest pinned offset on
        each side matters.
        """
        lpins = [(-o, v) for o, v in pins.items() if o < 0]
        rpins = [(o, v) for o, v in pins.items() if o > 0]
        dl, bl = min(lpins) if lpins else (0, 0)
        dr, br = min(rpins) if rpins else (0, 0)
        p = self.conditional_tables(max(dl, dr, 1))[:, dl, bl, dr, br]
        if not p.any():
            raise ValueError("conditioning pattern has probability zero")
        return p.copy()

    def conditional_tables(self, r_max: int):
        """Lookup tables for batched center conditionals with pins inside [-r_max..r_max].

        Returns probs[a, dl, bl, dr, br] with dl/dr the distance to the nearest
        pinned site on each side (0 = no pin on that side, then b index 0 used);
        a conditioning of probability zero gets an all-zero column.  The
        center weights are lw[dl, bl, v] * rw[dr, br, v]: the row bl of the
        scaled power (T / lam)^dl, or the left Perron vector when dl = 0,
        times the column br of (T / lam)^dr, or the right Perron vector.
        The tables hold a^3 (r_max+1)^2 doubles; past
        `enumeration.ELIMINATION_TABLE_CAP` they are a CapExceededError
        before anything is built (on two symbols, r_max <= 2,895).
        """
        a = self.alphabet
        size = a**3 * (r_max + 1) ** 2
        if size > ELIMINATION_TABLE_CAP:
            raise CapExceededError(f"the transfer tables up to radius {r_max} hold {a}^3 ({r_max}+1)^2 = {size} "
                                   f"doubles, past the cap of {ELIMINATION_TABLE_CAP}; lower the radius")
        left, right = self.perron()
        M = self.T / self.lam
        powers = np.empty((r_max, a, a))  # (T / lam)^k for k = 1..r_max
        for k in range(r_max):
            powers[k] = powers[k - 1] @ M if k else M
        lw = np.concatenate([np.broadcast_to(left, (1, a, a)), powers])
        rw = np.concatenate([np.broadcast_to(right, (1, a, a)), powers.transpose(0, 2, 1)])
        w = lw[:, :, None, None, :] * rw[None, None]
        tot = w.sum(axis=-1, keepdims=True)  # the center axis last, summed as w.sum() sums one column
        # the probabilities in place of the weights, and the totals freed
        # before the center axis is moved first in one copy: about two
        # tables at the peak
        positive = tot > 0.0
        np.divide(w, tot, out=w, where=positive)
        np.copyto(w, 0.0, where=~positive)
        del tot, positive
        return np.ascontiguousarray(np.moveaxis(w, -1, 0))

    def mixing_profile(self, r_max: int, symbols) -> np.ndarray:
        """beta(r) for r = 1..r_max: the largest change of mu(x_0 = .) over
        boundaries bl at -(r+1) and br at r+1, both in `symbols`, read from
        `conditional_tables`; boundaries of probability zero, its all-zero
        columns, are skipped."""
        symbols = list(symbols)
        tables = self.conditional_tables(r_max + 1)
        out = np.zeros(r_max)
        for r in range(1, r_max + 1):
            cols = tables[:, r + 1, :, r + 1][:, symbols][:, :, symbols].reshape(self.alphabet, -1)
            cols = cols[:, cols.any(axis=0)]
            out[r - 1] = float(np.max(cols.max(axis=1, initial=-np.inf) - cols.min(axis=1, initial=np.inf)))
        return out

    def sample_windows(self, r: int, n_samples: int, rng) -> np.ndarray:
        """Exact samples of mu restricted to [-r..r], shape (n_samples, 2r+1),
        from the stationary chain by `kernels.markov_windows`: the symbols
        of the uniforms of `rng.random((n_samples, 2r+1))`, in int8 up to
        127 symbols, else the smallest signed integer dtype that holds the
        alphabet size.  rng must be a `kernels.Pcg64`; anything else is a
        ValueError before any draw."""
        return kernels.markov_windows(np.cumsum(self.stationary()), np.cumsum(self.step_probs(), axis=1),
                                      n_samples, 2 * r + 1, rng)

    def mean_energy_per_site_cycle(self, m: int) -> float:
        """E_{mu_m}[h(x_v) + J(x_v, x_{v+1})], identical for every site of the cycle."""
        pair = self.cycle_pair_marginal(m)
        site = pair.sum(axis=1)
        return float(site @ self.potential.h + (pair * self.potential.J[0]).sum())


def build_transfer(structure: ConstraintStructure, potential: Potential) -> TransferMatrix:
    if structure.n_generators != 1:
        raise ValueError("transfer matrices need a rank-1 generating set")
    weights = np.where(structure.allowed[0], potential.h[None, :] + potential.J[0], -np.inf)
    if weights.max() > LOG_FLOAT_MAX:  # refused before any exp, which would overflow to inf
        a, b = np.unravel_index(weights.argmax(), weights.shape)
        raise SchemaError(f"the weight h({b}) + J({a}, {b}) = {float(weights[a, b])!r} (vertex_log_weights "
                          f"plus edge_log_weights) of the allowed pair ({a}, {b}) is above log(float max) "
                          f"= {LOG_FLOAT_MAX:.6g}, so its transfer matrix entry is no float")
    T = np.exp(weights)
    vals, vecs = np.linalg.eig(T)
    i = int(np.argmax(vals.real))
    lam = float(vals[i].real)
    right = np.abs(vecs[:, i].real)
    lvals, lvecs = np.linalg.eig(T.T)
    j = int(np.argmax(lvals.real))
    left = np.abs(lvecs[:, j].real)
    right = right / right.sum()
    with np.errstate(divide="ignore", invalid="ignore"):  # left . right may be 0 if reducible
        left = left / (left @ right)
    return TransferMatrix(structure, potential, T, lam, right, left, _strongly_connected(structure))


def _strongly_connected(structure: ConstraintStructure) -> bool:
    """Whether the relation's support graph on the core symbols is strongly connected."""
    core = list(core_symbols(structure))
    if not core:
        return False
    reach = structure.allowed[0][np.ix_(core, core)] | np.eye(len(core), dtype=bool)
    for _ in range(len(core).bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return bool(reach.all())
