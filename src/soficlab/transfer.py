"""Transfer-matrix machinery for rank-1 groups (Z^1 lines and cycles).

The weighted transfer matrix is T[a, b] = 1[(a,b) allowed] * exp(h(b) +
J(a,b)).  Traces of powers give exact cycle partition functions; the Perron
data gives the infinite-volume stationary Markov chain, whose conditionals
are computed exactly by screening to the nearest pinned site on each side.
The Perron pair needs an irreducible relation: one whose support graph on
the core symbols is strongly connected.  A reducible relation, such as
[[1, 1], [0, 1]] or the identity, has traces but no unique stationary chain;
everything built on the pair raises ReducibleTransferError there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .constraints import ConstraintStructure, Potential, core_symbols
from .errors import ReducibleTransferError


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

    def pressure(self) -> float:
        """Per-site free energy of the line, log of the dominant eigenvalue."""
        return math.log(self.lam)

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

    def _scaled_powers(self, k_max: int) -> np.ndarray:
        """(T / lam)^k for k = 0..k_max."""
        a = self.alphabet
        out = np.empty((k_max + 1, a, a))
        out[0] = np.eye(a)
        M = self.T / self.lam
        for k in range(1, k_max + 1):
            out[k] = out[k - 1] @ M
        return out

    def log_trace_power(self, m: int) -> float:
        """log trace(T^m), the exact cycle partition value; -inf if the trace is 0."""
        M = self.T / self.lam
        P = np.eye(self.alphabet)
        e = m
        while e:
            if e & 1:
                P = P @ M
            M = M @ M
            e >>= 1
        tr = float(np.trace(P))
        if tr <= 0.0:
            return -math.inf
        return m * math.log(self.lam) + math.log(tr)

    def cycle_pair_marginal(self, m: int) -> np.ndarray:
        """P(x_v = a, x_{v+1} = b) on the m-cycle, identical for every v."""
        powers = self._scaled_powers(m)
        raw = (self.T / self.lam) * powers[m - 1].T
        return raw / raw.sum()

    def window_distribution(self, r: int) -> dict:
        """Infinite-volume marginal on the interval [-r..r], keyed by value tuples."""
        pi = self.stationary()
        P = self.step_probs()
        out: dict[tuple, float] = {}

        def rec(prefix, prob):
            if len(prefix) == 2 * r + 1:
                out[tuple(prefix)] = prob
                return
            for b in range(self.alphabet):
                step = P[prefix[-1], b] if prefix else None
                rec(prefix + [b], prob * (step if prefix else pi[b]))

        rec([], 1.0)
        return {k: v for k, v in out.items() if v > 0.0}

    def conditional_center(self, pins: dict) -> np.ndarray:
        """Exact mu(x_0 = . | pinned offsets), offsets as nonzero ints.

        The stationary chain is Markov, so only the nearest pinned offset on
        each side matters.
        """
        lpins = [(-o, v) for o, v in pins.items() if o < 0]
        rpins = [(o, v) for o, v in pins.items() if o > 0]
        dl, bl = min(lpins) if lpins else (0, -1)
        dr, br = min(rpins) if rpins else (0, -1)
        w = _center_weights(self._scaled_powers(max(dl, dr, 1)), *self.perron(), dl, bl, dr, br)
        tot = w.sum()
        if tot <= 0.0:
            raise ValueError("conditioning pattern has probability zero")
        return w / tot

    def conditional_tables(self, r_max: int):
        """Lookup tables for batched center conditionals with pins inside [-r_max..r_max].

        Returns probs[a, dl, bl, dr, br] with dl/dr the distance to the nearest
        pinned site on each side (0 = no pin on that side, then b index 0 used);
        a conditioning of probability zero gets an all-zero column.
        """
        a = self.alphabet
        left, right = self.perron()
        powers = self._scaled_powers(max(r_max, 1))
        tab = np.zeros((a, r_max + 1, a, r_max + 1, a))
        for dl, bl, dr, br in product(range(r_max + 1), range(a), range(r_max + 1), range(a)):
            w = _center_weights(powers, left, right, dl, bl, dr, br)
            tot = w.sum()
            if tot > 0.0:
                tab[:, dl, bl, dr, br] = w / tot
        return tab

    def mixing_profile(self, r_max: int, symbols) -> np.ndarray:
        """beta(r) for r = 1..r_max: the largest change of mu(x_0 = .) over
        boundaries bl at -(r+1) and br at r+1, both in `symbols`, read from
        one table of scaled powers; boundaries of probability zero are
        skipped."""
        left, right = self.perron()
        powers = self._scaled_powers(r_max + 1)
        out = np.zeros(r_max)
        for r in range(1, r_max + 1):
            lo = np.full(self.alphabet, np.inf)
            hi = np.full(self.alphabet, -np.inf)
            for bl, br in product(symbols, symbols):
                w = _center_weights(powers, left, right, r + 1, bl, r + 1, br)
                tot = w.sum()
                if tot > 0.0:
                    p = w / tot
                    lo, hi = np.minimum(lo, p), np.maximum(hi, p)
            out[r - 1] = float(np.max(hi - lo))
        return out

    def sample_windows(self, r: int, n_samples: int, rng) -> np.ndarray:
        """Exact samples of mu restricted to [-r..r], shape (n_samples, 2r+1)."""
        a = self.alphabet
        length = 2 * r + 1
        pi = self.stationary()
        P = self.step_probs()
        cum_pi = np.cumsum(pi)
        cum_P = np.cumsum(P, axis=1)
        u = rng.random((n_samples, length))
        out = np.empty((n_samples, length), dtype=np.int8)
        out[:, 0] = np.searchsorted(cum_pi, u[:, 0], side="right").clip(0, a - 1)
        for j in range(1, length):
            rows = cum_P[out[:, j - 1]]
            out[:, j] = (u[:, j, None] >= rows).sum(axis=1).clip(0, a - 1)
        return out

    def mean_energy_per_site_cycle(self, m: int) -> float:
        """E_{mu_m}[h(x_v) + J(x_v, x_{v+1})], identical for every site of the cycle."""
        pair = self.cycle_pair_marginal(m)
        site = pair.sum(axis=1)
        return float(site @ self.potential.h + (pair * self.potential.J[0]).sum())


def _center_weights(powers, left, right, dl: int, bl: int, dr: int, br: int) -> np.ndarray:
    """Unnormalised mu(x_0 = .) given symbol bl at distance dl to the left and
    br at distance dr to the right (distance 0: no pin on that side), from the
    scaled powers of T and the Perron pair."""
    lw = powers[dl][bl, :] if dl else left
    rw = powers[dr][:, br] if dr else right
    return lw * rw


def build_transfer(structure: ConstraintStructure, potential: Potential) -> TransferMatrix:
    if structure.n_generators != 1:
        raise ValueError("transfer matrices need a rank-1 generating set")
    a = structure.alphabet
    T = structure.allowed[0] * np.exp(potential.h[None, :] + potential.J[0])
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
