"""Single-site heat-bath (Glauber) dynamics over a sofic map's labeled
graph: the sweep engine, and `sample_derived_gibbs`, which draws states of a
derived Gibbs measure with it (for the MCMC entropy rows of
`finitemodel.size_sweep` and the sampled pushforwards of `gibbs`)."""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintStructure, Potential
from ._glauber_py import MAX_ALPHABET
from .errors import CapExceededError, NoSafeSymbolError
from .kernels import Pcg64, SweepWorkspace, glauber_sweeps
from .soficmaps import SoficMap


class GlauberEngine:
    """Sequential-sweep heat-bath sampler for the derived Gibbs weights.

    The single-site conditional at v multiplies exp(h), outgoing and incoming
    edge weights, and zeroes candidates that violate an incident non-self
    edge.  A per-symbol bias set by `set_bias` (thermodynamic integration)
    adds to h.  The engine's `kernels.SweepWorkspace` keeps the compiled
    sweep's checks, pointers and workspaces across its calls.  An alphabet
    past the kernels' MAX_ALPHABET is a CapExceededError, before any draw.
    """

    def __init__(self, sm: SoficMap, structure: ConstraintStructure, potential: Potential):
        if structure.n_generators != sm.n_generators:
            raise ValueError("structure and sofic map disagree on generator count")
        if structure.alphabet > MAX_ALPHABET:
            raise CapExceededError(f"the heat-bath sweep takes at most {MAX_ALPHABET} symbols, and the model has "
                                   f"{structure.alphabet}; the exact and cycles routes have no such limit")
        self.sm = sm
        self.structure = structure
        self.potential = potential
        self.nbr_out = np.ascontiguousarray(sm.perms, dtype=np.int64)
        self.nbr_in = np.ascontiguousarray(sm.perms_inv, dtype=np.int64)
        self.allowed = np.ascontiguousarray(structure.allowed, dtype=np.uint8)
        self.wj = np.ascontiguousarray(np.exp(potential.J))
        self._work = SweepWorkspace()
        self.set_bias(None)

    def set_bias(self, bias: np.ndarray | None):
        h = self.potential.h if bias is None else self.potential.h + bias
        self.wh = np.ascontiguousarray(np.exp(h))

    def initial_state(self, symbol: int = 0) -> np.ndarray:
        return np.full(self.sm.n, symbol, dtype=np.int8)

    def sweeps(
        self, x: np.ndarray, k: int, rng, counts: np.ndarray | None = None, safe: int = 0
    ) -> np.ndarray:
        """Run k full sweeps in place; one uniform per site update.

        One kernel call, which draws its k * n uniforms from the
        `kernels.Pcg64` rng as `rng.random(k * n)` would (the compiled
        kernel steps rng's words itself).  If counts (an int64 array of at
        least k entries) is given, counts[t] is the number of sites not
        equal to `safe` after sweep t.
        """
        glauber_sweeps(x, self.nbr_out, self.nbr_in, self.wh, self.wj, self.allowed, rng, k, counts, safe,
                       self._work)
        return x


def sample_derived_gibbs(space, sweeps: int, seed: int, n_samples: int = 1, thin: int = 1) -> np.ndarray:
    """Heat-bath samples of the derived Gibbs measure of a
    `finitemodel.DerivedSpace`, shape (n_samples, n).

    Runs `sweeps` burn-in sweeps from the all-safe configuration, then
    `thin` sweeps between retained samples.
    """
    if space.safe_symbol is None:
        raise NoSafeSymbolError("heat-bath sampling needs a safe symbol")
    rng = Pcg64([seed, space.n, 0x6B5])
    engine = GlauberEngine(space.sm, space.structure, space.potential)
    x = engine.initial_state(space.safe_symbol)
    engine.sweeps(x, sweeps, rng)
    out = np.empty((n_samples, space.n), dtype=np.int8)
    out[0] = x
    for i in range(1, n_samples):
        engine.sweeps(x, thin, rng)
        out[i] = x
    return out
