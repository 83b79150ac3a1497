"""Single-site heat-bath (Glauber) dynamics over a sofic map's labeled graph."""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintStructure, Potential
from .kernels import SweepWorkspace, glauber_sweeps
from .soficmaps import SoficMap


class GlauberEngine:
    """Sequential-sweep heat-bath sampler for the derived Gibbs weights.

    The single-site conditional at v multiplies exp(h), outgoing and incoming
    edge weights, and zeroes candidates that violate an incident non-self
    edge.  A per-symbol bias set by `set_bias` (thermodynamic integration)
    adds to h.  The engine's `kernels.SweepWorkspace` keeps the compiled
    sweep's checks, pointers and workspaces across its calls.
    """

    def __init__(self, sm: SoficMap, structure: ConstraintStructure, potential: Potential):
        if structure.n_generators != sm.n_generators:
            raise ValueError("structure and sofic map disagree on generator count")
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
