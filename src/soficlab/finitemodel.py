"""Derived finite models on a sofic map: energy, the derived partition
function by exact elimination, transfer matrices, or thermodynamic
integration, and `size_sweep`, the per-size pressure and entropy rows of a
builder family.

Every entropy row is H(mu_n) = log Z_n - E_{mu_n}[energy]: the exact route
carries the mean energy beside log Z through the same elimination, the cycle
route reads it from each cycle's pair marginal, and the MCMC route takes it
from heat-bath samples (`sampling.sample_derived_gibbs`).

The derived configuration space enforces the allowed-pair relation on every
non-self edge of the labeled sofic graph (plus, for structures without a safe
symbol, window admissibility around window-good vertices).  Wherever every
vertex is window-good this coincides with enforcing window admissibility
everywhere; on small exact quotients, where wrap-around collisions leave no
window-good vertices, the edge semantics keeps Z_m equal to the transfer
trace and is what the rest of the package assumes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import enumeration, groups, kernels
from .constraints import ConstraintStructure, Pattern, Potential, detect_safe_symbol
from .constraints import Verdict, is_globally_admissible
from .errors import EmptyFiberError, NoSafeSymbolError, SchemaError
from .kernels import Pcg64
from .modelbuild import build_sofic, builder_generators
from .sampling import GlauberEngine, sample_derived_gibbs
from .schema import MCMC, METHODS, check
from .soficmaps import SoficMap, good_vertices
from .transfer import LOG_FLOAT_MAX, TransferMatrix, build_transfer


@dataclass
class DerivedSpace:
    sm: SoficMap
    structure: ConstraintStructure
    potential: Potential

    def __post_init__(self):
        if not (
            self.sm.n_generators
            == self.structure.n_generators
            == self.potential.J.shape[0]
        ):
            raise ValueError("generator counts disagree")
        if self.structure.alphabet != self.potential.alphabet:
            raise ValueError("alphabet sizes disagree")

    @property
    def n(self) -> int:
        return self.sm.n

    @property
    def spec(self):
        return self.sm.spec

    @cached_property
    def safe_symbol(self):
        return detect_safe_symbol(self.structure)

    @cached_property
    def mm_ball(self):
        return groups.ball(self.spec, 2)

    @cached_property
    def mm_good(self) -> np.ndarray:
        """Window-good vertices for the doubled range B_2."""
        return good_vertices(self.sm, self.mm_ball).good_vertices

    @cached_property
    def _window_arrays(self) -> np.ndarray:
        """(L, n) vertex images of the B_2 ball elements."""
        return np.stack([self.sm.sigma_array(g) for g in self.mm_ball.elements])

    @cached_property
    def _admissible_windows(self):
        """Globally admissible total patterns on B_2, for non-safe structures.

        Patterns whose global admissibility is unknown at the search pad are
        kept, so the filter only removes certified violations.
        """
        b = self.mm_ball
        graph = enumeration.SiteGraph.from_ball(b)
        configs, _ = enumeration.all_configs(graph, self.structure, None)
        keep = set()
        for values in configs:
            pat = Pattern(b.elements, values)
            if is_globally_admissible(self.structure, self.spec, pat, pad=2) != Verdict.NO:
                keep.add(values)
        return keep

    @cached_property
    def _window_table(self) -> np.ndarray:
        """0 on the patterns of `_admissible_windows`, -inf elsewhere: one
        axis per element of B_2.  A table past the elimination table cap is
        a CapExceededError, raised before the search for the windows and
        before any allocation."""
        enumeration._check_width(len(self.mm_ball), self.structure.alphabet)
        table = np.full((self.structure.alphabet,) * len(self.mm_ball), -np.inf)
        table[tuple(np.array(list(self._admissible_windows), dtype=np.intp).reshape(-1, table.ndim).T)] = 0.0
        return table


def derived_energy(space: DerivedSpace, x: np.ndarray) -> float:
    """Sum over vertices of the potential read through the pullback window."""
    x = np.asarray(x)
    total = float(space.potential.h[x].sum())
    for s in range(space.sm.n_generators):
        total += float(space.potential.J[s][x, x[space.sm.perms[s]]].sum())
    return total


@dataclass
class PartitionResult:
    log_Z: float
    method: str
    stderr: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    mean_energy: float = math.nan  # E_{mu_n}[energy], where the route computed it


def partition_exact(space: DerivedSpace, energy: bool = True) -> PartitionResult:
    """Exact log Z by elimination over the labeled sofic graph, the bytes of
    `enumeration.log_partition`, and with `energy` the mean energy (the
    Gibbs mean of the log-weight) from the same plan, else nan.  Without a
    safe symbol each window-good vertex adds `_window_table` over its B_2
    window as a factor.  A plan past the elimination table cap is a
    CapExceededError; an empty space gives log Z = -inf and a nan energy."""
    args = (enumeration.SiteGraph.from_sofic(space.sm), space.structure, space.potential)
    windows = None
    if space.safe_symbol is None:
        windows = [(tuple(space._window_arrays[:, v]), space._window_table) for v in space.mm_good]
    if not energy:
        return PartitionResult(enumeration.log_partition(*args, extra=windows), "exact")
    log_z, mean = enumeration.log_partition_and_mean(*args, extra=windows)
    return PartitionResult(log_z, "exact", mean_energy=mean)


def partition_cycle_decomposition(space: DerivedSpace, tm: TransferMatrix | None = None) -> PartitionResult:
    """Exact log Z and mean energy for any single-generator map: the labeled
    graph is a disjoint union of directed cycles, so Z factorizes into
    transfer traces, and the mean energy is the sum over cycles of length
    times the cycle's per-site mean energy (nan when log Z is -inf).

    Length-1 cycles are self-loops, which carry energy but no constraint.
    tm is the model's transfer matrix, built here when not given; a sweep
    over sizes passes one, since it depends only on the model.
    """
    if space.sm.n_generators != 1:
        raise ValueError("cycle decomposition needs a single generator")
    perm = space.sm.perms[0]
    if tm is None:
        tm = build_transfer(space.structure, space.potential)
    seen = np.zeros(space.n, dtype=bool)
    log_z = energy = 0.0
    lengths = []
    for v0 in range(space.n):
        if seen[v0]:
            continue
        length = 0
        v = v0
        while not seen[v]:
            seen[v] = True
            v = int(perm[v])
            length += 1
        lengths.append(length)
        if length == 1:
            w = space.potential.h + np.diag(space.potential.J[0])
            ew = np.exp(w)
            log_z += float(np.log(ew.sum()))
            energy += float(ew / ew.sum() @ w)
        else:
            log_z += tm.log_trace_power(length)
            if log_z > -math.inf:  # an empty cycle has no pair marginal
                energy += length * tm.mean_energy_per_site_cycle(length)
    return PartitionResult(log_z, "cycle_decomposition", 0.0, {"cycle_lengths": lengths},
                           energy if log_z > -math.inf else math.nan)


def partition_mcmc(
    space: DerivedSpace,
    seed: int,
    grid_points: int = 64,
    samples_per_point: int = 4000,
    burn_frac: float = 0.2,
    log_u_min: float = math.log(1e-6),
) -> PartitionResult:
    """Thermodynamic integration along an interpolation that empties the model.

    The interpolated weight multiplies the derived Gibbs weight by
    exp(t * N_ns(x)) with N_ns the number of non-safe symbols.  At t -> -inf
    only the all-safe configuration survives, so

        log Z = H*(all-safe) + integral_{-inf..0} E_t[N_ns] dt,

    with the integral estimated by heat-bath sampling on a grid geometric in
    e^t (uniform in t) and Simpson/trapezoid quadrature, and the truncated
    tail bounded by n * a * e^{t_min} * e^{2 |phi|}.  The settings are those of
    a RunConfig's params.mcmc and are checked against its schema first.

    The chain is one serial chain through the grid, a burn-in then the
    samples at each point, on one stream.  On the compiled backend it runs
    in W = min(usable cores, grid_points) contiguous segments of the grid at
    once (on the Python twin's, W = 1), and the record is that chain's,
    byte for byte, whatever W is.  The calling thread runs segment 0 as the
    serial chain does; each other segment runs on a thread of its own from
    the all-safe state, with a `GlauberEngine.fork` and the stream jumped
    to its first point's draws (each point draws (burn + samples) * n
    uniforms).  Heat-bath chains that read the same
    uniforms coalesce, so after the first burn-in a segment nearly always
    is the serial chain.  Once every thread is joined, each segment in turn
    is checked: its first burn-in is run again from the serial chain's
    state at its start, and if that state differs, as bytes, from the
    segment's own after that burn-in, the segment is run again serially.
    An error of any segment is raised after every thread is joined.
    """
    check({"grid_points": grid_points, "samples_per_point": samples_per_point, "burn_frac": burn_frac,
           "log_u_min": log_u_min}, MCMC, "params.mcmc")
    safe = space.safe_symbol
    if safe is None:
        raise NoSafeSymbolError("thermodynamic integration needs a safe symbol")
    tail = _tail_bound(space.n * space.structure.alphabet, log_u_min, 2.0 * space.potential.norm())
    rng = Pcg64([seed, space.n, 0xD1CE])
    ts = np.linspace(log_u_min, 0.0, grid_points)
    nonsafe = np.array([0.0 if a == safe else 1.0 for a in range(space.structure.alphabet)])
    engine = GlauberEngine(space.sm, space.structure, space.potential)
    x = engine.initial_state(safe)
    burn = max(1, int(burn_frac * samples_per_point))
    n_blocks = max(4, min(32, samples_per_point // 8))
    counts = np.empty((grid_points, samples_per_point), dtype=np.int64)
    per_point = (burn + samples_per_point) * space.n  # the uniforms of one grid point
    # the twin's sweep holds the GIL: its segments would take turns, and the
    # handovers cost more than they save (on tdi_z2's settings two segments
    # took 3.2 s against 2.5 s for one, 2-vCPU x86_64 host)
    w = min(kernels._usable_cores(), grid_points) if kernels.BACKEND == "c" else 1
    bounds = [grid_points * k // w for k in range(w + 1)]

    def run(lo, hi, engine, x, rng, burned=None):
        """Grid points lo..hi-1 from x on rng, in place, each into its row
        of counts; the state after the first burn-in into burned."""
        for i in range(lo, hi):
            engine.set_bias(ts[i] * nonsafe)
            engine.sweeps(x, burn, rng)
            if i == lo and burned is not None:
                burned[:] = x
            engine.sweeps(x, samples_per_point, rng, counts[i], safe)

    # segment k >= 1: its engine, its state, its stream and its state after the first burn-in
    segments = [(engine.fork(), engine.initial_state(safe), rng.jumped(bounds[k] * per_point),
                 np.empty(space.n, dtype=np.int8)) for k in range(1, w)]
    errors = [None] * w

    def speculate(k):
        try:
            run(bounds[k], bounds[k + 1], *segments[k - 1])
        except Exception as exc:
            errors[k] = exc

    threads = []
    try:
        for k in range(1, w):
            thread = threading.Thread(target=speculate, args=(k,))
            thread.start()
            threads.append(thread)
        run(0, bounds[1], engine, x, rng)
    finally:
        for thread in threads:
            thread.join()
    failed = [exc for exc in errors if exc is not None]
    if failed:
        raise failed[0]
    for k in range(1, w):
        lo, hi = bounds[k], bounds[k + 1]
        _, end, _, burned = segments[k - 1]
        engine.set_bias(ts[lo] * nonsafe)
        engine.sweeps(x, burn, rng)
        if x.tobytes() == burned.tobytes():  # coalesced: the segment is the serial chain
            x = end
            rng.advance((hi - lo) * per_point - burn * space.n)
        else:
            engine.sweeps(x, samples_per_point, rng, counts[lo], safe)
            run(lo + 1, hi, engine, x, rng)
    means = np.empty(grid_points)
    ses = np.empty(grid_points)
    for i, row in enumerate(counts):
        # sums of integer counts are exact in float64, in any order
        means[i] = row.mean()
        blocks = row[: samples_per_point - samples_per_point % n_blocks]
        bm = blocks.reshape(n_blocks, -1).mean(axis=1)
        ses[i] = bm.std(ddof=1) / math.sqrt(n_blocks)
    integral, quad_w = _simpson_irregular(ts, means)
    stat_var = float(np.sum((quad_w * ses) ** 2))
    x0 = engine.initial_state(safe)
    log_z = derived_energy(space, x0) + integral
    return PartitionResult(
        log_z,
        "mcmc",
        math.sqrt(stat_var) + tail,
        {
            "grid": ts.tolist(),
            "mean_nonsafe": means.tolist(),
            "stderr_nonsafe": ses.tolist(),
            "tail_bound": tail,
            "seed": seed,
        },
    )


def _tail_bound(na: int, log_u_min: float, two_norm: float) -> float:
    """The TI tail bound n * a * e^{log_u_min} * e^{2 |phi|}, na = n * a.

    It is that product wherever e^{2 |phi|} is a float, else the exponential
    of its logarithm.  A bound past the largest float (2 |phi| above about
    709 at the default log_u_min) is a SchemaError naming
    params.mcmc.log_u_min, the setting that can bring it back.
    """
    log_tail = math.log(na) + log_u_min + two_norm
    if not log_tail < LOG_FLOAT_MAX:
        raise SchemaError(
            f"params.mcmc.log_u_min = {log_u_min!r} gives the TI tail bound n a e^log_u_min e^(2|phi|) "
            f"= e^{log_tail:.6g}, past the largest float; take params.mcmc.log_u_min below "
            f"{LOG_FLOAT_MAX - math.log(na) - two_norm:.6g}"
        )
    if two_norm < LOG_FLOAT_MAX:
        return na * math.exp(log_u_min) * math.exp(two_norm)
    return math.exp(log_tail)


def _simpson_irregular(ts: np.ndarray, ys: np.ndarray):
    """Composite Simpson on a uniform grid (trapezoid on the leftover panel).

    Returns (integral, per-point quadrature weights) so the caller can
    propagate per-point standard errors.
    """
    m = len(ts)
    w = np.zeros(m)
    h = ts[1] - ts[0]
    pairs = (m - 1) // 2
    for p in range(pairs):
        i = 2 * p
        w[i] += h / 3.0
        w[i + 1] += 4.0 * h / 3.0
        w[i + 2] += h / 3.0
    if (m - 1) % 2:
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return float(w @ ys), w


# the most vertices of a size that `auto` gives the exact route, off one generator
AUTO_EXACT_SITES = 24


def choose_method(builder: dict, method: str):
    """The route of each size of a builder family, as a function of the
    size's vertex count n: `method` itself, or under "auto" cycle
    decomposition on a one-generator builder, exact elimination up to
    AUTO_EXACT_SITES vertices and thermodynamic integration beyond.  An
    unknown method, or cycles on a builder of more than one generator, is a
    SchemaError here, before any size runs."""
    if method != "auto" and method not in METHODS:
        raise SchemaError(f"unknown method {method!r}; expected auto or one of {', '.join(METHODS)}")
    generators = builder_generators(builder)
    if method == "cycles" and generators != 1:
        raise SchemaError(f"method cycles needs a one-generator map; the {builder.get('builder')} builder "
                          f"makes {generators} generators")
    if method == "auto" and generators == 1:
        method = "cycles"
    if method == "auto":
        return lambda n: "exact" if n <= AUTO_EXACT_SITES else "mcmc"
    return lambda n: method


# the fields of a size-sweep row, in order, by experiment
SWEEP_FIELDS = {
    "pressure": ("n", "log_Z", "pressure_estimate", "stderr", "method", "seed"),
    "entropy": ("n", "entropy_rate", "stderr", "method"),
}
# the mean energy of an mcmc entropy row is that of ENERGY_SAMPLES heat-bath
# states ENERGY_THIN sweeps apart, after ENERGY_BURN sweeps from all-safe
ENERGY_BURN, ENERGY_SAMPLES, ENERGY_THIN = 200, 200, 2


def size_sweep(
    experiment: str,
    structure: ConstraintStructure,
    potential: Potential,
    builder: dict,
    sizes,
    method: str = "auto",
    seed: int = 0,
    mcmc_kwargs: dict | None = None,
):
    """Per-size rows of `experiment`, "pressure" or "entropy", for a builder
    family, with the fields SWEEP_FIELDS[experiment].

    Each size's route (`choose_method`) gives log Z and its stderr.  A
    pressure row is log Z / n; an entropy row is H(mu_n) / n = (log Z -
    E[energy]) / n, the mean energy from the same exact elimination (which
    a pressure row skips) or cycle decomposition, or for mcmc from heat-bath
    samples, whose standard error adds to TI's.  An empty derived space (log
    Z = -inf) is a pressure of -inf, and an EmptyFiberError for the entropy.
    mcmc_kwargs are a RunConfig's params.mcmc, checked with the method
    before any size runs.
    """
    fields = SWEEP_FIELDS[experiment]
    check(mcmc_kwargs or {}, MCMC, "params.mcmc")
    route = choose_method(builder, method)
    transfer = cache(lambda: build_transfer(structure, potential))  # once per sweep
    routes = {
        "cycles": lambda space: partition_cycle_decomposition(space, transfer()),
        "exact": lambda space: partition_exact(space, energy=experiment == "entropy"),
        "mcmc": lambda space: partition_mcmc(space, seed=seed, **(mcmc_kwargs or {})),
    }
    rows = []
    for size in sizes:
        space = DerivedSpace(build_sofic({**builder, "size": int(size)}, seed=seed), structure, potential)
        n, chosen = space.n, route(space.n)
        res = routes[chosen](space)
        if experiment == "pressure":
            values = (n, res.log_Z, res.log_Z / n, res.stderr / n, res.method, seed)
        elif res.log_Z == -math.inf:
            raise EmptyFiberError(f"the derived space of the {builder.get('builder')} map of size {size} "
                                  f"(n = {n}) has no configuration, so it has no Gibbs measure and no entropy")
        else:
            mean_e, se_e = _sampled_mean_energy(space, seed + 1) if chosen == "mcmc" else (res.mean_energy, 0.0)
            values = (n, (res.log_Z - mean_e) / n, (res.stderr + se_e) / n, chosen)
        rows.append(dict(zip(fields, values)))
    return rows


def _sampled_mean_energy(space: DerivedSpace, seed: int):
    """The mean energy of heat-bath samples of mu_n and its standard error."""
    samples = sample_derived_gibbs(space, sweeps=ENERGY_BURN, seed=seed, n_samples=ENERGY_SAMPLES, thin=ENERGY_THIN)
    energies = np.array([derived_energy(space, x) for x in samples])
    return energies.mean(), energies.std(ddof=1) / math.sqrt(len(energies))
