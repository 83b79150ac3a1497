"""Cost of one heat-bath site update: ns per update of the compiled sweep on
the shapes the run paths use and on two that take other routes, warm, in a
fresh interpreter per tree and round.

    python benchmarks/sweeps.py                                       # this checkout, 10 rounds
    python benchmarks/sweeps.py --src parent=../old/src --src change=src --rounds 15

Each --src LABEL=DIR is a soficlab source tree (the directory holding the
`soficlab` package).  The trees, their C libraries, the rounds and the
record are those of benchmarks/harness.py, shared with cold_start.py and
elimination.py: a round starts one fresh child per tree, the trees
alternating.  A child runs on the default kernel backend and times
`GlauberEngine.sweeps` as thermodynamic integration calls it: uniforms
drawn from a `Pcg64`, non-safe counts kept, about UPDATES site updates per
call, after one untimed call; the median over REPS calls, divided by the
call's updates.  The cases are hardcore at lambda = e^-6 (nearly empty,
every pick predictable) and lambda = 1 on

- `z2_16`: the 16x16 Z^2 torus, the shape of the thermodynamic-integration
  benchmark workload (two symbols, two generators);
- `f2_1024`: the F_2 `random_perm` map of 1,024 sites, seed 1 (two
  symbols, two generators, neighbours scattered over the map);
- `z3_8`: the 8x8x8 Z^3 torus (two symbols, three generators);

and two shapes that no two-symbol instance serves: `a3_z2_16`, the
three-symbol full shift on the 16x16 torus (the table route's instance for
any shape), and `direct_a4_z3_8`, the four-symbol full shift on the 8x8x8
torus, whose table would pass `kernels.SWEEP_TABLE_CAP` (the direct route).

Each case also records a CRC-32 of its final x, counts and stream state,
so trees that compute the same trajectories show the same `crc`.  The
medians over rounds and every raw sample go to --out
(benchmarks/BENCH_sweeps.json), merged by label into what is there, with
each tree's git commit and kernel backend.
"""

import json
import statistics
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
UPDATES, REPS = 2**20, 7  # site updates per timed call, timed calls per case

_CHILD = r"""
import json, math, statistics, sys, time, zlib
import numpy as np
from soficlab import kernels, soficmaps
from soficlab.constraints import full_shift, hardcore, zero_potential
from soficlab.sampling import GlauberEngine

updates, reps = json.loads(sys.argv[1])
cases = {}
for lam_name, lam in (("e-6", math.exp(-6.0)), ("1", 1.0)):
    cases[f"z2_16_lam_{lam_name}"] = (lambda: soficmaps.build_torus(2, 16), hardcore(2, lam))
    cases[f"f2_1024_lam_{lam_name}"] = (lambda: soficmaps.build_random_perm(2, 1024, 1), hardcore(2, lam))
    cases[f"z3_8_lam_{lam_name}"] = (lambda: soficmaps.build_torus(3, 8), hardcore(3, lam))
cases["a3_z2_16"] = (lambda: soficmaps.build_torus(2, 16), (full_shift(3, 2), zero_potential(3, 2)))
cases["direct_a4_z3_8"] = (lambda: soficmaps.build_torus(3, 8), (full_shift(4, 3), zero_potential(4, 3)))
out = {"backend": kernels.BACKEND, "numpy": np.__version__}
for name, (build, model) in cases.items():
    sm = build()
    engine = GlauberEngine(sm, *model)
    sweeps = max(1, updates // sm.n)
    x, counts, rng = engine.initial_state(0), np.empty(sweeps, np.int64), kernels.Pcg64(0)
    times = []
    for k in range(reps + 1):  # the first call is untimed
        t0 = time.perf_counter()
        engine.sweeps(x, sweeps, rng, counts, 0)
        if k:
            times.append(time.perf_counter() - t0)
    crc = zlib.crc32(x.tobytes() + counts.tobytes() + json.dumps(rng.state, sort_keys=True).encode())
    out[name] = {"ns": 1e9 * statistics.median(times) / (sweeps * sm.n), "crc": crc}
print(json.dumps(out))
"""
CASES = tuple(f"{shape}_lam_{lam}" for lam in ("e-6", "1") for shape in ("z2_16", "f2_1024", "z3_8")) + (
    "a3_z2_16", "direct_a4_z3_8")


def main(argv=None):
    args = harness.parse_args(__doc__, 10, HERE / "BENCH_sweeps.json", argv)
    tasks = {"all": ([json.dumps([UPDATES, REPS])], None)}
    samples, probes = harness.measure(_CHILD, args.trees, args.rounds, tasks)
    entries = {}
    for label, by_task in samples.items():
        runs = by_task["all"]
        entry = entries[label] = {"git": harness.git_version(args.trees[label]), "backend": runs[0]["backend"],
                                  "numpy": runs[0]["numpy"], "rounds": args.rounds, "updates": UPDATES,
                                  "reps": REPS}
        for case in CASES:
            ns = [s[case]["ns"] for s in runs]
            entry[case] = {"ns": statistics.median(ns), "crc": runs[0][case]["crc"], "samples": ns}
        print(f"{label:>8} " + "  ".join(f"{case} {entry[case]['ns']:.2f}" for case in CASES))
    harness.write(args.out, entries, "ns per site update; medians over rounds", probes)


if __name__ == "__main__":
    main()
