"""Cost of one row of the transfer oracle's percolation lookup: ns per row of
the compiled `percolation_lookup` at the geometry of perfbench's
kp_transfer_z1 workload, warm, in a fresh interpreter per tree and round.

    python benchmarks/lookup.py                                       # this checkout, 10 rounds
    python benchmarks/lookup.py --src parent=../old/src --src change=src --rounds 10

Each --src LABEL=DIR is a soficlab source tree (the directory holding the
`soficlab` package).  The trees, their C libraries, the rounds and the
record are those of benchmarks/harness.py, shared with the other scripts
here: a round first takes the harness's parallel probe, then starts one
fresh child per (task, tree), the trees alternating.  A child builds the
patterns of `kp-estimate` against mu as `randominfo.kp_pressure_at_measure`
builds them (hardcore at lambda = 1 on Z^1, r = 16, seed 1: 8,000 windows
of mu on B_16, 33 columns) and runs `TransferOracle.percolation_batch` over
them at 100 rows per pattern, 800,000 rows, in units of 100 rows, as that
workload does, but with a consumer that does nothing, so that the time is
the kernel's and its ranges'.

A task is an instance on a set of cores:

- `dispatched` is `kernels.percolation_lookup` as a run calls it, the
  AVX-512 instance where `kernels.LOOKUP_ISA` is "avx512";
- `scalar` is the scalar instance (`kernels._c_percolation_scalar`) put in
  its place; a tree without it (before the AVX-512 instance) has only the
  scalar code, and runs that for both tasks;

`all` runs on every core the child may use, its rows split into ranges as
a run splits them, and `one` pins the child to the lowest of them by
`os.sched_setaffinity` before soficlab is imported, so its rows are one
range.  The `all`/`one` pair of an instance is a parallelism probe of this
kernel itself: at 2 ranges on a host whose two cores run at once, `all`
reads about half of `one`.

A child makes one untimed call that stores every conditional, then REPS
timed calls, and reports their median per row, the instance it ran
(`LOOKUP_ISA` for `dispatched`, and for a tree without it scalar) and a CRC-32 of the untimed call's conditionals and the
stream's end state, so trees and tasks that compute the same lookups show
the same `crc`.  The medians over rounds, every raw sample and each round's
parallel probe go to --out (benchmarks/BENCH_lookup.json), merged by label
into what is there, with each tree's git commit and kernel backend.
"""

import json
import statistics
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
REPS = 7  # timed calls per child
M_OUTER, N_INNER = 8000, 100  # patterns and rows per pattern, as in kp_transfer_z1
TASKS = {f"{instance}/{cores}": (instance, cores) for instance in ("dispatched", "scalar") for cores in ("all", "one")}

_CHILD = r"""
import json, os, statistics, sys, time, zlib
instance, cores, reps, m_outer, n_inner = json.loads(sys.argv[1])
if cores == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from soficlab import groups, kernels
from soficlab.constraints import hardcore
from soficlab.kernels import Pcg64
from soficlab.marginals import TransferOracle
from soficlab.transfer import build_transfer

r, seed = 16, 1
spec, model = groups.zd(1), hardcore(1, 1.0)
if instance == "scalar":
    kernels._c_percolation = getattr(kernels, "_c_percolation_scalar", kernels._c_percolation)
oracle = TransferOracle(*model, spec, r)
rng = Pcg64([seed, r, 0x0AEA])
cols = [groups.line_offset(spec, g) + r for g in groups.ball(spec, r).elements]
patterns = build_transfer(*model).sample_windows(r, m_outer, rng)[:, cols]
out = np.empty(m_outer * n_inner)


def into(lo, hi, p):
    out[lo:hi] = p


oracle.percolation_batch(patterns, n_inner, rng, into, n_inner)  # untimed
crc = zlib.crc32(out.tobytes() + json.dumps(rng.state, sort_keys=True).encode())
times = []
for _ in range(reps):
    t0 = time.perf_counter()
    oracle.percolation_batch(patterns, n_inner, rng, lambda lo, hi, p: None, n_inner)
    times.append(time.perf_counter() - t0)
isa = getattr(kernels, "LOOKUP_ISA", "scalar") if instance == "dispatched" else "scalar"
print(json.dumps({"backend": kernels.BACKEND, "isa": isa,
                  "cores": len(os.sched_getaffinity(0)), "ns": 1e9 * statistics.median(times) / out.size,
                  "crc": crc}))
"""


def main(argv=None):
    args = harness.parse_args(__doc__, 10, HERE / "BENCH_lookup.json", argv)
    tasks = {task: ([json.dumps([instance, cores, REPS, M_OUTER, N_INNER])], None)
             for task, (instance, cores) in TASKS.items()}
    samples, probes = harness.measure(_CHILD, args.trees, args.rounds, tasks)
    entries = {}
    for label, by_task in samples.items():
        entry = entries[label] = {"git": harness.git_version(args.trees[label]), "rounds": args.rounds,
                                  "rows": M_OUTER * N_INNER, "reps": REPS}
        for task, runs in by_task.items():
            ns = [s["ns"] for s in runs]
            entry[task] = {"backend": runs[0]["backend"], "isa": runs[0]["isa"], "cores": runs[0]["cores"],
                           "ns": statistics.median(ns), "crc": runs[0]["crc"], "samples": ns}
        print(f"{label:>8} " + "  ".join(f"{task} {entry[task]['ns']:.1f}" for task in TASKS))
    harness.write(args.out, entries, "ns per lookup row, warm; medians over rounds", probes)


if __name__ == "__main__":
    main()
