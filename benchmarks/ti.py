"""Cost of one thermodynamic-integration run: ms per `finitemodel.partition_mcmc`
on all usable cores and pinned to one core, warm, in a fresh interpreter per
tree and round.

    python benchmarks/ti.py                                           # this checkout, 10 rounds
    python benchmarks/ti.py --src parent=../old/src --src change=src --rounds 10

Each --src LABEL=DIR is a soficlab source tree (the directory holding the
`soficlab` package).  The trees, their C libraries, the rounds and the
record are those of benchmarks/harness.py, shared with cold_start.py,
elimination.py and sweeps.py: a round first takes the harness's parallel
probe, then starts one fresh child per (task, tree), the trees alternating.
The cases are hardcore models:

- `tdi_z2`: lambda = 1 on the 16x16 Z^2 torus, 32 grid points x 250
  samples, seed 1 (the settings of perfbench's tdi_z2 workload);
- `f2_1024`: lambda = 0.3 on the F_2 `random_perm` map of 1,024 sites, map
  seed 3, 48 grid points x 1,500 samples, seed 4 (the settings of
  tests/test_randominfo.py::test_f2_exploratory_cross_validation).

A task is a case on `all` the cores the child may run on, or on `one`, the
child pinned to the lowest of them by `os.sched_setaffinity` on its own
process before soficlab is imported, on the default kernel backend; and
`tdi_z2` on all cores on the Python twin (`python`), whose sweeps hold the
GIL, so that its grid runs as one segment.  A child makes one untimed call,
then the task's timed ones (seven for `tdi_z2`, three for `f2_1024`, one
on the twin), and reports their median, its usable core count and a
CRC-32 of the record (log Z, stderr and diagnostics), so trees and tasks
that compute the same record show the same `crc`.  The medians over rounds, every raw sample and each
round's parallel probe go to --out (benchmarks/BENCH_ti.json), merged by
label into what is there, with each tree's git commit and kernel backend.
"""

import json
import statistics
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
# (case, cores, backend, timed calls per child) of each task
TASKS = {"tdi_z2/all": ("tdi_z2", "all", None, 7), "tdi_z2/one": ("tdi_z2", "one", None, 7),
         "f2_1024/all": ("f2_1024", "all", None, 3), "f2_1024/one": ("f2_1024", "one", None, 3),
         "tdi_z2/python": ("tdi_z2", "all", "python", 1)}

_CHILD = r"""
import json, os, statistics, sys, time, zlib
case, cores, reps = json.loads(sys.argv[1])
if cores == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from soficlab import kernels, soficmaps
from soficlab.constraints import hardcore
from soficlab.finitemodel import DerivedSpace, partition_mcmc

if case == "tdi_z2":
    sm, lam, settings = soficmaps.build_torus(2, 16), 1.0, {"seed": 1, "grid_points": 32, "samples_per_point": 250}
else:
    sm, lam, settings = soficmaps.build_random_perm(2, 1024, 3), 0.3, {"seed": 4, "grid_points": 48,
                                                                         "samples_per_point": 1500}
space = DerivedSpace(sm, *hardcore(2, lam))
times = []
for k in range(reps + 1):  # the first call is untimed
    t0 = time.perf_counter()
    res = partition_mcmc(space, **settings)
    if k:
        times.append(time.perf_counter() - t0)
crc = zlib.crc32(json.dumps([res.log_Z, res.stderr, res.diagnostics]).encode())
print(json.dumps({"backend": kernels.BACKEND, "cores": len(os.sched_getaffinity(0)),
                  "ms": 1e3 * statistics.median(times), "crc": crc}))
"""


def main(argv=None):
    args = harness.parse_args(__doc__, 10, HERE / "BENCH_ti.json", argv)
    tasks = {task: ([json.dumps([case, cores, reps])], backend)
             for task, (case, cores, backend, reps) in TASKS.items()}
    samples, probes = harness.measure(_CHILD, args.trees, args.rounds, tasks)
    entries = {}
    for label, by_task in samples.items():
        entry = entries[label] = {"git": harness.git_version(args.trees[label]), "rounds": args.rounds}
        for task, runs in by_task.items():
            ms = [s["ms"] for s in runs]
            entry[task] = {"backend": runs[0]["backend"], "cores": runs[0]["cores"], "reps": TASKS[task][3],
                           "ms": statistics.median(ms), "crc": runs[0]["crc"], "samples": ms}
        print(f"{label:>8} " + "  ".join(f"{task} {entry[task]['ms']:.1f}" for task in TASKS))
    harness.write(args.out, entries, "ms per partition_mcmc, warm; medians over rounds", probes)


if __name__ == "__main__":
    main()
