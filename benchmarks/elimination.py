"""Cost of one exact elimination: ms per mixing-profile radius, per
ball-oracle conditional, per exact size-sweep row, per long-cycle
partition, per `saw-marginal` query and per c estimate, warm, and per
cold ball of F_2, in a fresh interpreter per tree and round.

    python benchmarks/elimination.py                                  # this checkout, 10 rounds
    python benchmarks/elimination.py --src before=../old/src --src after=src --rounds 15

Each --src LABEL=DIR is a soficlab source tree (the directory holding the
`soficlab` package).  The trees, their C libraries, the rounds and the
record are those of benchmarks/harness.py, shared with cold_start.py: a
round starts one fresh child per tree, the trees alternating.  A child runs
on the default kernel backend (elimination is numpy alone) and times, after
one untimed call each:

- `beta_z2_r1`, `beta_z2_r2`, `beta_f2_r1`: one radius of `ssm-profile`
  (`gibbs._beta_enumeration`: one elimination on B_{r+1} that keeps the
  center and the shell), hardcore at lambda = 1 on Z^2 and at lambda = 0.3
  on F_2; the median over REPS = 20 calls;
- `ball_z2_pad2`, `ball_f2_ising_b3`: one elimination of the ball oracle,
  that is `BallEnumerationOracle.batch` over ROWS = 200 distinct percolation
  masks at the all-safe pattern (the rows of `kp-estimate` at the fixed
  point) divided by ROWS; hardcore at lambda = 1 on Z^2 at r = 2, pad 2
  (B_4, 41 sites), and F_2 Ising (J = +-0.3, h = (0, 0.1)) at r = 2, pad 1
  (B_3, 53 sites); a fresh oracle per timed batch, the median over
  BALL_REPS = 3 batches;
- `sweep_f2_n24_pressure`, `sweep_f2_n24_entropy`, `sweep_f2_n64_pressure`,
  `sweep_f2_n64_entropy`: one exact row of `finitemodel.size_sweep`, F_2
  hardcore at lambda = 1 on the random_perm map of n = 24 or 64 sites,
  seed 3 (the map build included); `log_partition_cycle3000`:
  `enumeration.log_partition` of hardcore at lambda = 1 on the 3,000-cycle;
  `saw_marginal_tree3000`, `saw_marginal_grid7`, `saw_marginal_grid12`:
  `cli.run_saw_marginal` of hardcore at lambda = 1 on a random 3,000-site
  tree (each vertex joined to a uniform earlier one, seed 0; root 0) and at
  the center of the 7x7 and 12x12 grids, the graph file's read included;
  `uniform_bound_f2_ising`: `gibbs.uniform_bound_c` of F_2 Ising on B_1;
  the median over SLOW_REPS = 3 calls.  A tree that refuses a case (a
  CapExceededError or BudgetExceededError) records null for it after its
  first call;
- `uniform_bound_f2_hardcore`: `gibbs.uniform_bound_c` on B_1 of F_2
  hardcore at lambda = 0.3, the model of the `kp_saw_f2` benchmark
  workload, through the SAW oracle; the median over REPS calls;
- `ball_f2_r5`: `groups.ball` of B_5 of F_2 grown cold, each call after
  `ball.cache_clear()`; the median over REPS calls.

The medians over rounds and every raw sample go to --out
(benchmarks/BENCH_elimination.json), merged by label into what is there,
with each tree's git commit and kernel backend.
"""

import json
import statistics
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
REPS, BALL_REPS, ROWS, SLOW_REPS = 20, 3, 200, 3  # timed beta calls, ball batches, rows of one batch, slow calls

_CHILD = r"""
import json, os, statistics, sys, tempfile, time
import numpy as np
from soficlab import groups, kernels
from soficlab.cli import run_saw_marginal
from soficlab.constraints import ConstraintStructure, Potential, hardcore
from soficlab.enumeration import SiteGraph, log_partition
from soficlab.errors import BudgetExceededError, CapExceededError
from soficlab.finitemodel import size_sweep
from soficlab.gibbs import _beta_enumeration, uniform_bound_c
from soficlab.marginals import BallEnumerationOracle

reps, ball_reps, n_rows, slow_reps = json.loads(sys.argv[1])
z2, f2 = groups.zd(2), groups.free(2)
J = np.array([[0.3, -0.3], [-0.3, 0.3]])
ising = (ConstraintStructure(2, np.ones((2, 2, 2), dtype=bool)), Potential(np.array([0.0, 0.1]), np.array([J, J])))


def beta_ms(model, spec, r):
    _beta_enumeration(*model, spec, r)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _beta_enumeration(*model, spec, r)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def ball_ms(model, spec, r, pad):
    width = len(groups.ball(spec, r))
    draws = np.random.default_rng(0).random((8 * n_rows, width)) < 0.5
    draws[:, 0] = False
    _, first = np.unique(draws, axis=0, return_index=True)
    masks = draws[np.sort(first)[:n_rows]]
    values = np.zeros(masks.shape, dtype=np.int64)
    times = []
    for k in range(ball_reps + 1):  # the first batch is untimed
        oracle = BallEnumerationOracle(*model, spec, r, pad=pad)
        t0 = time.perf_counter()
        oracle.batch(values, masks)
        if k:
            times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times) / len(masks)


def slow_ms(call, n=slow_reps):
    try:
        call()
    except (CapExceededError, BudgetExceededError):
        return None
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def sweep(experiment, n):
    return lambda: size_sweep(experiment, *hardcore(2, 1.0), {"builder": "random_perm", "k": 2}, [n], "exact", 3)


graphs = tempfile.TemporaryDirectory()


def saw_marginal(name, n, edges, root):
    path = os.path.join(graphs.name, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"n": n, "edges": edges}, fh)
    return lambda: run_saw_marginal({"graph": path, "root": root})


def grid(m):
    edges = [[v, v + 1] for v in range(m * m) if (v + 1) % m] + [[v, v + m] for v in range(m * m - m)]
    return saw_marginal(f"grid{m}", m * m, edges, m // 2 * m + m // 2)


cycle = SiteGraph(3000, [(i, 0, (i + 1) % 3000) for i in range(3000)])
parents = np.random.default_rng(0).integers(0, np.arange(1, 3000))
out = {"backend": kernels.BACKEND, "numpy": np.__version__}
out["beta_z2_r1"] = beta_ms(hardcore(2, 1.0), z2, 1)
out["beta_z2_r2"] = beta_ms(hardcore(2, 1.0), z2, 2)
out["beta_f2_r1"] = beta_ms(hardcore(2, 0.3), f2, 1)
out["ball_z2_pad2"] = ball_ms(hardcore(2, 1.0), z2, 2, 2)
out["ball_f2_ising_b3"] = ball_ms(ising, f2, 2, 1)
for n in (24, 64):
    for experiment in ("pressure", "entropy"):
        out[f"sweep_f2_n{n}_{experiment}"] = slow_ms(sweep(experiment, n))
out["log_partition_cycle3000"] = slow_ms(lambda: log_partition(cycle, *hardcore(1, 1.0)))
out["saw_marginal_tree3000"] = slow_ms(saw_marginal("tree", 3000, [[int(u), v + 1] for v, u in enumerate(parents)], 0))
out["saw_marginal_grid7"] = slow_ms(grid(7))
out["saw_marginal_grid12"] = slow_ms(grid(12))
out["uniform_bound_f2_ising"] = slow_ms(lambda: uniform_bound_c(*ising, f2, 1))
out["uniform_bound_f2_hardcore"] = slow_ms(lambda: uniform_bound_c(*hardcore(2, 0.3), f2, 1), reps)


def cold_ball_ms(spec, r):
    times = []
    for _ in range(reps + 1):  # the first call is untimed
        groups.ball.cache_clear()
        t0 = time.perf_counter()
        groups.ball(spec, r)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times[1:])


out["ball_f2_r5"] = cold_ball_ms(f2, 5)  # last: it drops the balls every case above grew
print(json.dumps(out))
"""
CASES = ("beta_z2_r1", "beta_z2_r2", "beta_f2_r1", "ball_z2_pad2", "ball_f2_ising_b3", "sweep_f2_n24_pressure",
         "sweep_f2_n24_entropy", "sweep_f2_n64_pressure", "sweep_f2_n64_entropy", "log_partition_cycle3000",
         "saw_marginal_tree3000", "saw_marginal_grid7", "saw_marginal_grid12", "uniform_bound_f2_ising",
         "uniform_bound_f2_hardcore", "ball_f2_r5")


def main(argv=None):
    args = harness.parse_args(__doc__, 10, HERE / "BENCH_elimination.json", argv)
    tasks = {"all": ([json.dumps([REPS, BALL_REPS, ROWS, SLOW_REPS])], None)}
    samples, probes = harness.measure(_CHILD, args.trees, args.rounds, tasks)
    entries = {}
    for label, by_task in samples.items():
        runs = by_task["all"]
        entry = entries[label] = {"git": harness.git_version(args.trees[label]), "backend": runs[0]["backend"],
                                  "numpy": runs[0]["numpy"], "rounds": args.rounds, "reps": REPS,
                                  "ball_reps": BALL_REPS, "rows": ROWS, "slow_reps": SLOW_REPS}
        for case in CASES:
            ms = [s[case] for s in runs]
            entry[case] = {"ms": None if None in ms else statistics.median(ms), "samples": ms}
        print(f"{label:>8} " + "  ".join(f"{case} {entry[case]['ms']}" for case in CASES))
    harness.write(args.out, entries, "ms per elimination; medians over rounds", probes)


if __name__ == "__main__":
    main()
