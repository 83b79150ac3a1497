"""Cold-start cost of the console commands: `import soficlab.cli` and the first
`run_config` of a fresh interpreter, on each kernel backend.

    python benchmarks/cold_start.py                                   # this checkout, 10 rounds
    python benchmarks/cold_start.py --src before=../old/src --src after=src --rounds 15

Each --src LABEL=DIR is a soficlab source tree (the directory holding the
`soficlab` package).  The trees, their C libraries, the rounds and the
record are those of benchmarks/harness.py, shared with elimination.py: a
round starts one fresh child per (backend, case, tree), the trees
alternating.  A case is `import` (the import alone) or one of five
RunConfigs, those that draw random streams:

- `pressure_mcmc`: `pressure` by `mcmc`, hardcore at lambda = 1 on the 16x16
  Z^2 torus, 8 grid points x 32 samples (the tdi_z2 workload of perfbench,
  scaled down so that the Python backend's sweeps take about a second);
- `kp_saw_f2`: `kp-estimate` through the SAW oracle on F_2, as perfbench's;
- `kp_transfer_z1`: `kp-estimate` through the transfer oracle against mu on
  Z^1, 8,000 x 100 rows, as perfbench's; `kp_transfer_z1_4m` and
  `kp_transfer_z1_8m` the same at 40,000 and 80,000 patterns of mu, 4 and
  8 million (pattern, past) rows, where memory would grow with the rows if
  they were held.

A child times `import soficlab.cli` from its start and then the case's
`run_config`, and reports the backend it loaded, the numpy version, its peak
RSS (VmHWM), whether `numpy.random` was loaded after the import and after
the run, and a `kp-estimate` record's value.  The medians and every raw
sample go to --out (benchmarks/BENCH_cold_start.json), merged by label into
what is there.
"""

import json
import math
import statistics
import tempfile
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent

_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import soficlab.cli
import_s = time.perf_counter() - t0
import numpy
from soficlab import kernels
out = {"backend": kernels.BACKEND, "numpy": numpy.__version__, "import_s": import_s,
       "numpy_random_after_import": "numpy.random" in sys.modules}
config = json.loads(sys.argv[1])
if config is not None:
    t0 = time.perf_counter()
    outputs = soficlab.cli.run_config(config)["outputs"]
    out["run_s"] = time.perf_counter() - t0
    out["numpy_random_after_run"] = "numpy.random" in sys.modules
    if isinstance(outputs, dict):  # kp-estimate
        out["value"] = outputs["value"]
with open("/proc/self/status") as status:
    out["peak_rss_mb"] = next(int(line.split()[1]) for line in status if line.startswith("VmHWM")) / 1024
print(json.dumps(out))
"""


def _hardcore(kind: str, rank: int, lam: float) -> dict:
    names = [f"e{i + 1}" for i in range(rank)] if kind == "Zd" else [chr(ord("a") + i) for i in range(rank)]
    return {"group": {"kind": kind, ("d" if kind == "Zd" else "k"): rank}, "alphabet": 2,
            "relations": {n: [[True, True], [True, False]] for n in names},
            "vertex_log_weights": [0.0, math.log(lam)]}


def _kp_transfer_z1(rows: int) -> tuple:
    return (_hardcore("Zd", 1, 1.0), "kp-estimate",
            {"oracle": "transfer", "r": 16, "nu": "mu", "N": rows, "N_inner": 100})


CASES = {
    "import": None,
    "pressure_mcmc": (_hardcore("Zd", 2, 1.0), "pressure", {
        "builder_desc": {"builder": "torus", "d": 2}, "sizes": [16], "method": "mcmc",
        "mcmc": {"grid_points": 8, "samples_per_point": 32}}),
    "kp_saw_f2": (_hardcore("Free", 2, 0.3), "kp-estimate",
                  {"oracle": "saw", "saw_boundary": "self_consistent", "r": 5, "N": 1000}),
    "kp_transfer_z1": _kp_transfer_z1(800_000),
    "kp_transfer_z1_4m": _kp_transfer_z1(4_000_000),
    "kp_transfer_z1_8m": _kp_transfer_z1(8_000_000),
}
BACKENDS = ("c", "python")


def main(argv=None):
    args = harness.parse_args(__doc__, 10, HERE / "BENCH_cold_start.json", argv)
    with tempfile.TemporaryDirectory(prefix="cold_start") as tmp:
        configs = {}
        for name, case in CASES.items():
            if case is not None:
                model, experiment, params = case
                path = Path(tmp) / f"{name}.model.json"
                path.write_text(json.dumps(model))
                case = {"experiment": experiment, "model": str(path), "params": params, "seed": 1}
            configs[name] = [json.dumps(case)]
        tasks = {f"{b}/{case}": (argv, b) for b in BACKENDS for case, argv in configs.items()}
        samples, probes = harness.measure(_CHILD, args.trees, args.rounds, tasks)
    entries = {}
    for label, by_task in samples.items():
        entry = entries[label] = {"git": harness.git_version(args.trees[label]), "rounds": args.rounds}
        for task, runs in by_task.items():
            row = {"backend": runs[0]["backend"], "numpy": runs[0]["numpy"],
                   "numpy_random_after_import": any(s["numpy_random_after_import"] for s in runs)}
            for key in ("import_s", "run_s", "peak_rss_mb"):
                if key in runs[0]:
                    row[key] = statistics.median(s[key] for s in runs)
            if "numpy_random_after_run" in runs[0]:
                row["numpy_random_after_run"] = any(s["numpy_random_after_run"] for s in runs)
            if "value" in runs[0]:
                row["value"] = runs[0]["value"]
            row["samples"] = runs
            entry[task] = row
            print(f"{label:>8} {task:>24}: import {row['import_s'] * 1e3:7.1f} ms"
                  + (f"  run {row['run_s'] * 1e3:8.1f} ms" if "run_s" in row else " " * 19)
                  + f"  rss {row['peak_rss_mb']:6.1f} MB  numpy.random "
                  + str(row.get("numpy_random_after_run", row["numpy_random_after_import"]))
                  + (f"  value {row['value']!r}" if "value" in row else ""))
    harness.write(args.out, entries, "times in seconds, RSS in MB; medians over rounds", probes)


if __name__ == "__main__":
    main()
