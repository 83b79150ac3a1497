"""Cold-start cost of the console commands: `import soficlab.cli` and the first
`run_config` of a fresh interpreter, on each kernel backend.

    python benchmarks/cold_start.py                                   # this checkout, 10 rounds
    python benchmarks/cold_start.py --src before=../old/src --src after=src --rounds 15

Each --src LABEL=DIR is a soficlab source tree (the directory holding the
`soficlab` package).  A round starts one fresh child per (tree, backend,
case), the trees alternating, so a slow spell of a shared host falls on all
of them alike.  A case is `import` (the import alone) or one of three
RunConfigs, those that draw random streams:

- `pressure_mcmc`: `pressure` by `mcmc`, hardcore at lambda = 1 on the 16x16
  Z^2 torus, 8 grid points x 32 samples (the tdi_z2 workload of perfbench,
  scaled down so that the Python backend's sweeps take about a second);
- `kp_saw_f2`: `kp-estimate` through the SAW oracle on F_2, as perfbench's;
- `kp_transfer_z1`: `kp-estimate` through the transfer oracle against mu on
  Z^1, 8,000 x 100 rows, as perfbench's.

A child times `import soficlab.cli` from its start and then the case's
`run_config`, and reports the backend it loaded, the numpy version, its peak
RSS (VmHWM) and whether `numpy.random` was loaded after the import and
after the run.  Each tree's C library is built into its own cache directory
by an untimed child first, since a build removes the libraries of other
source versions.  The medians and every raw sample go to --out
(benchmarks/BENCH_cold_start.json), merged by label into what is there.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

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
    soficlab.cli.run_config(config)
    out["run_s"] = time.perf_counter() - t0
    out["numpy_random_after_run"] = "numpy.random" in sys.modules
with open("/proc/self/status") as status:
    out["peak_rss_mb"] = next(int(line.split()[1]) for line in status if line.startswith("VmHWM")) / 1024
print(json.dumps(out))
"""


def _hardcore(kind: str, rank: int, lam: float) -> dict:
    names = [f"e{i + 1}" for i in range(rank)] if kind == "Zd" else [chr(ord("a") + i) for i in range(rank)]
    return {"group": {"kind": kind, ("d" if kind == "Zd" else "k"): rank}, "alphabet": 2,
            "relations": {n: [[True, True], [True, False]] for n in names},
            "vertex_log_weights": [0.0, math.log(lam)]}


CASES = {
    "import": None,
    "pressure_mcmc": (_hardcore("Zd", 2, 1.0), "pressure", {
        "builder_desc": {"builder": "torus", "d": 2}, "sizes": [16], "method": "mcmc",
        "mcmc": {"grid_points": 8, "samples_per_point": 32}}),
    "kp_saw_f2": (_hardcore("Free", 2, 0.3), "kp-estimate",
                  {"oracle": "saw", "saw_boundary": "self_consistent", "r": 5, "N": 1000}),
    "kp_transfer_z1": (_hardcore("Zd", 1, 1.0), "kp-estimate",
                       {"oracle": "transfer", "r": 16, "nu": "mu", "N": 800_000, "N_inner": 100}),
}
BACKENDS = ("c", "python")


def _child(src: Path, backend: str, config, cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SOFICLAB_KERNEL"}
    env.update(PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache))
    if backend == "python":
        env["SOFICLAB_KERNEL"] = "python"
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(config)], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _git_version(src: Path) -> str | None:
    """The tree's commit, marked -dirty when it has uncommitted changes."""
    proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=12"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a labelled soficlab source tree; repeatable (default: current=src of this checkout)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", type=Path, default=HERE / "BENCH_cold_start.json")
    args = ap.parse_args(argv)
    trees = dict(item.split("=", 1) for item in args.src or [f"current={HERE.parent / 'src'}"])
    trees = {label: Path(path).resolve() for label, path in trees.items()}
    with tempfile.TemporaryDirectory(prefix="cold_start") as tmp:
        tmp = Path(tmp)
        configs = {"import": None}
        for name, case in CASES.items():
            if case is not None:
                model, experiment, params = case
                path = tmp / f"{name}.model.json"
                path.write_text(json.dumps(model))
                configs[name] = {"experiment": experiment, "model": str(path), "params": params, "seed": 1}
        caches = {label: tmp / f"cache-{k}" for k, label in enumerate(trees)}
        for label, src in trees.items():  # build each tree's library, untimed
            _child(src, "c", None, caches[label])
        samples = {label: {b: {c: [] for c in configs} for b in BACKENDS} for label in trees}
        for r in range(args.rounds):
            for backend in BACKENDS:
                for case, config in configs.items():
                    for label, src in trees.items():
                        samples[label][backend][case].append(_child(src, backend, config, caches[label]))
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                       "nproc": os.cpu_count(), "note": "times in seconds, RSS in MB; medians over rounds"}
    for label, by_backend in samples.items():
        entry = {"git": _git_version(trees[label]), "rounds": args.rounds}
        for backend, by_case in by_backend.items():
            for case, runs in by_case.items():
                row = {"backend": runs[0]["backend"], "numpy": runs[0]["numpy"],
                       "numpy_random_after_import": any(s["numpy_random_after_import"] for s in runs)}
                for key in ("import_s", "run_s", "peak_rss_mb"):
                    if key in runs[0]:
                        row[key] = statistics.median(s[key] for s in runs)
                if "numpy_random_after_run" in runs[0]:
                    row["numpy_random_after_run"] = any(s["numpy_random_after_run"] for s in runs)
                row["samples"] = runs
                entry[f"{backend}/{case}"] = row
                print(f"{label:>8} {backend:>6} {case:>15}: import {row['import_s'] * 1e3:7.1f} ms"
                      + (f"  run {row['run_s'] * 1e3:8.1f} ms" if "run_s" in row else " " * 19)
                      + f"  rss {row['peak_rss_mb']:6.1f} MB  numpy.random "
                      + str(row.get("numpy_random_after_run", row["numpy_random_after_import"])))
        results[label] = entry
    args.out.write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
