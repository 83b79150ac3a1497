"""Peak memory and wall time of `kp-estimate` against mu as its row count grows.

    python benchmarks/streaming.py                                        # this checkout, 5 rounds
    python benchmarks/streaming.py --src before=../old/src --src after=src --rounds 5

Each --src LABEL=DIR is a soficlab source tree (the directory holding the
`soficlab` package).  The case is perfbench's `kp_transfer_z1`: hardcore at
lambda = 1 on Z^1, the transfer oracle, r = 16, `nu: mu` with N_inner = 100,
at N = 0.8, 4 and 8 million (pattern, past) rows, that is 8,000, 40,000
and 80,000 patterns of mu.  A round starts one fresh child per (size,
tree), the trees alternating, so a slow spell of a shared host falls on
all of them alike.  A child imports soficlab.cli, times one `run_config`,
and reports its peak RSS (VmHWM), the kernel backend it loaded and the
record's value.  Each tree's C library is built into its own cache
directory by an untimed child first, since a build removes the libraries of
other source versions.  The medians and every raw sample go to --out
(benchmarks/BENCH_streaming.json), merged by label into what is there.
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

from cold_start import _git_version

HERE = Path(__file__).resolve().parent

_CHILD = r"""
import json, sys, time
import numpy
import soficlab.cli
from soficlab import kernels
out = {"backend": kernels.BACKEND, "numpy": numpy.__version__}
config = json.loads(sys.argv[1])
if config is not None:
    t0 = time.perf_counter()
    record = soficlab.cli.run_config(config)
    out["run_s"] = time.perf_counter() - t0
    out["value"] = record["outputs"]["value"]
with open("/proc/self/status") as status:
    out["peak_rss_mb"] = next(int(line.split()[1]) for line in status if line.startswith("VmHWM")) / 1024
print(json.dumps(out))
"""

MODEL = {"group": {"kind": "Zd", "d": 1}, "alphabet": 2, "relations": {"e1": [[True, True], [True, False]]},
         "vertex_log_weights": [0.0, math.log(1.0)]}
SIZES = (800_000, 4_000_000, 8_000_000)


def _child(src: Path, config, cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SOFICLAB_KERNEL"}
    env.update(PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(config)], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a labelled soficlab source tree; repeatable (default: current=src of this checkout)")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", type=Path, default=HERE / "BENCH_streaming.json")
    args = ap.parse_args(argv)
    trees = dict(item.split("=", 1) for item in args.src or [f"current={HERE.parent / 'src'}"])
    trees = {label: Path(path).resolve() for label, path in trees.items()}
    with tempfile.TemporaryDirectory(prefix="streaming") as tmp:
        tmp = Path(tmp)
        model = tmp / "z1.model.json"
        model.write_text(json.dumps(MODEL))
        configs = {n: {"experiment": "kp-estimate", "model": str(model), "seed": 1,
                       "params": {"oracle": "transfer", "r": 16, "nu": "mu", "N": n, "N_inner": 100}}
                   for n in SIZES}
        caches = {label: tmp / f"cache-{k}" for k, label in enumerate(trees)}
        for label, src in trees.items():  # build each tree's library, untimed
            _child(src, None, caches[label])
        samples = {label: {n: [] for n in SIZES} for label in trees}
        for r in range(args.rounds):
            for n, config in configs.items():
                for label, src in trees.items():
                    samples[label][n].append(_child(src, config, caches[label]))
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                       "nproc": os.cpu_count(), "note": "times in seconds, VmHWM in MB; medians over rounds"}
    for label, by_size in samples.items():
        entry = {"git": _git_version(trees[label]), "rounds": args.rounds}
        for n, runs in by_size.items():
            row = {"backend": runs[0]["backend"], "numpy": runs[0]["numpy"], "value": runs[0]["value"],
                   "run_s": statistics.median(s["run_s"] for s in runs),
                   "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs), "samples": runs}
            entry[f"N={n}"] = row
            print(f"{label:>8} {row['backend']:>6} N={n:>9,}: run {row['run_s'] * 1e3:8.1f} ms"
                  f"  VmHWM {row['peak_rss_mb']:6.1f} MB  value {row['value']!r}")
        results[label] = entry
    args.out.write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
