"""The harness every script in benchmarks/ runs on: labelled source trees,
one C library per tree, alternating rounds of fresh children, records
merged by label, and a probe of whether the host's cores run in parallel.

A script names its child (a `python -c` program that prints one JSON object
as its last line) and its tasks, each an argument list and a kernel backend.
`measure` builds each tree's C library into a cache directory of its own by
an untimed child first, since a build removes the libraries of other source
versions, and no child writes the user's cache.  A round then starts one
fresh child per (task, tree), the trees alternating innermost, so a slow
spell of a shared host falls on all of them alike.  Each round first
takes `parallel_probe`, so that a record shows whether its rounds ran on
a host whose second core was free.  `write` merges the script's entries
into its --out file by label: an entry replaces its own label, every
other label stays, and `host` is rewritten with the probes.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

_BUILD = "import json; from soficlab import kernels; print(json.dumps(kernels.BACKEND))"
PROBE_BYTES = 32 << 20  # hashed twice by `parallel_probe`, in one thread and then in two


def parse_args(doc: str, rounds: int, out: Path, argv=None) -> argparse.Namespace:
    """The flags every script takes: --src LABEL=DIR (repeatable), --rounds
    and --out; `args.trees` maps each label to its resolved tree."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a labelled soficlab source tree; repeatable (default: current=src of this checkout)")
    ap.add_argument("--rounds", type=int, default=rounds)
    ap.add_argument("--out", type=Path, default=out)
    args = ap.parse_args(argv)
    items = args.src or [f"current={Path(__file__).resolve().parent.parent / 'src'}"]
    args.trees = {label: Path(path).resolve() for label, path in (item.split("=", 1) for item in items)}
    return args


def child(code: str, src: Path, cache: Path, argv=(), backend: str | None = None) -> dict:
    """The JSON object a fresh interpreter running `code` prints last, with
    `src` first on its path and `cache` as its cache home; on the default
    kernel backend, or the Python one for backend="python"."""
    env = {k: v for k, v in os.environ.items() if k != "SOFICLAB_KERNEL"}
    env.update(PYTHONPATH=str(src), XDG_CACHE_HOME=str(cache))
    if backend == "python":
        env["SOFICLAB_KERNEL"] = "python"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def parallel_probe() -> float:
    """The throughput of two SHA-256 hashes of PROBE_BYTES in two threads
    over that in one: about 2 when the host runs two threads on two cores
    at once, about 1 when they take turns.  hashlib drops the GIL while it
    hashes a large buffer, so the threads compete for cores alone."""
    data = bytes(PROBE_BYTES)
    hashlib.sha256(data)  # untimed: maps the buffer's pages
    t0 = time.perf_counter()
    for _ in range(2):
        hashlib.sha256(data)
    one = time.perf_counter() - t0
    threads = [threading.Thread(target=hashlib.sha256, args=(data,)) for _ in range(2)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return one / (time.perf_counter() - t0)


def measure(code: str, trees: dict, rounds: int, tasks: dict) -> tuple[dict, list]:
    """({label: {task: [one sample per round]}}, [the parallel_probe of
    each round]) of `code` run on every tree, tasks = {task: (argv, backend)}."""
    with tempfile.TemporaryDirectory(prefix="soficlab-bench") as tmp:
        caches = {label: Path(tmp) / f"cache-{k}" for k, label in enumerate(trees)}
        for label, src in trees.items():  # build each tree's library, untimed
            child(_BUILD, src, caches[label])
        samples = {label: {task: [] for task in tasks} for label in trees}
        probes = []
        for r in range(rounds):
            probes.append(parallel_probe())
            for task, (argv, backend) in tasks.items():
                for label, src in trees.items():
                    samples[label][task].append(child(code, src, caches[label], argv, backend))
            print(f"round {r + 1}/{rounds} done", file=sys.stderr)
    return samples, probes


def git_version(src: Path) -> str | None:
    """The tree's commit, marked -dirty when it has uncommitted changes."""
    proc = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=12"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def write(out: Path, entries: dict, note: str, probes: list) -> None:
    """Merge {label: entry} into the JSON record at `out` by label and
    rewrite its `host`, with the rounds' parallel probes."""
    results = json.loads(out.read_text()) if out.exists() else {}
    results["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                       "nproc": os.cpu_count(), "parallel_2_over_1": [round(p, 3) for p in probes], "note": note}
    results.update(entries)
    out.write_text(json.dumps(results, indent=1) + "\n")
