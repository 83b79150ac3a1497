"""soficlab benchmark: pinned RunConfigs timed end to end and per module.

    python3 perfbench/run.py --workload tdi_z2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The load is a closed loop with one client: each run of a workload is a fresh
child interpreter (perfbench/child.py) that imports soficlab from ./src and
calls soficlab.cli.run_config on the workload's RunConfig, one child at a
time, until --seconds have passed.  Every child's outputs are checked
against a reference that does not use soficlab (perfbench/references.py)
and must equal the first child's outputs bit for bit, since all runs share
the seed.

With --trace 0 the end-to-end metrics are medians over the window: wall_s,
the time from the run_config call to the returned record; setup_s, the time
from process spawn until soficlab.cli is imported and the kernel backend
chosen (ten set-up-only children add samples); and peak_rss_mb, the peak
resident set.  The two times are scaled to a reference host speed (see
PROBE_REF_S).  With --trace 1 traced and untraced children alternate; the
per-layer metrics are unscaled medians over the traced ones and
trace.overhead_s is the traced minus the untraced median wall time.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} with the metrics
BENCHMARK.json declares.  Provenance and every raw sample go to
.bench_build/perfbench/<workload>_seed<seed>_trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 10  # set-up-only children per window, spread evenly over it
# Seconds of probe() (child.py), run back to back, on a quiet 2-vCPU x86_64
# VM (Intel Xeon).  Other tenants of a shared host slow every process on it
# by up to ~80%, changing from second to second, so times are reported in
# units of probe() time times PROBE_REF_S.  wall_s is the window's median
# over untraced runs of the run's time times the mean rate (1 / probe time)
# of the probes taken during it; setup_s is the median set-up time times the
# median probe rate of the set-up-only children.  Both are then multiplied
# by PROBE_REF_S.  Probes inside a run read up to ~30% slower than back to
# back (the run's code and data fill the caches).
PROBE_REF_S = 0.000075
RUN_BUDGET_S = 170.0  # a run must end within 180 s; a child is killed past this


def fail(message: str, code: int = 2):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it ('unknown' if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    # the default backend is what is measured, and only this checkout's source
    env.pop("SOFICLAB_KERNEL", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # a program that caches compiled artifacts per user keeps them in the checkout
    env["XDG_CACHE_HOME"] = str(ROOT / ".bench_build" / "cache")
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict | None, str]:
    """Run child.py with args; returns (spawn time, parsed last line or None, error text)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            capture_output=True, text=True, timeout=timeout, env=child_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return t_spawn, None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return t_spawn, None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return t_spawn, None, "no JSON result line"


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One measurement window of one workload; returns metrics and raw samples."""
    model_path = work / f"{workload.name}.model.json"
    model_path.write_text(json.dumps(workload.model))
    config_path = work / f"{workload.name}.config.json"
    config_path.write_text(json.dumps(workload.config(str(model_path), seed)))
    spans_path = work / f"{workload.name}.spans.json"

    start = time.monotonic()
    setup_samples = []
    probe_rates = []  # mean 1 / probe() time of each set-up child
    n_setup = 0

    def setup_child():
        """A set-up-only child: one set-up sample and one probe sample."""
        nonlocal n_setup
        n_setup += 1
        t_spawn, out, err = spawn(["setup"], timeout=60)
        if out is None:
            fail(f"set-up child failed: {err}", 3)
        setup_samples.append(out["ready_at"] - t_spawn)
        probe_rates.append(out["probe_rate"])

    runs = []
    reference_outputs = None
    while True:
        elapsed = time.monotonic() - start
        if runs and "wall_s" not in runs[-1]:
            break  # a child that crashed or timed out ends the window
        have_plain = any(not r["traced"] for r in runs)
        have_traced = any(r["traced"] for r in runs)
        typical = statistics.median(r["child_s"] for r in runs) if runs else 0.0
        # stop when the next child would end more than half a child past the window
        if have_plain and (have_traced or not trace) and elapsed + typical / 2 > seconds:
            break
        # set-up children are due at even steps of the window, so they see the host the runs see
        while n_setup < SETUP_CHILDREN and elapsed >= n_setup * seconds / SETUP_CHILDREN:
            setup_child()
            elapsed = time.monotonic() - start
        traced = trace and len(runs) % 2 == 1
        args = ["run", str(config_path)] + (["--trace", str(spans_path)] if traced else [])
        t_spawn, out, err = spawn(args, timeout=max(5.0, RUN_BUDGET_S - elapsed))
        row = {"traced": traced, "error": err}
        if out is not None:
            row.update(
                wall_s=out["wall_s"],
                setup_s=out["ready_at"] - t_spawn,
                peak_rss_mb=out["peak_rss_mb"],
                child_s=time.monotonic() - t_spawn,
                backend=out["backend"],
            )
            ok, text = workload.check(out["outputs"])
            if reference_outputs is None:
                reference_outputs = out["outputs"]
            elif out["outputs"] != reference_outputs:
                ok, text = False, "outputs differ from the first run at the same seed"
            row["check"] = text
            if not ok:
                row["error"] = f"check failed: {text}"
            if traced:
                row["layers"] = out["layers"]
            setup_samples.append(row["setup_s"])
            if not traced:
                row["probe_rate"] = out["probe_rate"]
                row["probe_n"] = out["probe_n"]
        runs.append(row)
    while n_setup < SETUP_CHILDREN:
        setup_child()

    equality = {"status": "not applicable"}
    if workload.kernel_equality:
        _, out, err = spawn(["kernel-equality"], timeout=60)
        equality = out if out is not None else {"status": "error", "reason": err}
        if equality["status"] not in ("equal", "skipped"):
            for r in runs:
                r["error"] = r["error"] or f"kernel equality: {equality}"

    plain = [r for r in runs if "wall_s" in r and not r["traced"]]
    traced_runs = [r for r in runs if "wall_s" in r and r["traced"]]
    metrics = {}
    if plain:
        metrics["wall_s"] = statistics.median(r["wall_s"] * r["probe_rate"] for r in plain) * PROBE_REF_S
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    metrics["setup_s"] = statistics.median(setup_samples) * statistics.median(probe_rates) * PROBE_REF_S
    layers = {}
    if traced_runs:
        for key in traced_runs[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced_runs)
        if plain:
            layers["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced_runs)
                - statistics.median(r["wall_s"] for r in plain)
            )
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["error"]),
        "kernel_equality": equality,
        "backend": next((r["backend"] for r in runs if "backend" in r), "unknown"),
        "metrics": metrics,
        "layers": layers,
        "setup_samples": setup_samples,
        "setup_probe_rates": probe_rates,
        "runs": runs,
        "window_s": time.monotonic() - start,
    }


def report(res: dict, units: dict):
    print(f"workload {res['workload']}  seed {res['seed']}  backend {res['backend']}  "
          f"trace {res['trace']}  window {res['window_s']:.1f} s")
    print(f"  why: {res['why']}")
    plain = [r["wall_s"] for r in res["runs"] if "wall_s" in r and not r["traced"]]
    measured = {"wall_s": plain, "setup_s": res["setup_samples"]}
    for name, value in res["metrics"].items():
        line = f"  {name:<14} {value:12.4f} {units.get(name, '')}"
        if name in measured:
            raw = measured[name]
            rates = ([r["probe_rate"] for r in res["runs"] if "probe_rate" in r]
                     if name == "wall_s" else res["setup_probe_rates"])
            line += (f"  (median of {len(raw)}: {statistics.median(raw):.4f} s measured; "
                     f"probe() {1e6 / statistics.median(rates):.1f} us against "
                     f"{1e6 * PROBE_REF_S:.1f} us on the reference host)")
        else:
            line += f"  (median of {len(plain)})"
        print(line)
    print(f"  {'failed_frac':<14} {res['failed'] / max(1, res['attempted']):12.4f}  "
          f"({res['failed']} of {res['attempted']} runs)")
    for name, value in res["layers"].items():
        print(f"  {name:<46} {value:14.6g} {units.get(name, '')}")
    for text in sorted({r["error"] for r in res["runs"] if r["error"]}):
        print(f"  FAILED: {text}")
    for text in sorted({r["check"] for r in res["runs"] if "check" in r}):
        print(f"  check: {text}")
    eq = res["kernel_equality"]
    if eq["status"] != "not applicable":
        print(f"  kernel equality: {eq['status']}{' (' + eq['reason'] + ')' if 'reason' in eq else ''}")


def check_declarations(declared: dict, workloads: dict):
    """BENCHMARK.json, metric_map.json and the workload table must agree."""
    if [w["name"] for w in declared["workloads"]] != list(workloads):
        fail("BENCHMARK.json workloads differ from perfbench/workloads.py", 3)
    layers = json.loads((HERE / "metric_map.json").read_text())["layers"]
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    if sorted(mapped) != sorted(m["name"] for m in declared["per_layer"]):
        fail("perfbench/metric_map.json does not list each per_layer metric exactly once", 3)
    for layer in layers.values():
        named = [w for ws in layer["moves"].values() for w in ws] + layer["no_change"]
        if not set(named) <= set(workloads):
            fail(f"metric_map.json names unknown workloads {sorted(set(named) - set(workloads))}", 3)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "soficlab" / "cli.py").is_file():
        fail(f"no soficlab source under {ROOT / 'src'}; run from a checkout of the repository")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    check_declarations(declared, WORKLOADS)
    section = declared["per_layer"] if args.trace else declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    provenance = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    results = []
    for name in names:
        res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work)
        res["provenance"] = {**provenance, "kernel_backend": res["backend"]}
        path = work / f"{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1))
        report(res, units)
        print("  provenance: " + ", ".join(f"{k} {v}" for k, v in res["provenance"].items()))
        print(f"  raw samples: {path.relative_to(ROOT)}")
        results.append(res)

    metrics = {}
    for res in results:
        produced = res["layers"] if args.trace else res["metrics"]
        missing = {m["name"] for m in section} - set(produced)
        if missing:
            errors = sorted({r["error"] for r in res["runs"] if r["error"]})
            fail(f"{res['workload']}: no value for {sorted(missing)}; run errors: {errors}", 3)
        undeclared = set(produced) - {m["name"] for m in section}
        if undeclared:
            fail(f"{res['workload']}: metrics not in BENCHMARK.json: {sorted(undeclared)}", 3)
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for m in section:
            metrics[prefix + m["name"]] = {"value": produced[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
