"""One measured run in a fresh interpreter, as a console-command user pays it.

    python perfbench/child.py setup
    python perfbench/child.py run CONFIG.json [--trace SPANS.json]
    python perfbench/child.py kernel-equality

`run` imports soficlab.cli first, so the parent can time set-up from process
start to this point; it then times `soficlab.cli.run_config` on the RunConfig
and prints one JSON line with the timings, the peak RSS, the rate of a
fixed probe taken during the run (see Probing) and the record's outputs;
`setup` stops after the imports and times the probe.  With --trace, the
calls into each module are wrapped in spans (perfbench/tracing.py), no probe
runs, and the per-layer metrics are added to the line.
`kernel-equality` runs the sweep kernel soficlab.kernels selected and the
Python twin on the same uniforms and reports whether the trajectories agree
bitwise; with no compiled kernel importable it reports "skipped".
"""

import json
import resource
import signal
import statistics
import sys
import time

import soficlab.cli
import soficlab.kernels

READY_AT = time.monotonic()

import tracing  # noqa: E402  imported after READY_AT: not part of set-up

PROBE_PERIOD_S = 0.02  # a timed run is interrupted for one probe this often
SETUP_PROBE_PASSES = 200  # probes a set-up-only child takes after its imports
_PROBE_BUF = [0] * 64


def probe() -> float:
    """Seconds for one pass of fixed interpreted work that runs no soficlab code.

    About 0.1 ms on a quiet host.  It allocates no container, so it never
    starts a garbage collection of the program's heap.
    """
    t0 = time.perf_counter()
    buf = _PROBE_BUF
    acc = 0
    for i in range(1000):
        acc += (i * i) % 7
        buf[i & 63] = acc
    return time.perf_counter() - t0


class Probing:
    """Time probe() every PROBE_PERIOD_S of wall time while the block runs.

    Other tenants of a shared host slow every process by up to ~80%, and the
    slow-down changes from second to second.  Probes taken during a run, in
    its own process and on its own core, see the slow-down the run sees.
    Since they are evenly spaced in time, the run's time times their mean
    rate (1 / probe time) is the run's work in units of probe() time, which
    is steadier than the time itself.
    """

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.samples) < 10:  # a run shorter than ten periods
            self.samples.append(probe())
        return False


def probe_rate(samples: list[float]) -> float:
    """Mean of 1 / probe time over the samples, in 1/s."""
    return statistics.fmean(1.0 / x for x in samples)


def _peak_rss_mb() -> float:
    """Peak resident set of this process image.

    Linux carries ru_maxrss across fork and exec, so it would include the
    parent's resident set at spawn; VmHWM belongs to this image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(config_path: str, spans_path: str | None) -> dict:
    with open(config_path) as fh:
        config = json.load(fh)
    tracer = None
    out = {"ready_at": READY_AT}
    if spans_path:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        t0 = time.perf_counter()
        record = soficlab.cli.run_config(config)
        out["wall_s"] = time.perf_counter() - t0
    else:
        with Probing() as probing:
            t0 = time.perf_counter()
            record = soficlab.cli.run_config(config)
            wall_s = time.perf_counter() - t0
        # the probes' own time is not the program's
        out["wall_s"] = wall_s - sum(probing.samples)
        out["probe_rate"] = probe_rate(probing.samples)
        out["probe_n"] = len(probing.samples)
    out.update(
        peak_rss_mb=_peak_rss_mb(),
        backend=soficlab.kernels.BACKEND,
        outputs=record["outputs"],
    )
    if tracer is not None:
        tracer.dump(spans_path)
        out["layers"] = tracing.layer_metrics(tracer)
    return out


def kernel_equality() -> dict:
    """Bitwise trajectory equality of the selected and the Python sweep kernel."""
    import numpy as np
    from soficlab import soficmaps
    from soficlab._glauber_py import glauber_sweeps as python_kernel
    from soficlab.constraints import hardcore
    from soficlab.sampling import GlauberEngine

    if soficlab.kernels.BACKEND == "python":
        return {"status": "skipped", "reason": "no compiled kernel importable"}
    st, pot = hardcore(2, 1.0)
    engine = GlauberEngine(soficmaps.build_torus(2, 16), st, pot)
    sweeps = 20
    uniforms = np.random.default_rng(0).random(sweeps * engine.sm.n)
    states = []
    for kernel in (soficlab.kernels.glauber_sweeps, python_kernel):
        x = engine.initial_state(0)
        kernel(x, engine.nbr_out, engine.nbr_in, engine.wh, engine.wj, engine.allowed, uniforms, sweeps)
        states.append(x)
    same = bool(np.array_equal(states[0], states[1]))
    return {"status": "equal" if same else "different", "backend": soficlab.kernels.BACKEND}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        out = {"ready_at": READY_AT, "probe_rate": probe_rate([probe() for _ in range(SETUP_PROBE_PASSES)])}
    elif mode == "run":
        spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
        out = run(argv[1], spans_path)
    elif mode == "kernel-equality":
        out = kernel_equality()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
