"""Spans around calls into soficlab's modules, recorded from outside the package.

`install()` wraps the public functions and methods listed in TARGETS.  A
function is patched under every name a soficlab module binds it to, because
`from x import y` copies the reference at import time: wrapping only
`soficlab.kernels.glauber_sweeps` would miss the call made through
`soficlab.sampling.glauber_sweeps`.  Spans (name, start, end, parent) stay in
memory; `Tracer.dump` writes them out and `layer_metrics` reduces them to the
per-layer metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module that defines it, attribute path inside that module)
TARGETS = [
    ("cli.run_config", "soficlab.cli", "run_config"),
    ("kernels.glauber_sweeps", "soficlab.kernels", "glauber_sweeps"),
    ("finitemodel.partition_mcmc", "soficlab.finitemodel", "partition_mcmc"),
    ("enumeration.site_marginal", "soficlab.enumeration", "site_marginal"),
    ("enumeration.log_partition", "soficlab.enumeration", "log_partition"),
    ("enumeration.joint_distribution", "soficlab.enumeration", "joint_distribution"),
    ("enumeration.all_configs", "soficlab.enumeration", "all_configs"),
    ("saw.hardcore_marginal_via_saw", "soficlab.saw", "hardcore_marginal_via_saw"),
    ("saw.build_saw_tree", "soficlab.saw", "build_saw_tree"),
    ("saw.root_occupation", "soficlab.saw", "root_occupation"),
    ("saw._surgery", "soficlab.saw", "_surgery"),
    ("marginals.make_oracle", "soficlab.marginals", "make_oracle"),
    ("marginals.batch", "soficlab.marginals", "TransferOracle.batch"),
    ("marginals.batch", "soficlab.marginals", "BallEnumerationOracle.batch"),
    ("marginals.batch", "soficlab.marginals", "SawOracle.batch"),
    ("marginals.conditional", "soficlab.marginals", "BallEnumerationOracle.conditional"),
    ("marginals.conditional", "soficlab.marginals", "SawOracle.conditional"),
    ("transfer.build_transfer", "soficlab.transfer", "build_transfer"),
    ("transfer.conditional_tables", "soficlab.transfer", "TransferMatrix.conditional_tables"),
    ("transfer.conditional_center", "soficlab.transfer", "TransferMatrix.conditional_center"),
    ("transfer.sample_windows", "soficlab.transfer", "TransferMatrix.sample_windows"),
    ("pasts.sample_percolation_masks", "soficlab.pasts", "sample_percolation_masks"),
    ("randominfo.kp_pressure_at_fixed_point", "soficlab.randominfo", "kp_pressure_at_fixed_point"),
    ("randominfo.kp_pressure_at_measure", "soficlab.randominfo", "kp_pressure_at_measure"),
    ("gibbs.ssm_profile", "soficlab.gibbs", "ssm_profile"),
    ("gibbs.uniform_bound_c", "soficlab.gibbs", "uniform_bound_c"),
    ("soficmaps.build", "soficlab.soficmaps", "build_torus"),
    ("soficmaps.build", "soficlab.soficmaps", "build_folner_box"),
    ("soficmaps.build", "soficlab.soficmaps", "build_random_perm"),
    ("groups.ball", "soficlab.groups", "ball"),
]

MODULES = [
    "kernels", "finitemodel", "enumeration", "saw", "marginals", "transfer",
    "pasts", "randominfo", "gibbs", "soficmaps", "groups", "cli",
]


class Tracer:
    """In-memory span log plus work counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts = {
            "kernels.site_updates": 0,
            "saw.tree_nodes": 0,
            "marginals.queries": 0,
            "marginals.unique_queries": 0,
            "pasts.mask_bytes": 0,
        }
        self.batch_misses: dict[int, int] = {}  # open batch span -> memo misses so far

    def wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.stack.pop()
            self._count(name, idx, args, result)
            return result

        return traced

    def _count(self, name, idx, args, result):
        c = self.counts
        if name == "kernels.glauber_sweeps":
            # glauber_sweeps(x, nbr_out, nbr_in, wh, wj, allowed, uniforms, sweeps)
            c["kernels.site_updates"] += len(args[0]) * int(args[7])
        elif name == "saw.build_saw_tree":
            c["saw.tree_nodes"] += result.n_nodes
        elif name == "marginals.batch":
            # a memoising oracle computes a row per miss through `conditional`;
            # one without a memo (the transfer oracle) computes every row
            rows = len(args[1])
            c["marginals.queries"] += rows
            c["marginals.unique_queries"] += self.batch_misses.pop(idx, 0) or rows
        elif name == "marginals.conditional":
            parent = self.parents[idx]
            if parent >= 0 and self.names[parent] == "marginals.batch":
                self.batch_misses[parent] = self.batch_misses.get(parent, 0) + 1
        elif name == "pasts.sample_percolation_masks":
            # chi is float64 and the mask is bool: 9 bytes per (row, site)
            c["pasts.mask_bytes"] += result.size * 9

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [
                        [n, s, e, p]
                        for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
                    ],
                    "counts": self.counts,
                },
                fh,
            )


def install(tracer: Tracer):
    """Wrap every target under every soficlab name bound to it."""
    for name, modname, attr in TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "soficlab" or mod_name.startswith("soficlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def span_table(tracer: Tracer):
    """Per span name and per module: calls, busy seconds, self seconds.

    Busy time counts a span only when no ancestor has the same name (or, for
    modules, the same module), so nested calls are not counted twice.  Self
    time is a span's duration minus the durations of its direct children.
    """
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_time[p] += dur[i]
    by_name: dict[str, list[float]] = {}
    by_module: dict[str, list[float]] = {}
    for i in range(n):
        name = tracer.names[i]
        mod = _module(name)
        name_nested = mod_nested = False
        p = tracer.parents[i]
        while p >= 0 and not (name_nested and mod_nested):
            name_nested = name_nested or tracer.names[p] == name
            mod_nested = mod_nested or _module(tracer.names[p]) == mod
            p = tracer.parents[p]
        self_s = dur[i] - child_time[i]
        row = by_name.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += 0.0 if name_nested else dur[i]
        row[2] += self_s
        row = by_module.setdefault(mod, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += 0.0 if mod_nested else dur[i]
        row[2] += self_s
    return by_name, by_module


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    by_name, by_module = span_table(tracer)
    zero = [0, 0.0, 0.0]

    def calls(name):
        return by_name.get(name, zero)[0]

    def busy(name):
        return by_name.get(name, zero)[1]

    def self_s(name):
        return by_name.get(name, zero)[2]

    total = busy("cli.run_config")
    c = tracer.counts
    m = {}
    for mod in MODULES:
        row = by_module.get(mod, zero)
        m[f"{mod}.calls"] = row[0]
        m[f"{mod}.busy_s"] = row[1]
        m[f"{mod}.self_s"] = row[2]
        m[f"{mod}.self_share"] = row[2] / total if total > 0 else 0.0
    m["kernels.sweep_calls"] = calls("kernels.glauber_sweeps")
    m["kernels.site_updates"] = c["kernels.site_updates"]
    kb = busy("kernels.glauber_sweeps")
    m["kernels.updates_per_s"] = c["kernels.site_updates"] / kb if kb > 0 else 0.0
    m["finitemodel.partition_mcmc.self_s"] = self_s("finitemodel.partition_mcmc")
    sm_calls = calls("enumeration.site_marginal")
    sm_busy = busy("enumeration.site_marginal")
    m["enumeration.site_marginal.calls"] = sm_calls
    m["enumeration.site_marginal.busy_s"] = sm_busy
    m["enumeration.site_marginal.ms_per_call"] = 1e3 * sm_busy / sm_calls if sm_calls else 0.0
    for fn in ("log_partition", "joint_distribution", "all_configs"):
        m[f"enumeration.{fn}.calls"] = calls(f"enumeration.{fn}")
    m["saw.hardcore_marginal_via_saw.calls"] = calls("saw.hardcore_marginal_via_saw")
    m["saw.hardcore_marginal_via_saw.busy_s"] = busy("saw.hardcore_marginal_via_saw")
    m["saw.hardcore_marginal_via_saw.self_s"] = self_s("saw.hardcore_marginal_via_saw")
    m["saw.build_saw_tree.busy_s"] = busy("saw.build_saw_tree")
    m["saw.root_occupation.busy_s"] = busy("saw.root_occupation")
    m["saw.tree_nodes"] = c["saw.tree_nodes"]
    queries = c["marginals.queries"]
    m["marginals.queries"] = queries
    m["marginals.unique_queries"] = c["marginals.unique_queries"]
    m["marginals.cache_hit_ratio"] = (
        1.0 - c["marginals.unique_queries"] / queries if queries else 0.0
    )
    m["marginals.batch.self_s"] = self_s("marginals.batch")
    bb = busy("marginals.batch")
    m["marginals.queries_per_s"] = queries / bb if bb > 0 else 0.0
    for fn in ("build_transfer", "conditional_tables", "sample_windows"):
        m[f"transfer.{fn}.busy_s"] = busy(f"transfer.{fn}")
    m["pasts.sample_percolation_masks.busy_s"] = busy("pasts.sample_percolation_masks")
    m["pasts.mask_bytes"] = c["pasts.mask_bytes"]
    m["randominfo.kp_pressure_at_fixed_point.self_s"] = self_s("randominfo.kp_pressure_at_fixed_point")
    m["randominfo.kp_pressure_at_measure.self_s"] = self_s("randominfo.kp_pressure_at_measure")
    m["gibbs.ssm_profile.busy_s"] = busy("gibbs.ssm_profile")
    m["gibbs.uniform_bound_c.busy_s"] = busy("gibbs.uniform_bound_c")
    m["soficmaps.build.busy_s"] = busy("soficmaps.build")
    m["groups.ball.busy_s"] = busy("groups.ball")
    m["cli.run_config.self_s"] = self_s("cli.run_config")
    return m
