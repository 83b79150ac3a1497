"""soficlab's own PCG64 stream, `kernels.Pcg64`, against numpy's
`default_rng(SeedSequence(entropy))`, on both kernel backends; and the runs
of the compiled backend, which never import `numpy.random`."""

import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from soficlab import _glauber_py, groups, kernels, soficmaps
from soficlab.constraints import hardcore
from soficlab.kernels import Pcg64
from soficlab.marginals import SawOracle, TransferOracle
from soficlab.sampling import GlauberEngine

from oracles import into

BACKENDS = ["c", "python"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Each test on the compiled backend's draws (skipped where it is not
    loaded) and on the Python backend's, which draw through numpy."""
    if request.param == "c" and kernels.BACKEND != "c":
        pytest.skip("C kernel not loaded")
    if request.param == "python":
        monkeypatch.setattr(kernels, "_c", None)
    return request.param


def _numpy(entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _entropies():
    """2,000 entropy values: single ints from 0 up past 2^64, and lists of 0
    to 9 words, some above 2^32 and some nested, as SeedSequence takes them."""
    draw = random.Random(20261019)
    out = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, [], [0], [0, 0, 0, 0, 0], [2**40, 3], [[1, 2], 3, [4, [5]]]]
    while len(out) < 2000:
        size = draw.choice([1, 2, 3, 4, 5, 6, 9])
        bits = draw.choice([8, 32, 33, 64, 100])
        out.append([draw.getrandbits(bits) for _ in range(size)] if draw.random() < 0.9
                   else draw.getrandbits(bits))
    return out


def test_seeding_is_bitwise_numpys_seed_sequence(backend):
    """The state and increment of Pcg64(e) are those of
    `PCG64(SeedSequence(e))` for every entropy value drawn."""
    entropies = _entropies()
    assert sum(isinstance(e, list) and len(e) > 4 for e in entropies) > 200
    assert any(isinstance(e, list) and max(e, default=0) >= 2**32 for e in entropies)
    for entropy in entropies:
        expect = np.random.PCG64(np.random.SeedSequence(entropy)).state["state"]
        assert Pcg64(entropy).state == expect, entropy


@pytest.mark.parametrize("entropy,error", [(-1, ValueError), ([3, -2], ValueError), (1.5, TypeError),
                                           ([1, 2.0], TypeError), ("12", TypeError)])
def test_seeding_refuses_what_seed_sequence_refuses(entropy, error):
    with pytest.raises(error):
        np.random.SeedSequence(entropy).generate_state(1)
    with pytest.raises(error):
        Pcg64(entropy)


def test_random_is_bitwise_numpys_generator(backend):
    """Floats, 0-d, empty, 1-d and 2-d draws, and draws into C- and
    F-ordered out arrays with and without size, in one interleaved
    sequence: the values, their types and shapes, and the end state are
    numpy's."""
    for entropy in (0, [7, 16, 0x6B5], [2**33, 1, 2, 3, 4, 5]):
        rng, reference = Pcg64(entropy), _numpy(entropy)
        for size, order in [(None, None), ((), None), (0, None), (1, None), (7, None), ((3, 5), None),
                            (None, "C"), ((2, 3), "C"), (None, "F"), ((4, 3), "F"), ((2, 0), None)]:
            if order is None:
                got, expect = rng.random(size), reference.random(size)
            else:
                out, ref_out = (np.full((4, 3) if size is None else size, np.nan, order=order) for _ in range(2))
                got, expect = rng.random(size, out=out), reference.random(size, out=ref_out)
                assert got is out
            assert type(got) is type(expect)
            assert np.shape(got) == np.shape(expect)
            assert np.array_equal(got, expect)
        assert rng.state == reference.bit_generator.state["state"]


def test_random_refuses_an_out_that_numpy_refuses(backend):
    """The same exception type as numpy's, and no draw."""
    for size, out, error in [(None, np.empty(4, np.float32), TypeError),
                             (None, np.empty(8)[::2], ValueError),
                             (None, np.broadcast_to(np.empty(1), (4,)), ValueError),
                             (3, np.empty(4), ValueError)]:
        rng = Pcg64(5)
        with pytest.raises(error):
            _numpy(5).random(size, out=out)
        with pytest.raises(error):
            rng.random(size, out=out)
        assert rng.state == Pcg64(5).state


@pytest.mark.parametrize("steps", [0, 1, 53, 2**20 + 7, 2**64 + 3, 2**127, 2**128 - 1, -5])
def test_advance_is_bitwise_numpys_advance(backend, steps):
    """A jump of any size, negative and past 2^128 included (mod 2^128),
    lands where numpy's PCG64.advance lands, and draws go on from there;
    `advance` returns the stream."""
    rng, reference = Pcg64([3, 1]), _numpy([3, 1])
    rng.random(5)
    reference.random(5)
    assert rng.advance(steps) is rng
    reference.bit_generator.advance(steps)
    assert rng.state == reference.bit_generator.state["state"]
    assert np.array_equal(rng.random(9), reference.random(9))


def test_advance_is_the_draws_it_skips(backend):
    rng, walked = Pcg64(11), Pcg64(11)
    walked.random(1000)
    assert rng.advance(1000).state == walked.state


def test_threads_sharing_a_stream_lose_no_draw(backend):
    """Threads drawing from one Pcg64 at once, by `random`, by `advance`
    and through both percolation kernels and the sweep, under a short
    switch interval: the stream ends where all their draws, taken one after
    another, leave it."""
    line = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)
    engine = GlauberEngine(soficmaps.build_torus(1, 8), *hardcore(1, 1.0))
    rng, steps = Pcg64(17), []

    def work(k):
        for i in range(60):
            if i % 3 == 0:
                rng.random(k + 1)
                steps.append(k + 1)
            elif i % 3 == 1:
                kernels.percolation_lookup(np.zeros((1, 5), np.int64), 7, line.sides, line.tables, rng,
                                           into(np.empty(7)))
                steps.append(35)
            else:
                engine.sweeps(engine.initial_state(0), 2, rng)
                rng.advance(k)
                steps.append(16 + k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(steps) == 240
    assert rng.state == Pcg64(17).advance(sum(steps)).state


def _kernel_calls() -> dict:
    """{name: call(rng)}: one call of each kernel on both backends, and of
    the sweep engine, with rng as its stream."""
    st, pot = hardcore(2, 1.0)
    engine = GlauberEngine(soficmaps.build_torus(2, 4), st, pot)
    line = TransferOracle(*hardcore(1, 1.0), groups.zd(1), 2)
    tree = SawOracle(*hardcore(2, 1.0), groups.free(2), 3)
    patterns = np.zeros((2, 5), np.int64)
    cum_pi, cum_step = np.cumsum(line.tm.stationary()), np.cumsum(line.tm.step_probs(), axis=1)
    calls = {"engine": lambda rng: engine.sweeps(engine.initial_state(0), 2, rng),
             "sample-windows": lambda rng: line.tm.sample_windows(2, 4, rng)}
    for where, module in (("kernels", kernels), ("twin", _glauber_py)):
        calls[f"{where}-sweeps"] = lambda rng, m=module: m.glauber_sweeps(
            engine.initial_state(0), engine.nbr_out, engine.nbr_in, engine.wh, engine.wj, engine.allowed, rng, 2)
        calls[f"{where}-lookup"] = lambda rng, m=module: m.percolation_lookup(
            patterns, 3, line.sides, line.tables, rng, into(np.empty(6)))
        calls[f"{where}-tree"] = lambda rng, m=module: m.tree_percolation(
            patterns, 3, tree.tree, rng, into(np.empty(6)))
        calls[f"{where}-windows"] = lambda rng, m=module: m.markov_windows(cum_pi, cum_step, 4, 5, rng)
        calls[f"{where}-permutations"] = lambda rng, m=module: m.permutations(2, 9, rng)
    return calls


@pytest.mark.parametrize("stream", [
    lambda: np.random.default_rng(1),
    lambda: np.random.Generator(np.random.MT19937(1)),
    lambda: np.random.PCG64(1),
    lambda: 1,
], ids=["pcg64-generator", "mt19937-generator", "bit-generator", "int"])
def test_kernels_refuse_any_stream_but_pcg64(stream):
    """Every kernel on both backends, and the sweep engine, refuses a numpy
    Generator or anything else but a Pcg64 with a ValueError that names
    Pcg64, before any draw; a Pcg64 runs."""
    for what, call in _kernel_calls().items():
        rng = stream()
        before = pickle.dumps(rng)
        with pytest.raises(ValueError, match=r"must be a soficlab\.kernels\.Pcg64, not "):
            call(rng)
        assert pickle.dumps(rng) == before, what  # nothing drawn
        call(Pcg64(1))


# the permutation kernel of each backend that runs here
PERMUTATIONS = [_glauber_py.permutations] + ([kernels._c_permutations] if kernels.BACKEND == "c" else [])


def test_permutations_are_bitwise_numpys():
    """k = 1, 2 and 3 permutations of up to 10^5 entries are bitwise those
    of `Generator.permutation(n)` drawn k times in turn, on each backend,
    across the sizes where numpy's bounded draw rejects most and least, and
    the stream ends in the generator's state."""
    for k, n, entropy in itertools.product((1, 2, 3), (0, 1, 2, 3, 17, 1000, 2**16 + 1, 10**5),
                                           (0, 7, [3, 2**40])):
        reference = _numpy(entropy)
        expect = np.array([reference.permutation(n) for _ in range(k)], np.int64).reshape(k, n)
        for permutations in PERMUTATIONS:
            rng = Pcg64(entropy)
            got = permutations(k, n, rng)
            assert got.dtype == np.int64 and np.array_equal(got, expect), (permutations, k, n, entropy)
            assert rng.state == reference.bit_generator.state["state"]
    for permutations in PERMUTATIONS:
        with pytest.raises(ValueError):
            permutations(1, -1, Pcg64(0))


def test_random_perm_map_is_numpys_draw():
    """The random_perm builder's cycle s runs along the s-th permutation
    that numpy's `default_rng(SeedSequence(seed))` draws, so a seed gives
    the same map whichever stream draws it."""
    for k, n, seed in ((1, 2, 0), (2, 50, 5), (3, 1000, 9)):
        reference = _numpy(seed)
        perms = soficmaps.build_random_perm(k, n, seed).perms
        for s in range(k):
            order = reference.permutation(n)
            assert np.array_equal(perms[s, order], order[np.r_[1:n, 0]])


_HYGIENE = r"""
import json, sys
import numpy
if "numpy.random" in sys.modules:
    print(json.dumps("numpy.random loaded with numpy"))
    raise SystemExit
import soficlab.cli as cli
from soficlab import kernels
loaded = ["numpy.random" in sys.modules]
kernels._usable_cores = lambda: 2  # a split of the transfer rows, as on two cores
for config in json.loads(sys.argv[1]):
    cli.run_config(config)
    loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""


def test_compiled_runs_never_import_numpy_random(tmp_path):
    """On the compiled backend, `import soficlab.cli` and small runs of the
    three experiments that draw random streams (`pressure` by `mcmc` on a
    torus and on a random_perm map, `kp-estimate` through the SAW oracle,
    and through the transfer oracle against mu with 40,000 rows, split into
    two ranges) leave `numpy.random` unloaded.  numpy 1.x loads it with
    numpy, so there the test is skipped."""
    if kernels.BACKEND != "c":
        pytest.skip("C kernel not loaded")
    model = {"group": {"kind": "Zd", "d": 1}, "alphabet": 2, "vertex_log_weights": [0.0, 0.0],
             "relations": {"e1": [[True, True], [True, False]]}}
    free = {**model, "group": {"kind": "Free", "k": 2},
            "relations": {s: [[True, True], [True, False]] for s in ("a", "b")}}
    paths = {}
    for name, data in (("line", model), ("free", free)):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    configs = [
        {"experiment": "pressure", "model": paths["line"], "seed": 1,
         "params": {"builder_desc": {"builder": "torus", "d": 1}, "sizes": [12],
                    "method": "mcmc", "mcmc": {"grid_points": 4, "samples_per_point": 16}}},
        {"experiment": "pressure", "model": paths["free"], "seed": 1,
         "params": {"builder_desc": {"builder": "random_perm", "k": 2}, "sizes": [12],
                    "method": "mcmc", "mcmc": {"grid_points": 4, "samples_per_point": 16}}},
        {"experiment": "kp-estimate", "model": paths["free"], "seed": 1,
         "params": {"oracle": "saw", "r": 2, "N": 50}},
        {"experiment": "kp-estimate", "model": paths["line"], "seed": 1,
         "params": {"oracle": "transfer", "r": 2, "nu": "mu", "N": 400, "N_inner": 100}},
    ]
    assert 400 * 100 > 2 * kernels.ROWS_PER_WORKER
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("SOFICLAB_KERNEL", None)
    proc = subprocess.run([sys.executable, "-c", _HYGIENE, json.dumps(configs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    if loaded == "numpy.random loaded with numpy":
        pytest.skip("this numpy loads numpy.random on import")
    assert loaded == [False] * 5
