import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soficlab import _glauber_py, kernels, soficmaps
from soficlab.constraints import full_shift, hardcore, zero_potential
from soficlab.finitemodel import DerivedSpace, is_in_Xn
from soficlab.sampling import GlauberEngine

needs_c = pytest.mark.skipif(kernels.BACKEND != "c", reason="C kernel not loaded")


def _run(kernel, engine, sweeps, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(sweeps * engine.sm.n)
    x = engine.initial_state(0)
    kernel(x, engine.nbr_out, engine.nbr_in, engine.wh, engine.wj, engine.allowed, u, sweeps)
    return x


@needs_c
@pytest.mark.parametrize("model,builder", [
    (hardcore(2, 1.5), lambda: soficmaps.build_torus(2, 6)),
    (hardcore(2, 0.7), lambda: soficmaps.build_random_perm(2, 64, seed=3)),
    ((full_shift(3, 1), zero_potential(3, 1)), lambda: soficmaps.build_torus(1, 9)),
])
def test_backends_bitwise_equal(model, builder):
    st, pot = model
    engine = GlauberEngine(builder(), st, pot)
    a = _run(kernels.glauber_sweeps, engine, 40, seed=11)
    b = _run(_glauber_py.glauber_sweeps, engine, 40, seed=11)
    assert np.array_equal(a, b)


def test_c_kernel_loads_where_its_compiler_is_on_path():
    if os.environ.get("SOFICLAB_KERNEL", "").lower() == "python":
        pytest.skip("SOFICLAB_KERNEL=python forces the Python kernel")
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"{compiler} is not on PATH")
    assert kernels.BACKEND == "c"


@st.composite
def sweep_cases(draw):
    """Kernel arguments for a random model: tori or random permutations, dead rows, -inf biases."""
    def exactly(k, elements):
        return np.array(draw(st.lists(elements, min_size=k, max_size=k)))

    a = draw(st.integers(1, 4))
    if draw(st.booleans()):
        sm = soficmaps.build_torus(draw(st.integers(1, 2)), draw(st.integers(2, 5)))
        n, nbr_out, nbr_in = sm.n, sm.perms, sm.perms_inv
    else:  # small random permutations, so some generators have fixed points
        n = draw(st.integers(1, 8))
        nbr_out = np.array([draw(st.permutations(range(n))) for _ in range(draw(st.integers(1, 3)))])
        nbr_in = np.empty_like(nbr_out)
        for s in range(len(nbr_out)):
            nbr_in[s, nbr_out[s]] = np.arange(n)
    n_gen = nbr_out.shape[0]
    allowed = exactly(n_gen * a * a, st.booleans()).astype(np.uint8).reshape(n_gen, a, a)
    for s, c in draw(st.lists(st.tuples(st.integers(0, n_gen - 1), st.integers(0, a - 1)), max_size=2)):
        allowed[s, c, :] = 0  # a dead row
    reals = st.floats(-3.0, 3.0)
    wh = np.exp(exactly(a, reals) + exactly(a, st.one_of(reals, st.just(-np.inf))))  # h + bias
    wj = np.exp(exactly(n_gen * a * a, reals)).reshape(n_gen, a, a)
    x = exactly(n, st.integers(0, a - 1)).astype(np.int8)
    sweeps = draw(st.integers(1, 30))
    uniforms = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(sweeps * n)
    uniforms[:: draw(st.sampled_from([1, 3, len(uniforms)]))] = 0.0  # thr == cum == 0 at dead symbols
    return x, nbr_out.astype(np.int64), nbr_in.astype(np.int64), wh, wj, allowed, uniforms, sweeps


@needs_c
def test_c_kernel_is_bitwise_the_python_twin():
    fixed_point_cases = []

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(sweep_cases(), st.data())
    def check(case, data):
        x, nbr_out, *rest = case
        a, sweeps = len(rest[1]), rest[-1]
        safe = data.draw(st.integers(0, a - 1))
        xc, xp = x.copy(), x.copy()
        cc, cp = np.full(sweeps, -1, np.int64), np.full(sweeps, -1, np.int64)
        kernels.glauber_sweeps(xc, nbr_out, *rest, cc, safe)
        _glauber_py.glauber_sweeps(xp, nbr_out, *rest, cp, safe)
        assert np.array_equal(xc, xp)
        assert np.array_equal(cc, cp)
        assert cc[-1] == np.count_nonzero(xc != safe)
        fixed_point_cases.append(bool((nbr_out == np.arange(len(x))).any()))

    check()
    assert any(fixed_point_cases), "no drawn case exercised the self-loop branch"


def _args():
    st, pot = hardcore(2, 1.0)
    engine = GlauberEngine(soficmaps.build_torus(2, 4), st, pot)
    u = np.random.default_rng(0).random(3 * engine.sm.n)
    return [engine.initial_state(0), engine.nbr_out, engine.nbr_in, engine.wh, engine.wj,
            engine.allowed, u, 3, np.zeros(3, np.int64), 0]


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


@needs_c
@pytest.mark.parametrize("arg,change", [
    (0, lambda x: x.astype(np.int64)),  # wrong dtype
    (1, lambda nb: nb.astype(np.int32)),
    (3, lambda wh: wh.astype(np.float32)),
    (5, lambda al: al.astype(bool)),
    (0, lambda x: np.repeat(x, 2)[::2]),  # not contiguous
    (4, lambda wj: np.asfortranarray(wj)),
    (0, _read_only),
    (2, lambda nb: nb[:, :-1].copy()),  # mismatched shapes
    (4, lambda wj: wj[:, :1].copy()),
    (5, lambda al: al[:1].copy()),
    (6, lambda u: u[:-1].copy()),  # one uniform short
    (3, lambda wh: np.ones(65)),  # alphabet above 64
    (1, lambda nb: _set(nb, (1, 5), 16)),  # neighbour index outside [0, n)
    (2, lambda nb: _set(nb, (0, 0), -1)),
    (0, lambda x: _set(x, 3, 2)),  # symbol outside [0, a)
    (0, lambda x: _set(x, 0, -1)),
    (8, lambda c: c.astype(np.int32)),  # counts
    (8, lambda c: np.zeros(6, np.int64)[::2]),
    (8, lambda c: c[:-1].copy()),
    (8, _read_only),
    (9, lambda safe: 2),  # safe outside [0, a)
    (9, lambda safe: -1),
], ids=["x-dtype", "nbr_out-dtype", "wh-dtype", "allowed-dtype", "x-strided", "wj-fortran",
        "x-read-only", "nbr_in-shape", "wj-shape", "allowed-shape", "uniforms-short",
        "alphabet-65", "nbr_out-above-n", "nbr_in-negative", "x-symbol-above-a", "x-symbol-negative",
        "counts-dtype", "counts-strided", "counts-short", "counts-read-only", "safe-above-a",
        "safe-negative"])
def test_c_kernel_rejects_what_it_cannot_trust(arg, change):
    args = _args()
    args[arg] = change(args[arg])
    x_before = np.array(args[0], copy=True)
    counts_before = np.array(args[8], copy=True)
    with pytest.raises(ValueError):
        kernels.glauber_sweeps(*args)
    assert np.array_equal(args[0], x_before)
    assert np.array_equal(args[8], counts_before)


@needs_c
def test_c_kernel_takes_read_only_and_empty_inputs():
    args = _args()
    expected = args[0].copy()
    _glauber_py.glauber_sweeps(expected, *args[1:])
    for arr in args[1:7]:
        arr.flags.writeable = False
    kernels.glauber_sweeps(*args)
    assert np.array_equal(args[0], expected)
    no_sites = np.zeros((2, 0), dtype=np.int64)
    kernels.glauber_sweeps(np.zeros(0, np.int8), no_sites, no_sites, *args[3:6], np.zeros(0), 3)


def test_soficlab_kernel_python_forces_the_twin():
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "SOFICLAB_KERNEL": "python",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", "import soficlab.kernels as k; print(k.BACKEND)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "python"


def test_unbuildable_kernel_falls_back(tmp_path):
    with pytest.warns(RuntimeWarning):
        assert kernels._load_c_kernel(str(tmp_path / "no-such-cc"), tmp_path / "cache") is None
    (tmp_path / "file").write_text("")
    with pytest.warns(RuntimeWarning):  # a cache directory that cannot be made
        assert kernels._load_c_kernel(None, tmp_path / "file" / "soficlab") is None


@needs_c
def test_build_leaves_one_library_in_the_cache(tmp_path, monkeypatch):
    assert kernels._load_c_kernel(None, tmp_path) is not None
    (lib,) = tmp_path.iterdir()  # no temporary file is left behind
    assert lib.name.startswith("_glauber-") and lib.suffix == ".so"

    def no_build(*args):
        raise AssertionError("a cached kernel was rebuilt")

    monkeypatch.setattr(kernels, "_compile", no_build)
    assert kernels._load_c_kernel(None, tmp_path) is not None


def test_sweeps_stay_in_derived_space():
    st, pot = hardcore(2, 2.0)
    sm = soficmaps.build_torus(2, 6)
    space = DerivedSpace(sm, st, pot)
    engine = GlauberEngine(sm, st, pot)
    rng = np.random.default_rng(0)
    x = engine.initial_state(0)
    for _ in range(20):
        engine.sweeps(x, 1, rng)
        assert is_in_Xn(space, x)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunked_sweeps_are_one_sweep_calls(extra):
    st, pot = hardcore(2, 1.0)
    engine = GlauberEngine(soficmaps.build_torus(2, 8), st, pot)
    k = engine.chunk + extra
    x = engine.initial_state(0)
    counts = np.full(k, -1, np.int64)
    engine.sweeps(x, k, np.random.default_rng(4), counts, 0)
    rng = np.random.default_rng(4)
    y = engine.initial_state(0)
    expected = []
    for _ in range(k):
        engine.sweeps(y, 1, rng)
        expected.append(np.count_nonzero(y != 0))
    assert engine.chunk == 256
    assert np.array_equal(x, y)
    assert counts.tolist() == expected


def test_bias_shifts_density():
    st, pot = hardcore(1, 1.0)
    sm = soficmaps.build_torus(1, 32)
    engine = GlauberEngine(sm, st, pot)
    rng = np.random.default_rng(1)
    x = engine.initial_state(0)
    engine.set_bias(np.array([0.0, -3.0]))
    engine.sweeps(x, 200, rng)
    low = x.mean()
    engine.set_bias(None)
    engine.sweeps(x, 200, rng)
    normal = x.mean()
    assert low < normal


def test_self_loop_handling():
    # m=2 torus in one generator: sigma^2 = id, two-cycles but no self loops
    st, pot = hardcore(1, 1.0)
    sm = soficmaps.build_torus(1, 2)
    engine = GlauberEngine(sm, st, pot)
    rng = np.random.default_rng(2)
    x = engine.initial_state(0)
    engine.sweeps(x, 50, rng)
    assert not (x == 1).all()  # adjacent pair (0,1) can never be both occupied
