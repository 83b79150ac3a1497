"""The compiled kernels of `_glauber.c` through ctypes, else their Python twins.

Three kernels: `glauber_sweeps`, the heat-bath sweep, over a uniforms
array or uniforms it draws itself from a numpy Generator;
`percolation_lookup`, the transfer oracle's nearest-pin table lookup over
percolation pasts that it draws itself; and `tree_percolation`, the tree
oracle's hardcore ratio recursion over pasts drawn the same way.  The
compiled kernels step the Generator's PCG64 themselves, from
`bit_generator.state` under its lock, and write the advanced state back
(`_locked_pcg64`): the sweep draws one double per site update, and a
percolation row draws each column it reads by its own exact jump from the
row's start state and takes all its uniforms' steps in one jump.  The tree
kernel reads only the sites whose ancestors are all unpinned, since a
pinned site cuts the tree.  The compiled kernels refuse any other bit
generator with a ValueError before drawing.  The compiled sweep
tabulates the cumulative candidate weights of every neighbourhood key once
per call and reads one row per site update, unless the table would pass
SWEEP_TABLE_CAP doubles or outnumber the call's updates
(`_sweep_table_keys`).  The percolation
kernels take C-contiguous patterns only, and both backends refuse a
pattern that some past could make an error before any draw
(`_glauber_py.check_patterns`), so past their checks they cannot fail.  A
call's rows run in contiguous ranges, one per usable core and at least
ROWS_PER_WORKER rows each, on threads; a row takes exactly ball_size steps
of the PCG64, so each range starts from the state advanced past the rows
before it by an exact jump, and the results and the end state are the
single call's (`_run_on_pcg64`).  On the first import,
`_glauber.c` is compiled once into the user cache,
`$XDG_CACHE_HOME/soficlab` or `~/.cache/soficlab`, as one shared library
whose name is keyed by a CRC-32 of the source, the compiler flags and the
platform; a build removes the libraries of other versions there, and later
imports only load it.  The compiler is the one Python was built with
(`sysconfig` CC), else `cc`.  If the build or the load fails, or the
library lacks any kernel, a RuntimeWarning names the cause and all three
pure-Python twins of `_glauber_py` are used; `SOFICLAB_KERNEL=python`
forces the twins.  The backends are never mixed.  The sweeps consume
identical uniforms, give bitwise-equal trajectories and leave a Generator
in the same state; the percolation kernels give bitwise-equal results,
raise the same errors before any draw, read the same uniforms and leave
the generator in the same state.  `BACKEND` is "c" or "python".
"""

import contextlib
import ctypes
import operator
import os
import sysconfig
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np

from . import _glauber_py

_SOURCE = Path(__file__).with_name("_glauber.c")
# no FMA contraction: a fused multiply-add rounds once, Python rounds twice;
# each kernel starts on a 64-byte line, so adding or changing one kernel
# does not shift the sweep's loops against cache lines (at a 16-byte start
# the same sweep code ran about 5% slower on the Z^2 TI benchmark
# workload, gcc -O2 on a 2-core x86_64 host)
_CFLAGS = ("-O2", "-ffp-contract=off", "-falign-functions=64", "-shared", "-fPIC")
_MAX_ALPHABET = 64  # the C kernel's weights buffer
# the most doubles of the sweep's weight table, 128 KB: the keys of up to 5
# generators over 2 symbols (5^5 keys), 3 over 3 (10^3) or 2 over 4 (17^2).
# Larger alphabets and ranks take the direct route, whose updates compute
# their weights themselves.
SWEEP_TABLE_CAP = 2**14
# non-zero status codes of the C sweep kernel, then of the C percolation
# kernels; each kernel sets one only before its first draw
_C_ERRORS = {
    1: f"alphabet too large for kernel (at most {_MAX_ALPHABET} symbols)",
    2: "neighbour index outside [0, n)",
    3: "symbol of x outside [0, alphabet)",
    4: str(_glauber_py.column_error()),
    5: "tree kernel: a child is not a later site of the window",
}
_I8, _I64, _U8, _F64 = (np.dtype(t) for t in (np.int8, np.int64, np.uint8, np.float64))
_BYTE_P = ctypes.POINTER(ctypes.c_ubyte)
_WORD = 2**64 - 1
# the fewest rows per range of a percolation call.  A split costs about
# 0.2 ms (a thread started and joined, a jump computed and filled; 2-vCPU
# x86_64 host), while 2^14 rows are about 1.6 ms of lookups on Z^1 at r = 16
# and 16 ms of F_2 tree recursions at r = 5: a split then saves nearly half a
# call where a second core is free and costs at most about 6% where none is,
# and a call of 1,000 tree rows (the F_2 benchmark, 1.3 ms in one range and
# 1.6 ms in two on that host) stays one range
ROWS_PER_WORKER = 2**14


def _compile(compiler: str, lib: Path):
    """Compile the C source into `lib` through a temporary file and an atomic rename."""
    import shlex
    import subprocess
    import tempfile

    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp", dir=lib.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [*shlex.split(compiler), *_CFLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise OSError(f"{compiler} exited with status {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_c_kernel(compiler: str | None = None, cache_dir: Path | None = None):
    """The C (sweep, percolation lookup, tree percolation) functions of one
    library, compiled into the cache first if needed, which then removes the
    libraries of other source versions there; None if that fails or any is
    missing."""
    try:
        if cache_dir is None:
            cache_dir = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "soficlab"
        # CRC-32, not hashlib: zlib is loaded anyway, while hashlib maps
        # OpenSSL, about 4 MB of resident memory in every process
        key = zlib.crc32(b"\0".join(
            [_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(), sysconfig.get_platform().encode()]
        ))
        lib = cache_dir / f"_glauber-{key:08x}.so"
        if not lib.exists():
            _compile(compiler or sysconfig.get_config_var("CC") or "cc", lib)
            for old in cache_dir.glob("_glauber-*.so"):  # in-flight builds are *.tmp
                if old != lib:
                    with contextlib.suppress(OSError):  # a stale library is no reason to fall back
                        old.unlink()
        dll = ctypes.CDLL(str(lib))
        sweeps, percolation, tree = dll.glauber_sweeps, dll.percolation_lookup, dll.tree_percolation
    except Exception as exc:  # any failure means the Python twins, never a failed import
        warnings.warn(f"C kernels unavailable, using the Python kernels: {exc!r}",
                      RuntimeWarning, stacklevel=2)
        return None
    sweeps.argtypes = [_BYTE_P] * 8 + [ctypes.c_int64] * 4 + [
        _BYTE_P, ctypes.c_int64, _BYTE_P, ctypes.c_int64, _BYTE_P]
    percolation.argtypes = [_BYTE_P] + [ctypes.c_int64] * 5 + [
        _BYTE_P, ctypes.c_int64, _BYTE_P, ctypes.c_int64] + [_BYTE_P] * 3
    tree.argtypes = [_BYTE_P] + [ctypes.c_int64] * 5 + [_BYTE_P, _BYTE_P] + [ctypes.c_int64] * 3 + [
        _BYTE_P] * 8
    sweeps.restype = percolation.restype = tree.restype = ctypes.c_int
    return sweeps, percolation, tree


def _checked_shape(name: str, arr, dtype: np.dtype, ndim: int) -> tuple:
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == ndim
            and arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous {ndim}-d {dtype} array")
    return arr.shape


def _data(arr: np.ndarray):
    """arr's data as a pointer argument of the C kernel.

    A ctypes byte over the array's buffer, which ctypes passes by address,
    costs about a fifth of `ndarray.ctypes`; it needs a writeable, non-empty
    buffer.  A sweep call passes eight to ten arrays, and sample_derived_gibbs
    makes one such call per retained sample, so this counts.
    """
    if arr.flags.writeable and arr.size:
        return ctypes.c_ubyte.from_buffer(arr)
    return arr.ctypes.data_as(_BYTE_P)


def _sweep_table_keys(a: int, n_gen: int, updates: int) -> int:
    """The number of neighbourhood keys, (a*a + 1)^n_gen, of the sweep's
    weight table, or 0 for the direct route: when the table would hold more
    than SWEEP_TABLE_CAP doubles, or have more keys than the call has site
    updates, so that filling it would cost more than it saves."""
    keys = 1
    for _ in range(n_gen):
        keys *= a * a + 1
        if keys * a > SWEEP_TABLE_CAP:
            return 0
    return keys if keys <= updates else 0


def _c_glauber_sweeps(x, nbr_out, nbr_in, wh, wj, allowed, uniforms, sweeps, counts=None, safe=0):
    """Run `sweeps` heat-bath sweeps over x in place with the C kernel.

    The arguments are those of `_glauber_py.glauber_sweeps`, as GlauberEngine
    lays them out; if counts is given, counts[t] is the number of sites not
    equal to `safe` after sweep t.  uniforms is either a float64 array of
    at least sweeps * n entries or a numpy Generator over PCG64, which the
    kernel steps itself: it draws what `uniforms.random(sweeps * n)` would
    and leaves the generator in that call's state, the buffered uint32
    kept (`_locked_pcg64`).  The kernel fills a weight table of every
    neighbourhood key once per call when `_sweep_table_keys` allows, else
    computes each update's weights directly; both routes give bitwise the
    twin's trajectory.  Everything the C code trusts is checked here first,
    before any draw: dtypes, C order, a writeable x and counts, agreeing
    shapes, enough uniforms or a PCG64 Generator, at least sweeps counts,
    safe in [0, a) and an alphabet of at most 64; the C code itself checks
    every neighbour index and every symbol of x.  Any failure is a
    ValueError.
    """
    (n,) = _checked_shape("x", x, _I8, 1)
    if not x.flags.writeable:
        raise ValueError("x must be writeable")
    (a,) = _checked_shape("wh", wh, _F64, 1)
    if a > _MAX_ALPHABET:
        raise ValueError(_C_ERRORS[1])
    n_gen = _checked_shape("nbr_out", nbr_out, _I64, 2)[0]
    for name, arr, dtype, want in (
        ("nbr_out", nbr_out, _I64, (n_gen, n)),
        ("nbr_in", nbr_in, _I64, (n_gen, n)),
        ("wj", wj, _F64, (n_gen, a, a)),
        ("allowed", allowed, _U8, (n_gen, a, a)),
    ):
        got = _checked_shape(name, arr, dtype, len(want))
        if got != want:
            raise ValueError(f"{name} has shape {got}, expected {want}")
    sweeps = operator.index(sweeps)
    drawn = isinstance(uniforms, np.random.Generator)
    if drawn:
        _checked_pcg64(uniforms)
    else:
        (m,) = _checked_shape("uniforms", uniforms, _F64, 1)
        if m < sweeps * n:
            raise ValueError(f"{m} uniforms for {sweeps} sweeps of {n} sites")
    if counts is not None:
        (m,) = _checked_shape("counts", counts, _I64, 1)
        if not counts.flags.writeable:
            raise ValueError("counts must be writeable")
        if m < sweeps:
            raise ValueError(f"{m} counts for {sweeps} sweeps")
    safe = operator.index(safe)
    if not 0 <= safe < a:
        raise ValueError(f"safe symbol {safe} outside [0, {a})")
    table = np.empty(_sweep_table_keys(a, n_gen, sweeps * n) * a)
    pair = np.empty(2 * n_gen, np.int64)
    with _locked_pcg64(uniforms) if drawn else contextlib.nullcontext() as pcg:
        status = _c_sweeps(
            _data(x), _data(nbr_out), _data(nbr_in), _data(wh), _data(wj), _data(allowed),
            None if drawn else _data(uniforms), _data(pcg) if drawn else None, sweeps, n, n_gen, a,
            None if counts is None else _data(counts), safe, _data(table), len(table), _data(pair),
        )
    if status:
        raise ValueError(_C_ERRORS[status])


def _checked_geometry(sides, tables) -> tuple:
    """(R, a) of C-contiguous int64 sides of shape (2, R) and float64 tables
    of shape (a, R+1, a, R+1, a)."""
    _, r_max = _checked_shape("sides", sides, _I64, 2)
    a = _checked_shape("tables", tables, _F64, 5)[0]
    want = (a, r_max + 1, a, r_max + 1, a)
    if sides.shape != (2, r_max) or tables.shape != want:
        raise ValueError(f"sides {sides.shape} and tables {tables.shape} do not fit: "
                         f"expected (2, R) and {want}")
    return r_max, a


def _checked_percolation(patterns, n_inner, lo, ball_size, rng, out) -> tuple:
    """(width, n, n_inner, lo, ball_size) of the arguments both C
    percolation kernels share, checked as `_c_percolation_lookup` says."""
    n_rows, L = _checked_shape("patterns", patterns, _I64, 2)
    n_inner, lo, ball_size = (operator.index(v) for v in (n_inner, lo, ball_size))
    if not 1 <= L <= ball_size:
        raise ValueError(f"pattern width {L} is not in [1, {ball_size}], the ball size of the pasts")
    (n,) = _checked_shape("out", out, _F64, 1)
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    if n_inner < 1 or lo < 0 or n and (lo + n - 1) // n_inner >= n_rows:
        raise ValueError(f"rows {lo} to {lo + n} at {n_inner} per pattern do not fit {n_rows} patterns")
    _checked_pcg64(rng)
    return L, n, n_inner, lo, ball_size


def _checked_pcg64(rng):
    """A ValueError unless rng is a numpy Generator over PCG64, the bit
    generator the C kernels step."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator, not {type(rng).__name__}")
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ValueError(f"the compiled kernels step PCG64 (numpy's default_rng), "
                         f"not {type(rng.bit_generator).__name__}")


@contextlib.contextmanager
def _locked_pcg64(rng):
    """rng's PCG64 state and increment as four uint64 words, low word first,
    under the generator's lock for the whole block.  A kernel advances the
    state words in place; on leaving the block they are written back as the
    generator's state, with the buffered uint32 (`has_uint32`, `uinteger`)
    as it was.  A block that raises writes nothing back."""
    bitgen = rng.bit_generator
    with bitgen.lock:
        state = bitgen.state
        words = state["state"]
        pcg = np.array([words["state"] & _WORD, words["state"] >> 64, words["inc"] & _WORD, words["inc"] >> 64],
                       np.uint64)
        yield pcg
        words["state"] = int(pcg[1]) << 64 | int(pcg[0])
        bitgen.state = state


def _workspace(size: int, dtype) -> np.ndarray:
    """A zeroed workspace of size entries for one range of a percolation
    call, followed by a spare 64-byte cache line.  The tree kernel writes
    its workspaces on every row, and a line shared by two ranges' workspaces
    moves between cores on each write: two 200,000-row transfer lookups side
    by side, each writing a per-row mask, took 28 ms with their masks in one
    line against 23 ms apart (2-vCPU x86_64 host)."""
    return np.zeros(size + 64 // np.dtype(dtype).itemsize, dtype)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_bounds(n: int) -> list:
    """The bounds of W contiguous ranges of n rows, W = min(usable cores,
    n // ROWS_PER_WORKER) and at least 1."""
    w = max(1, min(_usable_cores(), n // ROWS_PER_WORKER))
    return [n * k // w for k in range(w + 1)]


def _run_on_pcg64(kernel, range_args, n: int, ball_size: int, rng):
    """Run the C percolation kernel over n rows on rng's PCG64 state, in
    the ranges of `_row_bounds`.

    range_args(start, stop) gives the kernel's arguments for rows start to
    stop, up to pcg and jump; each range has its own workspaces.  pcg is a
    PCG64 state and increment as four uint64 words, low word first, which
    the kernel advances; jump is its workspace of ball_size + 1 jumps.  A
    row takes exactly ball_size steps, so range w starts from rng's state
    advanced by start_w * ball_size steps (`PCG64.advance` on a scratch
    generator) and draws what the serial call draws for those rows.  The
    calling thread runs the first range and one thread each the others;
    ctypes releases the GIL, and every thread is joined before this returns
    or raises.  A kernel sets a non-zero status only before its first draw,
    from arguments every range shares: then this raises its ValueError and
    leaves rng as it was; else rng ends in the last range's end state, the
    serial call's.  The state is read and written back by `_locked_pcg64`,
    which keeps the buffered uint32 that `PCG64.advance` would reset, and
    whose lock is held throughout.
    """
    bounds = _row_bounds(n)
    w = len(bounds) - 1
    pcg = np.empty((w, 4), np.uint64)
    jump = np.empty((w, 4 * (ball_size + 1)), np.uint64)
    calls = [(*range_args(start, stop), _data(pcg[k]), _data(jump[k]))
             for k, (start, stop) in enumerate(zip(bounds, bounds[1:]))]
    status = [None] * w

    def run(k):
        status[k] = kernel(*calls[k])

    with _locked_pcg64(rng) as words:
        pcg[:] = words
        if w > 1:
            scratch = np.random.PCG64(0)
            scratch.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                             "state": {"state": int(words[1]) << 64 | int(words[0]),
                                       "inc": int(words[3]) << 64 | int(words[2])}}
            for k in range(1, w):
                scratch.advance((bounds[k] - bounds[k - 1]) * ball_size)
                start = scratch.state["state"]["state"]
                pcg[k, :2] = [start & _WORD, start >> 64]
        threads = []
        try:
            for k in range(1, w):
                thread = threading.Thread(target=run, args=(k,))
                thread.start()
                threads.append(thread)
            run(0)
        finally:
            for thread in threads:
                thread.join()
        if None in status:
            raise RuntimeError("a percolation kernel thread did not return")
        if any(status):
            raise ValueError(_C_ERRORS[max(status)])
        words[:2] = pcg[-1, :2]


def _c_percolation_lookup(patterns, n_inner, lo, ball_size, sides, tables, rng, out):
    """out[i] = the lookup of patterns[(lo + i) // n_inner] under the i-th of
    len(out) percolation pasts drawn from rng, with the C kernel.

    The arguments are those of `_glauber_py.percolation_lookup`:
    C-contiguous int64 patterns of width 1 to ball_size; n_inner >= 1 and
    lo >= 0 such that every row read is a row of patterns; C-contiguous
    int64 sides of shape (2, R) and float64 tables of shape
    (a, R+1, a, R+1, a); a numpy Generator over PCG64; and a writeable
    C-contiguous float64 out.  The pasts are the rows of
    `rng.random((len(out), ball_size))`: the kernel steps the generator's
    PCG64 itself, draws of each row only the columns it scans for the
    nearest pins, each by its own exact jump, and leaves the generator
    where that call would.  The rows run in the ranges of `_run_on_pcg64`
    and give bitwise the single call's out and end state.  Everything the C
    code trusts is checked here first, before any draw, and the symbols by
    `_glauber_py.check_patterns`, so nothing fails after the first draw;
    the C code checks every side column it reads.  Any failure is a
    ValueError, a symbol or side column the twin's, and leaves rng as it
    was.
    """
    L, n, n_inner, lo, ball_size = _checked_percolation(patterns, n_inner, lo, ball_size, rng, out)
    r_max, a = _checked_geometry(sides, tables)
    _glauber_py.check_patterns(patterns, a)
    _run_on_pcg64(_c_percolation, lambda start, stop: (
        _data(patterns), L, n_inner, lo + start, stop - start, ball_size, _data(sides), r_max,
        _data(tables), a, _data(out[start:stop])), n, ball_size, rng)


def _c_tree_percolation(patterns, n_inner, lo, ball_size, tree, rng, out):
    """out[i] = the hardcore conditional of the center of
    patterns[(lo + i) // n_inner] under the i-th of len(out) percolation
    pasts drawn from rng, by the C tree kernel.

    The arguments are those of `_glauber_py.tree_percolation`: patterns,
    n_inner, lo, ball_size, rng and out as `_c_percolation_lookup` takes
    them, and a `_glauber_py.Tree` of C-contiguous arrays (int64 starts,
    child_ptr of one more entry than lam, children and (m, 2) edges; float64
    lam and free of one length), no narrower than the patterns.  The pasts,
    their draw and the generator's state are those of
    `_c_percolation_lookup`; a row reads only the sites whose ancestors are
    all unpinned.  The rows run in ranges as `_c_percolation_lookup`'s do.
    The result is bitwise the twin's, and so are the errors, each raised
    before any draw with rng left as it was: `symbol_error` and
    `clash_error` from `_glauber_py.check_patterns`, or a ValueError for
    anything else the kernel cannot trust.
    """
    L, n, n_inner, lo, ball_size = _checked_percolation(patterns, n_inner, lo, ball_size, rng, out)
    (sites,) = _checked_shape("tree.lam", tree.lam, _F64, 1)
    for name, arr, dtype, ndim in (("starts", tree.starts, _I64, 1), ("child_ptr", tree.child_ptr, _I64, 1),
                                   ("children", tree.children, _I64, 1), ("free", tree.free, _F64, 1),
                                   ("edges", tree.edges, _I64, 2)):
        _checked_shape(f"tree.{name}", arr, dtype, ndim)
    if tree.free.shape != (sites,) or tree.child_ptr.shape != (sites + 1,) or tree.edges.shape[1:] != (2,):
        raise ValueError(f"tree arrays do not fit {sites} sites")
    starts = tree.starts
    deepest = int(np.searchsorted(starts, L - 1, side="right")) - 1
    if not (0 <= deepest < len(starts) - 1 and 0 <= starts[deepest] < L <= starts[deepest + 1] <= sites):
        raise ValueError(f"pattern width {L} does not fit the tree's levels {starts.tolist()}")
    deep_start, n_window = int(starts[deepest]), int(starts[deepest + 1])
    _glauber_py.check_patterns(patterns, 2, tree.edges)
    geometry = (tree.child_ptr.ctypes.data_as(_BYTE_P), tree.children.ctypes.data_as(_BYTE_P),
                len(tree.children), deep_start, n_window, tree.lam.ctypes.data_as(_BYTE_P),
                tree.free.ctypes.data_as(_BYTE_P))
    _run_on_pcg64(_c_tree, lambda start, stop: (
        _data(patterns), L, n_inner, lo + start, stop - start, ball_size, *geometry,
        _data(out[start:stop]), _data(_workspace(n_window, np.uint8)),
        _data(_workspace(3 * n_window, np.float64)), _data(_workspace(n_window, np.int64))),
        n, ball_size, rng)


_c = None if os.environ.get("SOFICLAB_KERNEL", "").lower() == "python" else _load_c_kernel()
if _c is None:
    glauber_sweeps = _glauber_py.glauber_sweeps
    percolation_lookup = _glauber_py.percolation_lookup
    tree_percolation = _glauber_py.tree_percolation
    BACKEND = "python"
else:
    _c_sweeps, _c_percolation, _c_tree = _c
    glauber_sweeps = _c_glauber_sweeps
    percolation_lookup = _c_percolation_lookup
    tree_percolation = _c_tree_percolation
    BACKEND = "c"

__all__ = ["glauber_sweeps", "percolation_lookup", "tree_percolation", "BACKEND"]
