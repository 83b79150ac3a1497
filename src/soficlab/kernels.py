"""The compiled kernels of `_glauber.c` through ctypes, else their Python
twins, and `Pcg64`, the one random stream that every kernel draws from.

Five kernels: `glauber_sweeps`, the heat-bath sweep, over a uniforms
array or uniforms it draws itself from a Pcg64; `percolation_lookup`, the
transfer oracle's nearest-pin table lookup over percolation pasts that it
draws itself; `tree_percolation`, the tree oracle's hardcore ratio
recursion over pasts drawn the same way; `markov_windows`, the windows of
mu that `TransferMatrix.sample_windows` samples from the stationary chain;
and `permutations`, the draws of `soficmaps.build_random_perm`, bitwise
numpy's `Generator.permutation`.  `Pcg64(entropy)` is soficlab's own PCG64
(O'Neill 2014): four uint64 words and a lock, seeded, drawn and jumped
bitwise as numpy's `default_rng(SeedSequence(entropy))`, but seeded in
plain ints, so that a run on the compiled backend never imports
`numpy.random` (on numpy >= 2 that import, with `secrets`, `hashlib` and
OpenSSL, cost more than the F_2 random-past workload itself; numpy 1.x
loads it with numpy anyway).  `numpy.random` is loaded only by the Python
backend's draws (`Pcg64.numpy_draw`).  The compiled kernels step the
stream's words themselves under its lock: the sweep draws one double per
site update, the window sampler one per symbol, and a percolation row
draws each column it reads by its own exact jump from the row's start
state and takes all its uniforms' steps in one jump; the lookup draws the
first columns of each side without a branch and scans only past them.
The compiled lookup has two instances of one body: on an x86_64 CPU with
AVX-512F and AVX-512DQ it draws those first columns, four a side, in one
vector step, and elsewhere one 128-bit multiply-add at a time.  Each call
picks by the CPU, and the stepping is exact integer arithmetic, so both
give bitwise the same results.  `LOOKUP_ISA` is "avx512" or "scalar", the
instance the compiled lookup runs, and None on the Python backend.
The tree kernel reads only the sites whose ancestors are all unpinned,
since a pinned site cuts the tree.  Both backends' kernels refuse any
other stream, a numpy Generator included, with a ValueError before drawing
(`_glauber_py.checked_stream`).  The
compiled sweep tabulates the cumulative candidate weights of every
neighbourhood key once per call and reads one row per site update, unless
the table would pass SWEEP_TABLE_CAP doubles or outnumber the call's
updates; `_sweep_table_keys` decides, and the C kernel takes its key
count.  The percolation kernels take C-contiguous integer patterns only,
n_inner rows per pattern, each row's past drawn on the pattern's own
sites, and both backends refuse a pattern that some past could make an
error before any draw (`_glauber_py.check_patterns`), so past their checks
they cannot fail.  They hold no array of every row's result: each hands the
conditionals of a chunk of at most `pasts.CHUNK_FLOATS` rows to the
caller's consume(lo, hi, p) as soon as the chunk is done, in chunks that
start at multiples of the caller's unit.  A call's rows run in contiguous
ranges, one per usable core and at least ROWS_PER_WORKER rows each, split
at multiples of the unit, on threads; each range runs its chunks through
one buffer and calls consume itself, converting only its chunk's patterns
to int64.  A row takes exactly as many steps of the PCG64 as its pattern
has columns, so each range starts from the state advanced past the rows
before it by an exact jump, and the conditionals and the end state are the
single call's (`_run_on_pcg64`).  On the
first import, `_glauber.c` is compiled once into the user cache,
`$XDG_CACHE_HOME/soficlab` or `~/.cache/soficlab`, as one shared library
whose name is keyed by a CRC-32 of the source, the compiler flags and the
platform; a build removes the libraries of other versions there, and later
imports only load it.  The compiler is the one Python was built with
(`sysconfig` CC), else `cc`.  If the build or the load fails, or the
library lacks any of `_C_FUNCTIONS`, a RuntimeWarning names the cause and
all five pure-Python twins of `_glauber_py` are used, and `Pcg64.random`
draws through numpy's Generator; `SOFICLAB_KERNEL=python` forces the
twins.  The backends are never mixed.  The sweeps consume identical
uniforms, give bitwise-equal trajectories and leave a stream in the same
state; the percolation, window and permutation kernels give bitwise-equal
results, raise the same errors before any draw, read the same uniforms and
leave the stream in the same state.  `BACKEND` is "c" or "python".
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

from . import _glauber_py, pasts

_SOURCE = Path(__file__).with_name("_glauber.c")
# no FMA contraction: a fused multiply-add rounds once, Python rounds twice;
# each kernel starts on a 64-byte line, so adding or changing one kernel
# does not shift the sweep's loops against cache lines (at a 16-byte start
# the same sweep code ran about 5% slower on the Z^2 TI benchmark
# workload, gcc -O2 on a 2-core x86_64 host)
_CFLAGS = ("-O2", "-ffp-contract=off", "-falign-functions=64", "-shared", "-fPIC")
# the most doubles of the sweep's weight table, 128 KB: the keys of up to 5
# generators over 2 symbols (5^5 keys), 3 over 3 (10^3) or 2 over 4 (17^2).
# Larger alphabets and ranks take the direct route, whose updates compute
# their weights themselves.
SWEEP_TABLE_CAP = 2**14
# non-zero status codes of the C sweep kernel, then of the C percolation
# kernels; each kernel sets one only before its first draw
_C_ERRORS = {
    1: f"alphabet too large for kernel (at most {_glauber_py.MAX_ALPHABET} symbols)",
    2: "neighbour index outside [0, n)",
    3: "symbol of x outside [0, alphabet)",
    4: str(_glauber_py.column_error()),
    5: "tree kernel: a child is not a later site of the window",
}
_I8, _I64, _U8, _F64 = (np.dtype(t) for t in (np.int8, np.int64, np.uint8, np.float64))
_BYTE_P = ctypes.POINTER(ctypes.c_ubyte)
# the functions the library must export, in the order _load_c_kernel returns them
_C_FUNCTIONS = ("glauber_sweeps", "percolation_lookup", "tree_percolation", "markov_windows", "pcg64_fill",
                "pcg64_permutations", "percolation_lookup_scalar", "lookup_isa")
_WORD = 2**64 - 1
_U32 = 2**32 - 1
_U128 = 2**128 - 1
# numpy's PCG64 multiplier, PCG_MULT of _glauber.c
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
# the constants of numpy's SeedSequence (numpy/random/bit_generator.pyx):
# the two hashes' initial values and multipliers, the mix multipliers, and
# the pool of four uint32 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
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
    """The C functions `_C_FUNCTIONS` (sweep, percolation lookup, tree
    percolation, Markov windows, uniform fill, permutations, the lookup's
    scalar instance and its instruction-set query) of one library,
    compiled into the cache first if needed, which then removes the
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
        sweeps, percolation, tree, windows, fill, perms, scalar, isa = (getattr(dll, name) for name in _C_FUNCTIONS)
    except Exception as exc:  # any failure means the Python twins, never a failed import
        warnings.warn(f"C kernels unavailable, using the Python kernels: {exc!r}",
                      RuntimeWarning, stacklevel=2)
        return None
    sweeps.argtypes = [_BYTE_P] * 8 + [ctypes.c_int64] * 4 + [
        _BYTE_P, ctypes.c_int64, _BYTE_P, ctypes.c_int64, _BYTE_P]
    percolation.argtypes = scalar.argtypes = [_BYTE_P] + [ctypes.c_int64] * 4 + [
        _BYTE_P, ctypes.c_int64, _BYTE_P, ctypes.c_int64] + [_BYTE_P] * 3
    tree.argtypes = [_BYTE_P] + [ctypes.c_int64] * 4 + [_BYTE_P, _BYTE_P] + [ctypes.c_int64] * 3 + [
        _BYTE_P] * 8
    windows.argtypes = [_BYTE_P, _BYTE_P] + [ctypes.c_int64] * 3 + [_BYTE_P, ctypes.c_int64, _BYTE_P]
    fill.argtypes = [_BYTE_P, _BYTE_P, ctypes.c_int64]
    perms.argtypes = [_BYTE_P, _BYTE_P, ctypes.c_int64, ctypes.c_int64]
    isa.argtypes = []
    for function in (sweeps, percolation, tree, windows, fill, perms, scalar, isa):
        function.restype = ctypes.c_int
    return sweeps, percolation, tree, windows, fill, perms, scalar, isa


def _checked_shape(name: str, arr, dtype: np.dtype, ndim: int) -> tuple:
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == ndim
            and arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous {ndim}-d {dtype} array")
    return arr.shape


def _data(arr: np.ndarray):
    """arr's data as a pointer argument of the C kernel.

    A ctypes byte over the array's buffer, which ctypes passes by address,
    costs about a fifth of `ndarray.ctypes`; it needs a writeable, non-empty
    buffer; an empty one takes `ndarray.ctypes`, about 5 µs, so a kernel
    passes NULL for a workspace it does not read.  A sweep call passes
    eight to ten arrays, and `sampling.sample_derived_gibbs` makes one such
    call per retained sample, so this counts.
    """
    if arr.flags.writeable and arr.size:
        return ctypes.c_ubyte.from_buffer(arr)
    return arr.ctypes.data_as(_BYTE_P)


def _entropy_words(entropy) -> list:
    """The uint32 words that numpy's SeedSequence reads from entropy: a
    non-negative int's words, low word first and 0 as one word, or a
    sequence's elements' words in turn."""
    try:
        n = operator.index(entropy)
    except TypeError:
        if isinstance(entropy, (str, bytes)):
            raise TypeError(f"entropy must be an int or a sequence of ints, not {type(entropy).__name__}")
        return [word for part in entropy for word in _entropy_words(part)]
    if n < 0:
        raise ValueError(f"entropy must be non-negative, not {n}")
    words = [n & _U32]
    while n > _U32:
        n >>= 32
        words.append(n & _U32)
    return words


def _seeded(entropy) -> tuple:
    """(state, inc) of numpy's `PCG64(SeedSequence(entropy))` as 128-bit
    ints: SeedSequence's pool hashed and mixed from entropy's words, its
    `generate_state(4, uint64)`, then PCG64's `set_seed`, in plain ints."""
    words = _entropy_words(entropy)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _U32
        value = value * const & _U32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _U32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    half = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _U32
        value = value * const & _U32
        half.append(value ^ value >> 16)
    # the state's uint64 words, low uint32 first: seed is words 0 (high) and
    # 1, inc words 2 (high) and 3
    seed, inc = (half[k] << 64 | half[k + 1] << 96 | half[k + 2] | half[k + 3] << 32 for k in (0, 4))
    # set_seed: state 0 stepped once under inc, plus the seed, stepped again
    inc = (inc << 1 | 1) & _U128
    return ((inc + seed) * _PCG_MULT + inc) & _U128, inc


def _jumped(state: int, inc: int, steps: int) -> int:
    """state advanced by steps draws (mod 2^128) under increment inc: A^k s +
    C_k by Brown's (1994) squarings, as numpy's `PCG64.advance` jumps."""
    mult, plus, a, c = 1, 0, _PCG_MULT, inc
    steps &= _U128
    while steps:
        if steps & 1:
            mult, plus = mult * a & _U128, (plus * a + c) & _U128
        a, c = a * a & _U128, (a + 1) * c & _U128
        steps >>= 1
    return (mult * state + plus) & _U128


class Pcg64:
    """soficlab's PCG64 stream, bitwise numpy's `default_rng(SeedSequence(entropy))`.

    entropy is a non-negative int or a (nested) sequence of them, as
    SeedSequence takes it.  `words` is the state and the increment as four
    uint64 words, low word first: the array that the compiled kernels
    advance in place, under `lock`.  `random` draws what Generator.random
    draws, `advance` jumps as PCG64.advance does, and `jumped` is a new
    stream at a jumped copy of the state; no draw buffers a
    uint32, so the words are the whole state.  The seeding is plain ints and
    the compiled backend draws through `pcg64_fill`, so neither imports
    `numpy.random`; the Python backend's draws go through a numpy Generator
    that the words are copied into and back out of.
    """

    __slots__ = ("words", "lock", "_generator")

    def __init__(self, entropy):
        state, inc = _seeded(entropy)
        self.words = np.array([state & _WORD, state >> 64, inc & _WORD, inc >> 64], np.uint64)
        self.lock = threading.Lock()
        self._generator = None

    def _ints(self) -> dict:
        w = self.words.tolist()
        return {"state": w[1] << 64 | w[0], "inc": w[3] << 64 | w[2]}

    @property
    def state(self) -> dict:
        """{"state": s, "inc": inc} as 128-bit ints, as numpy's
        `PCG64.state["state"]` gives them."""
        with self.lock:
            return self._ints()

    def advance(self, steps: int) -> "Pcg64":
        """Jump the stream ahead by steps draws (mod 2^128), in O(log steps)."""
        with self.lock:
            ints = self._ints()
            state = _jumped(ints["state"], ints["inc"], operator.index(steps))
            self.words[:2] = [state & _WORD, state >> 64]
        return self

    def jumped(self, steps: int) -> "Pcg64":
        """A new stream at this one's state jumped ahead by steps draws (mod
        2^128), as `advance` jumps; this stream does not move.  The copy
        has its own words and lock, so another thread can draw from it."""
        copy = Pcg64.__new__(Pcg64)
        with self.lock:
            copy.words = self.words.copy()
        copy.lock = threading.Lock()
        copy._generator = None
        return copy.advance(steps)

    def random(self, size=None, *, out=None):
        """Uniform doubles in [0, 1), bitwise `Generator.random(size,
        out=out)` from this state: a float when both are None, else out or
        a new array of shape size, filled in memory order.  out must be a
        writeable, aligned, C- or F-contiguous float64 array whose shape is
        size when both are given; it is keyword-only, since the second
        argument of Generator.random is its dtype."""
        if _c is None:
            return self.numpy_draw(lambda generator: generator.random(size, out=out))
        if out is None:
            draws = np.empty(() if size is None else size)
        else:
            if not isinstance(out, np.ndarray) or out.dtype != _F64:
                raise TypeError(f"out must be a float64 array, not {getattr(out, 'dtype', type(out).__name__)}")
            if not ((out.flags.c_contiguous or out.flags.f_contiguous) and out.flags.writeable
                    and out.flags.aligned):
                raise ValueError("out must be a contiguous, writeable and aligned array")
            if size is not None and (tuple(size) if np.iterable(size) else (size,)) != out.shape:
                raise ValueError(f"size {size} is not the shape {out.shape} of out")
            draws = out
        with self.lock:
            _c_fill(_data(self.words), _data(draws.ravel(order="K")), draws.size)
        return float(draws) if size is None and out is None else draws

    def numpy_draw(self, draw):
        """draw(generator) on numpy's own Generator, the Python backend's
        draws: under the lock, the words are copied into its PCG64 and its
        advanced state back out, so a uint32 half that the draws leave
        buffered is dropped."""
        with self.lock:
            if self._generator is None:
                from numpy.random import PCG64, Generator

                self._generator = Generator(PCG64(0))
            bitgen = self._generator.bit_generator
            bitgen.state = {"bit_generator": "PCG64", "state": self._ints(), "has_uint32": 0, "uinteger": 0}
            result = draw(self._generator)
            state = bitgen.state["state"]["state"]
            self.words[:2] = [state & _WORD, state >> 64]
        return result


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


class SweepWorkspace:
    """What the compiled sweep keeps across the calls of one caller, such as
    a GlauberEngine: the graph and pair-weight arrays of its last call,
    checked, with their pointers; the pair workspace; and the weight table,
    made by the first call that uses it.  A call that passes those four
    array objects again skips their checks and pointers, so a one-sweep
    call on a small graph pays little more than the kernel; the caller must
    not reshape them in place between calls.  Calls sharing a workspace take
    its lock.  The Python twin keeps nothing and ignores it.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.arrays = ()
        self.table, self.table_data = np.empty(0), None

    def bind(self, nbr_out, nbr_in, wj, allowed):
        """Check nbr_out, nbr_in, wj and allowed as `_c_glauber_sweeps` says
        and keep their sizes, pointers and a pair workspace, unless they are
        the arrays of the last call."""
        arrays = (nbr_out, nbr_in, wj, allowed)
        if len(self.arrays) == 4 and all(a is b for a, b in zip(arrays, self.arrays)):
            return
        n_gen, n = _checked_shape("nbr_out", nbr_out, _I64, 2)
        a = _checked_shape("wj", wj, _F64, 3)[-1]
        if a > _glauber_py.MAX_ALPHABET:
            raise ValueError(_C_ERRORS[1])
        for name, arr, dtype, want in (
            ("nbr_in", nbr_in, _I64, (n_gen, n)),
            ("wj", wj, _F64, (n_gen, a, a)),
            ("allowed", allowed, _U8, (n_gen, a, a)),
        ):
            got = _checked_shape(name, arr, dtype, len(want))
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
        self.n_gen, self.n, self.a = n_gen, n, a
        self.pointers = tuple(_data(arr) for arr in arrays)
        self.pair = np.empty(2 * n_gen, np.int64)
        self.pair_data = _data(self.pair)
        self.arrays = arrays

    def table_for(self, size: int):
        """The pointer of a weight table of at least size doubles, or NULL
        (None) for size 0, the direct route."""
        if size > len(self.table):
            self.table = np.empty(size)
            self.table_data = _data(self.table)
        return self.table_data if size else None


_UNLOCKED = contextlib.nullcontext()


def _c_glauber_sweeps(x, nbr_out, nbr_in, wh, wj, allowed, uniforms, sweeps, counts=None, safe=0, work=None):
    """Run `sweeps` heat-bath sweeps over x in place with the C kernel.

    The arguments are those of `_glauber_py.glauber_sweeps`, as GlauberEngine
    lays them out; if counts is given, counts[t] is the number of sites not
    equal to `safe` after sweep t.  uniforms is either a float64 array of
    at least sweeps * n entries or a `Pcg64`, whose words the kernel steps
    itself under the stream's lock: it draws what `uniforms.random(sweeps *
    n)` would and leaves the stream in that call's state.  work is the
    caller's `SweepWorkspace`, else the call makes its own.  The kernel
    fills a weight table of the neighbourhood keys that `_sweep_table_keys`
    counts once per call, else, at a count of 0, computes each update's
    weights directly; both routes give bitwise the twin's trajectory.  Everything
    the C code trusts is checked here first, before any draw: dtypes, C
    order, a writeable x and counts, agreeing shapes, enough uniforms or a
    Pcg64, at least sweeps counts, safe in [0, a) and an alphabet of at
    most 64; the C code itself checks every neighbour index and every
    symbol of x.  Any failure is a ValueError.
    """
    work = SweepWorkspace() if work is None else work
    with work.lock:
        work.bind(nbr_out, nbr_in, wj, allowed)
        n, n_gen, a = work.n, work.n_gen, work.a
        if _checked_shape("x", x, _I8, 1) != (n,):
            raise ValueError(f"x has shape {x.shape}, expected {(n,)}")
        if not x.flags.writeable:
            raise ValueError("x must be writeable")
        if _checked_shape("wh", wh, _F64, 1) != (a,):
            raise ValueError(f"wh has shape {wh.shape}, expected {(a,)}")
        sweeps = operator.index(sweeps)
        drawn = isinstance(uniforms, Pcg64)
        if not drawn:
            if not isinstance(uniforms, np.ndarray):
                _glauber_py.checked_stream(uniforms, "uniforms, unless a float64 array,")
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
        keys = _sweep_table_keys(a, n_gen, sweeps * n)
        out, inn, wj_data, allowed_data = work.pointers
        with uniforms.lock if drawn else _UNLOCKED:
            status = _c_sweeps(
                _data(x), out, inn, _data(wh), wj_data, allowed_data,
                None if drawn else _data(uniforms), _data(uniforms.words) if drawn else None,
                sweeps, n, n_gen, a, None if counts is None else _data(counts), safe,
                work.table_for(keys * a), keys, work.pair_data,
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


def _checked_percolation(patterns, n_inner, rng, consume, unit) -> tuple:
    """(width, n_inner, unit) of the arguments both C percolation kernels
    share, checked as `_c_percolation_lookup` says."""
    if not (isinstance(patterns, np.ndarray) and patterns.dtype.kind in "iu" and patterns.ndim == 2
            and patterns.flags.c_contiguous):
        raise ValueError("patterns must be a C-contiguous 2-d integer array")
    n_inner, unit = operator.index(n_inner), operator.index(unit)
    _glauber_py.check_rows(patterns, n_inner, consume, unit)
    _glauber_py.checked_stream(rng)
    return patterns.shape[1], n_inner, unit


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


def _row_bounds(n: int, unit: int = 1) -> list:
    """The bounds of W contiguous ranges of n rows, each a whole number of
    units of rows (unit divides n), W = min(usable cores, n //
    ROWS_PER_WORKER, n // unit) and at least 1."""
    units = n // unit
    w = max(1, min(_usable_cores(), n // ROWS_PER_WORKER, units))
    return [unit * (units * k // w) for k in range(w + 1)]


def _run_on_pcg64(kernel, geometry, workspaces, patterns, n_inner, rng, consume, unit):
    """Run the C percolation kernel over the n = len(patterns) * n_inner
    rows of the C-contiguous integer patterns on the Pcg64 rng, in the
    ranges of `_row_bounds(n, unit)`, and hand every chunk of conditionals
    to consume(lo, hi, p).

    Range k runs its rows in chunks of `pasts.chunk_rows(unit)` rows, the
    last one fewer, through one buffer of its own; for each chunk it
    converts the chunk's patterns alone to int64, calls the kernel as
    kernel(patterns, width, n_inner, row offset, rows, *geometry, out,
    *workspaces, pcg, jump), and then calls consume itself, in its own
    thread, with p a view of the buffer that consume may overwrite.
    workspaces gives the (size, dtype) of each per-range workspace
    (`_workspace`).  pcg is a PCG64 state and increment as four uint64
    words, low word first, which the kernel advances; jump is its workspace
    of width + 1 jumps.  A row takes exactly width steps, so range k starts
    from rng's state advanced by start_k * width steps (`_jumped`) and
    draws what the serial call draws for those rows.  The calling thread
    runs the first range and one thread each the others; ctypes releases
    the GIL, and every thread is joined before this returns or raises.

    A kernel sets a non-zero status only before its first draw, from
    arguments every range shares: then this raises its ValueError and
    leaves rng as it was.  A range whose consume raises runs no further
    chunk; once every range is joined, the error of the lowest such range,
    that of the lowest row that consume refused, is raised, and rng ends
    where the whole call leaves it, as it does after a call that consumes
    every chunk: at the last range's end state, the serial call's.  rng's
    lock is held throughout.
    """
    n, width = len(patterns) * n_inner, patterns.shape[1]
    bounds = _row_bounds(n, unit)
    w = len(bounds) - 1
    step = pasts.chunk_rows(unit)
    pcg = np.empty((w, 4), np.uint64)
    jump = np.empty((w, 4 * (width + 1)), np.uint64)
    status = [None] * w
    errors = [None] * w

    def run(k):
        lo, hi = bounds[k], bounds[k + 1]
        out = _workspace(min(step, hi - lo), np.float64)
        spaces = [_data(_workspace(size, dtype)) for size, dtype in workspaces]
        words = _data(pcg[k]), _data(jump[k])
        for start in range(lo, max(hi, lo + 1), step):  # a range of no rows still checks its arguments
            stop = min(start + step, hi)
            first = start // n_inner
            rows = np.ascontiguousarray(patterns[first:(stop - 1) // n_inner + 1], dtype=np.int64)
            p = out[:stop - start]
            code = kernel(_data(rows), width, n_inner, start - first * n_inner, stop - start, *geometry,
                          _data(p), *spaces, *words)
            if code:
                status[k] = code
                return
            if stop == start:  # no rows: the call only checked the arguments
                break
            try:
                consume(start, stop, p)
            except Exception as exc:
                errors[k] = exc
                break
        status[k] = 0

    with rng.lock:
        pcg[:] = rng.words
        ints = rng._ints()
        start = ints["state"]
        for k in range(1, w):
            start = _jumped(start, ints["inc"], (bounds[k] - bounds[k - 1]) * width)
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
        failed = [exc for exc in errors if exc is not None]
        if failed:
            end = _jumped(ints["state"], ints["inc"], n * width)
            rng.words[:2] = [end & _WORD, end >> 64]
            raise failed[0]
        rng.words[:2] = pcg[-1, :2]


def _c_percolation_lookup(patterns, n_inner, sides, tables, rng, consume, unit=1):
    """consume(lo, hi, p), p[i] the lookup of row lo + i: pattern
    (lo + i) // n_inner under the (lo + i)-th of len(patterns) * n_inner
    percolation pasts drawn from rng, with the C kernel.

    The arguments are those of `_glauber_py.percolation_lookup`:
    C-contiguous patterns of any integer dtype and of width L >= 1;
    n_inner >= 1; C-contiguous int64 sides of shape (2, R) and float64
    tables of shape (a, R+1, a, R+1, a); a `Pcg64` rng; a callable consume;
    and a unit >= 1 that divides the rows.  The pasts are the rows of
    `rng.random((n, L))`: the kernel steps rng's words itself, draws of
    each row only the columns it scans for the nearest pins, each by its
    own exact jump, and leaves rng where that call would.  The rows run in
    the ranges and chunks of `_run_on_pcg64`, whose threads call consume,
    and give bitwise the single call's conditionals and end state.
    Everything the C code trusts is checked here first, before any draw,
    and the symbols by `_glauber_py.check_patterns`, so nothing but
    consume fails after the first draw; the C code checks every side
    column it reads.  Any failure before the first draw is a ValueError, a
    symbol or side column the twin's, and leaves rng as it was.
    """
    _, n_inner, unit = _checked_percolation(patterns, n_inner, rng, consume, unit)
    r_max, a = _checked_geometry(sides, tables)
    _glauber_py.check_patterns(patterns, a)
    _run_on_pcg64(_c_percolation, (_data(sides), r_max, _data(tables), a), (),
                  patterns, n_inner, rng, consume, unit)


def _c_tree_percolation(patterns, n_inner, tree, rng, consume, unit=1):
    """consume(lo, hi, p), p[i] the hardcore conditional of the center of
    pattern (lo + i) // n_inner under the (lo + i)-th percolation past
    drawn from rng, by the C tree kernel.

    The arguments are those of `_glauber_py.tree_percolation`: patterns,
    n_inner, rng, consume and unit as `_c_percolation_lookup` takes them,
    and a `_glauber_py.Tree` of C-contiguous arrays (int64 starts,
    child_ptr of one more entry than lam, children and (m, 2) edges; float64
    lam and free of one length), no narrower than the patterns.  The pasts,
    their draw and the stream's end state are those of
    `_c_percolation_lookup`; a row reads only the sites whose ancestors are
    all unpinned.  The rows run in ranges and chunks as
    `_c_percolation_lookup`'s do.  The result is bitwise the twin's, and so
    are the errors, each raised before any draw with rng left as it was:
    `symbol_error` and `clash_error` from `_glauber_py.check_patterns`, or
    a ValueError for anything else the kernel cannot trust.
    """
    L, n_inner, unit = _checked_percolation(patterns, n_inner, rng, consume, unit)
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
    _run_on_pcg64(_c_tree, geometry, ((n_window, np.uint8), (3 * n_window, np.float64), (n_window, np.int64)),
                  patterns, n_inner, rng, consume, unit)


def _c_markov_windows(cum_pi, cum_step, n, length, rng):
    """The windows of `_glauber_py.markov_windows`, by the C kernel.

    The arguments are the twin's, the cumulative laws C-contiguous.  The
    kernel steps rng's words itself under its lock, draws what
    `rng.random((n, length))` would, leaves rng in that call's state and
    gives bitwise the twin's windows, in the same dtype.  The arguments are
    checked here first, by the twin's checks, before any draw.
    """
    _glauber_py.checked_stream(rng)
    a, n, length, dtype = _glauber_py.check_windows(cum_pi, cum_step, n, length)
    _checked_shape("cum_pi", cum_pi, _F64, 1)
    _checked_shape("cum_step", cum_step, _F64, 2)
    out = np.empty((n, length), dtype)
    with rng.lock:
        _c_windows(_data(cum_pi), _data(cum_step), a, n, length, _data(out), out.itemsize, _data(rng.words))
    return out


def _c_permutations(k, n, rng):
    """The permutations of `_glauber_py.permutations`, by the C
    Fisher-Yates shuffle: bitwise the twin's, with rng left in the twin's
    state."""
    _glauber_py.checked_stream(rng)
    k, n = _glauber_py.check_sizes(k=k, n=n)
    out = np.empty((k, n), np.int64)
    with rng.lock:
        _c_perms(_data(rng.words), _data(out), k, n)
    return out


_c = None if os.environ.get("SOFICLAB_KERNEL", "").lower() == "python" else _load_c_kernel()
if _c is None:
    glauber_sweeps = _glauber_py.glauber_sweeps
    percolation_lookup = _glauber_py.percolation_lookup
    tree_percolation = _glauber_py.tree_percolation
    markov_windows = _glauber_py.markov_windows
    permutations = _glauber_py.permutations
    BACKEND = "python"
    LOOKUP_ISA = None
else:
    _c_sweeps, _c_percolation, _c_tree, _c_windows, _c_fill, _c_perms, _c_percolation_scalar, _c_lookup_isa = _c
    glauber_sweeps = _c_glauber_sweeps
    percolation_lookup = _c_percolation_lookup
    tree_percolation = _c_tree_percolation
    markov_windows = _c_markov_windows
    permutations = _c_permutations
    BACKEND = "c"
    LOOKUP_ISA = "avx512" if _c_lookup_isa() else "scalar"

__all__ = ["Pcg64", "SweepWorkspace", "glauber_sweeps", "percolation_lookup", "tree_percolation",
           "markov_windows", "permutations", "BACKEND", "LOOKUP_ISA"]
