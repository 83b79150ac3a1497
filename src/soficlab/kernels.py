"""The compiled kernels of `_glauber.c` through ctypes, else their Python twins.

Three kernels: `glauber_sweeps`, the heat-bath sweep; `transfer_lookup`,
the transfer oracle's nearest-pin table lookup; and `percolation_lookup`,
the same lookup over percolation pasts that it draws itself from a numpy
Generator through numpy's `bitgen_t`.  On the first import, `_glauber.c`
is compiled once into the user cache, `$XDG_CACHE_HOME/soficlab` or
`~/.cache/soficlab`, as one shared library whose name is keyed by a CRC-32
of the source, the compiler flags and the platform; later imports only load
it.  The compiler is the one Python was built with (`sysconfig` CC), else
`cc`.  If the build or the load fails, or the library lacks any kernel, a
RuntimeWarning names the cause and all three pure-Python twins of
`_glauber_py` are used; `SOFICLAB_KERNEL=python` forces the twins.  The
backends are never mixed.  The sweeps consume identical uniforms and give
bitwise-equal trajectories; the lookups read the same table entries and
raise the same errors, and the percolation lookups draw the same uniforms,
so they leave the generator in the same state.  `BACKEND` is "c" or
"python".
"""

import ctypes
import operator
import os
import sysconfig
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
# non-zero status codes of the C sweep kernel, then of the C lookups
_C_ERRORS = {
    1: f"alphabet too large for kernel (at most {_MAX_ALPHABET} symbols)",
    2: "neighbour index outside [0, n)",
    3: "symbol of x outside [0, alphabet)",
}
_LOOKUP_BAD_COLUMN = 4
_LOOKUP_BAD_SYMBOL = 5
_I8, _I64, _U8, _F64 = (np.dtype(t) for t in (np.int8, np.int64, np.uint8, np.float64))
_BYTE_P = ctypes.POINTER(ctypes.c_ubyte)
_BOOL = np.dtype(bool)


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
    """The C (sweep, lookup, percolation lookup) functions of one library,
    compiled into the cache first if needed; None if that fails or any is
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
        dll = ctypes.CDLL(str(lib))
        sweeps, lookup, percolation = dll.glauber_sweeps, dll.transfer_lookup, dll.percolation_lookup
    except Exception as exc:  # any failure means the Python twins, never a failed import
        warnings.warn(f"C kernels unavailable, using the Python kernels: {exc!r}",
                      RuntimeWarning, stacklevel=2)
        return None
    sweeps.argtypes = [_BYTE_P] * 7 + [ctypes.c_int64] * 4 + [_BYTE_P, ctypes.c_int64]
    lookup.argtypes = [_BYTE_P, ctypes.c_int64, _BYTE_P] + [ctypes.c_int64] * 3 + [
        _BYTE_P, ctypes.c_int64, _BYTE_P, ctypes.c_int64, _BYTE_P, _BYTE_P]
    percolation.argtypes = [_BYTE_P] + [ctypes.c_int64] * 6 + [
        _BYTE_P, ctypes.c_int64, _BYTE_P, ctypes.c_int64, ctypes.c_void_p, _BYTE_P, _BYTE_P, _BYTE_P]
    sweeps.restype = lookup.restype = percolation.restype = ctypes.c_int
    return sweeps, lookup, percolation


def _checked_shape(name: str, arr, dtype: np.dtype, ndim: int) -> tuple:
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == ndim
            and arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a C-contiguous {ndim}-d {dtype} array")
    return arr.shape


def _data(arr: np.ndarray):
    """arr's data as a pointer argument of the C kernel.

    A ctypes byte over the array's buffer, which ctypes passes by address,
    costs about a fifth of `ndarray.ctypes`; it needs a writeable, non-empty
    buffer.  sample_derived_gibbs makes one kernel call per retained sample,
    so this counts.
    """
    if arr.flags.writeable and arr.size:
        return ctypes.c_ubyte.from_buffer(arr)
    return arr.ctypes.data_as(_BYTE_P)


def _c_glauber_sweeps(x, nbr_out, nbr_in, wh, wj, allowed, uniforms, sweeps, counts=None, safe=0):
    """Run `sweeps` heat-bath sweeps over x in place with the C kernel.

    The arguments are those of `_glauber_py.glauber_sweeps`, as GlauberEngine
    lays them out; if counts is given, counts[t] is the number of sites not
    equal to `safe` after sweep t.  Everything the C code trusts is checked
    here first: dtypes, C order, a writeable x and counts, agreeing shapes,
    at least sweeps * n uniforms and sweeps counts, safe in [0, a) and an
    alphabet of at most 64; the C code itself checks every neighbour index
    and every symbol of x.  Any failure is a ValueError.
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
    (m,) = _checked_shape("uniforms", uniforms, _F64, 1)
    sweeps = operator.index(sweeps)
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
    status = _c_sweeps(
        _data(x), _data(nbr_out), _data(nbr_in), _data(wh), _data(wj), _data(allowed),
        _data(uniforms), sweeps, n, n_gen, a, None if counts is None else _data(counts), safe,
    )
    if status:
        raise ValueError(_C_ERRORS[status])


def _checked_rows(name: str, arr, dtype: np.dtype) -> tuple:
    """The (n, L) shape of a 2-d array whose columns are contiguous and whose
    rows are a non-negative whole number of elements apart (strides that
    are never stepped, as with no rows, one row or one column, are not checked)."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == 2):
        raise ValueError(f"{name} must be a 2-d {dtype} array")
    (n, L), (row, col) = arr.shape, arr.strides
    if n and L > 1 and col != arr.itemsize or n > 1 and (row < 0 or row % arr.itemsize):
        raise ValueError(f"{name} must have contiguous columns and a non-negative row stride, "
                         f"not strides {arr.strides}")
    return arr.shape


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


def _raise_lookup(status: int, bad: np.ndarray, a: int):
    """The twin's error for a non-zero status of a C lookup."""
    if status == _LOOKUP_BAD_SYMBOL:
        raise _glauber_py.symbol_error(int(bad[0]), a)
    if status == _LOOKUP_BAD_COLUMN:
        raise _glauber_py.column_error()


def _c_transfer_lookup(values, masks, sides, tables):
    """(n, L) values and masks -> (n,) table entries, with the C kernel.

    The arguments are those of `_glauber_py.transfer_lookup`, as
    TransferOracle lays them out: int64 values and bool masks of one shape,
    L >= 1, each with contiguous columns and any non-negative row stride, so
    broadcast rows (stride 0) and column-sliced masks are read without a
    copy; C-contiguous int64 sides of shape (2, R) and float64 tables of
    shape (a, R+1, a, R+1, a).  Everything the C code trusts is checked here
    first; the C code checks every column and symbol it reads.  Any failure
    is a ValueError, a symbol outside [0, a) the twin's `symbol_error`.
    """
    n, L = _checked_rows("values", values, _I64)
    if _checked_rows("masks", masks, _BOOL) != (n, L):
        raise ValueError(f"masks has shape {masks.shape}, expected {(n, L)}")
    if L < 1:
        raise ValueError("rows need a center column")
    r_max, a = _checked_geometry(sides, tables)
    out = np.empty(n)
    bad = np.zeros(1, np.int64)
    # values and masks may be strided or read-only views, which `_data` cannot take
    status = _c_lookup(
        values.ctypes.data_as(_BYTE_P), values.strides[0] // values.itemsize,
        masks.ctypes.data_as(_BYTE_P), masks.strides[0], n, L,
        _data(sides), r_max, _data(tables), a, _data(out), _data(bad),
    )
    _raise_lookup(status, bad, a)
    return out


def _c_percolation_lookup(patterns, n_inner, lo, ball_size, sides, tables, rng, out):
    """out[i] = the lookup of patterns[(lo + i) // n_inner] under the i-th of
    len(out) percolation pasts drawn from rng, with the C kernel.

    The arguments are those of `_glauber_py.percolation_lookup`: int64
    patterns with contiguous columns and any non-negative row stride, of
    width 1 to ball_size; n_inner >= 1 and lo >= 0 such that every row read
    is a row of patterns; sides and tables as `_c_transfer_lookup` takes
    them; a numpy Generator; and a writeable C-contiguous float64 out.  The
    kernel draws len(out) * ball_size uniforms through the generator's
    `bitgen_t`, as `rng.random((len(out), ball_size))` does, holding the
    generator's lock, since ctypes releases the GIL.  Any failure is a
    ValueError, a symbol or side column the twin's.
    """
    n_rows, L = _checked_rows("patterns", patterns, _I64)
    n_inner, lo, ball_size = (operator.index(v) for v in (n_inner, lo, ball_size))
    if not 1 <= L <= ball_size:
        raise ValueError(f"pattern width {L} is not in [1, {ball_size}], the ball size of the pasts")
    (n,) = _checked_shape("out", out, _F64, 1)
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    if n_inner < 1 or lo < 0 or n and (lo + n - 1) // n_inner >= n_rows:
        raise ValueError(f"rows {lo} to {lo + n} at {n_inner} per pattern do not fit {n_rows} patterns")
    r_max, a = _checked_geometry(sides, tables)
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator, not {type(rng).__name__}")
    mask = np.empty(L, np.uint8)
    bad = np.zeros(1, np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        status = _c_percolation(
            patterns.ctypes.data_as(_BYTE_P), patterns.strides[0] // patterns.itemsize, L,
            n_inner, lo, n, ball_size, _data(sides), r_max, _data(tables), a,
            bitgen.ctypes.bit_generator, _data(mask), _data(out), _data(bad),
        )
    _raise_lookup(status, bad, a)


_c = None if os.environ.get("SOFICLAB_KERNEL", "").lower() == "python" else _load_c_kernel()
if _c is None:
    glauber_sweeps = _glauber_py.glauber_sweeps
    transfer_lookup = _glauber_py.transfer_lookup
    percolation_lookup = _glauber_py.percolation_lookup
    BACKEND = "python"
else:
    _c_sweeps, _c_lookup, _c_percolation = _c
    glauber_sweeps = _c_glauber_sweeps
    transfer_lookup = _c_transfer_lookup
    percolation_lookup = _c_percolation_lookup
    BACKEND = "c"

__all__ = ["glauber_sweeps", "transfer_lookup", "percolation_lookup", "BACKEND"]
