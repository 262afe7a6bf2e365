"""Build and load the compiled potentials and chain loop (``_kernel.c``).

The library is compiled on first use, never at import, with
``cc -O2 -ffp-contract=off -fPIC -shared`` against numpy's shipped
``libnpyrandom.a``, so its normals come from the ziggurat code that
``Generator.standard_normal`` runs: the loop runs that ziggurat's first
test inline, on tables that ``lmc_init`` reads from numpy's
``random_standard_normal`` when :func:`_open` opens the library, and hands
every other draw back to numpy.  The shared object is cached in a
private per-user directory (``$XDG_CACHE_HOME/cesaro-lmc``, else
``~/.cache/cesaro-lmc``, mode 0700) under a name hashing the source, the
numpy version and the flags, and is written by atomic rename.

The library draws from its own copy of numpy's Philox4x64-10 generator.
A stream is one 16-word row of a plain uint64 array (:func:`streams`),
keyed by a seed in the state of ``Philox(key=seed)``, and advanced in
place.  On first load, 4096 normals drawn from such a row (the tail and
draws numpy's slow path takes among them) are compared with those of
``rng.stream`` at the same key, and the row's counter, buffer and position
with that Philox state after the same draws.  If compiling, loading or that
check fails, :func:`load` returns None and one line says so on stderr: Gaussian
chains then run on the numpy driver (the same bits), and the logistic
family, whose evaluators exist only in C, refuses to run.

A :class:`Kernel` binds a potential's ``kernel`` field, the one term
``(rows, cplus, cminus, mu, center)`` that ``lmc_pot`` describes (a sum over
sign pairs plus (mu/2) |x - center|^2; a Gaussian has no pairs), to the
library: ``step`` advances chains on it, and ``value``, ``grad`` and
``hess_vec`` evaluate it.  A pair's e^-|z| is the library's ``expneg``
(``lmc_expneg``) and log(1 + e^-|z|) its ``log1p01`` of that (``lmc_log1p``),
from IEEE operations alone, so all three have the same bits on every host.
Where the CPU has AVX-512 (looked up when the library opens), ``grad`` takes
the pair weights and ``value`` the pair terms 8 per register (from 16 and 5
pairs), and ``lmc_step`` steps each group of 8 live replicates of a term with
pairs, if it holds at least 4, one replicate per lane, each through the
scalar body's operations in their order; other groups, Gaussian terms and
hosts keep the scalar body.  In ns per replicate-step of M replicates,
scalar body -> lanes forced on, and per point-pair of ``value``, scalar ->
lanes (one thread, 2-vCPU Sapphire Rapids)::

    pairs   M = 1        M = 2        M = 4        M = 8        value
    50      267 -> 800   267 -> 400   266 -> 196   267 -> 106   21.8 -> 7.3
    3       83 -> 95     83 -> 52     83 -> 32     83 -> 25     (scalar) 24

Every call splits its batch the same way (:func:`_split`): into contiguous
ranges of about ``_MIN_RANGE_WORK`` units of work or more, one library call
each, run on at most one thread per CPU of the process's affinity mask
(there is no setting): the caller's thread and plain threads, joined before
it returns.  A unit is a replicate-step for ``step`` and a point-term for
the evaluators (a point times the term's pair count, at least 1), so
single points, single chains and small batches stay one call.  Each thread
takes the next range when it is free, so a CPU the host slows does less.
Every cut between two ranges falls on a multiple of 8 rows, so the ranges
of ``step`` fill their lane groups.  No bit depends on the split: a replicate
reads and writes only its own rows and draws only from its own stream, and
a point is evaluated on its own.  The terms' arrays, the streams and each
range's gradient buffer sit on cache lines of their own.

``subprocess`` is imported only when the library has to be compiled, so a
process that loads it from the cache does not pay for that import.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import sys
import tempfile
import threading

import numpy as np

from .errors import ParameterError
from .rng import _MASK64, stream

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CHECK_KEY = 0x5EF4  # Philox key of the load-time self-check: its first 4096 normals hold 3 tails
_CHECK_NORMALS = 4096  # normals of the self-check
_ROW = 16  # uint64 words of a stream (lmc_stream)
_MIN_RANGE_WORK = 1 << 16  # the least work a range may hold: replicate-steps or point-terms
_RANGES_PER_WORKER = 8  # so a worker on a CPU the host slows takes fewer ranges
# the most threads one call runs: the CPUs this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_lib = None
_tried = False


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "cesaro-lmc")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise OSError(f"cache directory {path} is not private to this user")
    return path


def _compile(source: str, target: str) -> None:
    """Compile ``source`` into the shared object ``target``."""
    import subprocess  # here, not at import: a cached library needs no compiler

    random_lib = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
    cmd = ["cc", *_FLAGS, "-I", np.get_include(), source, random_lib, "-lm", "-o", target]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise OSError(f"cc exited {proc.returncode}: {proc.stderr.strip()[-500:]}")


def _shared_object() -> str:
    """Path of the compiled library, building it if the cache lacks it."""
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + np.__version__.encode() + " ".join(_FLAGS).encode())
    cache = _cache_dir()
    path = os.path.join(cache, f"kernel-{key.hexdigest()[:16]}.so")
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            _compile(_SOURCE, tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


class _Pot(ctypes.Structure):
    """``lmc_pot`` of ``_kernel.c``."""

    _fields_ = [("d", ctypes.c_int64), ("pairs", ctypes.c_int64), ("rows", ctypes.c_void_p),
                ("cplus", ctypes.c_void_p), ("cminus", ctypes.c_void_p), ("mu", ctypes.c_double),
                ("center", ctypes.c_void_p)]


def _open(path: str):
    """The library at ``path``, its functions declared and its ziggurat
    tables read from numpy (``lmc_init``)."""
    lib = ctypes.CDLL(path)
    p, i64, f64, pot = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.POINTER(_Pot)
    signatures = {
        "lmc_init": (i64, []),
        "lmc_value": (None, [pot, i64, p, p]),
        "lmc_grad": (None, [pot, i64, p, p]),
        "lmc_hess_vec": (None, [pot, i64, p, p, p]),
        "lmc_normals": (None, [p, i64, p]),
        "lmc_expneg": (None, [i64, p, p]),
        "lmc_log1p": (None, [i64, p, p]),
        "lmc_step": (None, [pot, p, i64, f64, f64, i64, i64, p, p, p, p, p, i64, p]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    lib.lmc_init()
    return lib


def streams(seeds) -> np.ndarray:
    """One stream row per seed, each in the state of ``Philox(key=seed)``.

    ``seeds`` is a uint64 array (the keys of ``rng.mix64``), taken as it
    is, or a sequence of ints, taken modulo 2^64.  A row is ``lmc_stream``:
    words 0-3 the counter (0), 4-5 the key (the seed, 0), 6-9 the block
    buffer, 10 its position (4, empty), 11-15 padding.  The rows start on a
    64-byte line, so concurrent ranges never share one.
    """
    rows = _lines((len(seeds), _ROW), np.uint64)
    if getattr(seeds, "dtype", None) == np.uint64:
        rows[:, 4] = seeds
    else:
        rows[:, 4] = [int(s) & _MASK64 for s in seeds]
    rows[:, 10] = 4
    return rows


def normals(lib, row: np.ndarray, n: int) -> np.ndarray:
    """``n`` standard normals drawn by the compiled library from the stream ``row``."""
    out = np.empty(n)
    lib.lmc_normals(row.ctypes.data, n, out.ctypes.data)
    return out


def _self_check(lib) -> None:
    row, gen = streams([_CHECK_KEY])[0], stream(_CHECK_KEY)
    mine = normals(lib, row, _CHECK_NORMALS)
    if mine.tobytes() != gen.standard_normal(_CHECK_NORMALS).tobytes():
        raise RuntimeError("its normals differ from numpy's standard_normal")
    state = gen.bit_generator.state
    if (row[:4].tolist() != state["state"]["counter"].tolist()
            or row[6:10].tolist() != state["buffer"].tolist() or row[10] != state["buffer_pos"]):
        raise RuntimeError("its stream after the normals differs from numpy's Philox")


def load():
    """The compiled library, or None when it cannot be used."""
    global _lib, _tried
    if not _tried:
        _tried = True
        try:
            lib = _open(_shared_object())
            _self_check(lib)
            _lib = lib
        except Exception as exc:  # Gaussian chains fall back to numpy, same bits
            print(
                f"cesaro-lmc: compiled kernel unavailable ({exc}); Gaussian chains use the "
                "numpy driver, and the logistic family cannot run",
                file=sys.stderr,
            )
    return _lib


def _lines(shape, dtype=np.float64):
    """A zeroed array of 8-byte items on 64-byte cache lines that hold
    nothing else: chain threads read or write it on every step, and a line
    shared with memory another thread writes (a small malloc) would move
    between CPUs per write."""
    size = math.prod(shape)
    buf = np.zeros(size + 16, dtype)
    return buf[(-buf.ctypes.data % 64) // 8:][:size].reshape(shape)


def _array(a, shape, what):
    """``a`` as float64, copied onto cache lines of its own (:func:`_lines`)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ParameterError(f"kernel {what} has shape {a.shape}, expected {shape}")
    out = _lines(shape)
    out[...] = a
    return out


class Kernel:
    """The term ``(rows, cplus, cminus, mu, center)`` of a potential's
    ``kernel`` field on ``d`` coordinates, bound to the compiled library ``lib``."""

    def __init__(self, lib, term, d: int):
        rows, cplus, cminus, mu, center = term
        pairs = np.shape(rows)[0]
        self.lib, self.d = lib, d
        self._keep = [_array(rows, (pairs, d), "rows"), _array(cplus, (pairs,), "cplus"),
                      _array(cminus, (pairs,), "cminus"), _array(center, (d,), "center")]
        ptrs = [a.ctypes.data for a in self._keep]  # the struct points into these arrays
        self._pot = _Pot(d, pairs, *ptrs[:3], mu, ptrs[3])

    def _points(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if np.shape(x)[-1:] != (self.d,):
            raise ParameterError(f"point has shape {np.shape(x)}, expected (..., {self.d})")
        return x.reshape(-1, self.d)

    def _batch(self, fn, out, *args):
        """``out`` filled by the evaluator ``fn`` over the rows of ``args``
        and ``out``, in the ranges of :func:`_split`."""

        def run(lo, hi):
            fn(self._pot, hi - lo, *[a[lo:].ctypes.data for a in (*args, out)])

        _split(out.shape[0], max(1, self._pot.pairs), run)
        return out

    def value(self, x):
        """Value at each point of ``x`` (``(d,)`` or ``(..., d)``)."""
        flat = self._points(x)
        out = self._batch(self.lib.lmc_value, np.empty(flat.shape[0]), flat)
        return out.reshape(np.shape(x)[:-1])[()]

    def grad(self, x):
        """Gradient at each point of ``x``, shaped like ``x``."""
        flat = self._points(x)
        return self._batch(self.lib.lmc_grad, np.empty_like(flat), flat).reshape(np.shape(x))

    def hess_vec(self, x, v):
        """Hessian at each point of ``x`` applied to ``v``, broadcast together."""
        x, v = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(v, dtype=np.float64))
        fx, fv = self._points(x), self._points(v)
        return self._batch(self.lib.lmc_hess_vec, np.empty_like(fx), fx, fv).reshape(x.shape)

    def step(self, streams, h, sqrt2h, step0, todo, x, ces, comp, diverged, states=None):
        """Advance the (m, d) arrays of ``_drive`` by ``todo`` steps in place.

        ``streams`` holds the replicates' stream rows (:func:`streams`),
        advanced in place, and ``diverged`` is an int64 array, all
        C-contiguous.  ``states``, if given, is the observers' contiguous
        (m, rows, d) buffer.
        """
        m, d = x.shape
        stride = 0 if states is None else states.shape[1] * d

        def run(lo, hi):
            work = _lines((32 * d,))  # this range's buffer: 4 d vectors of 8 lanes
            self.lib.lmc_step(
                self._pot, streams[lo:].ctypes.data, hi - lo, h, sqrt2h, step0, todo,
                x[lo:].ctypes.data, ces[lo:].ctypes.data, comp[lo:].ctypes.data,
                diverged[lo:].ctypes.data,
                None if states is None else states[lo:].ctypes.data, stride, work.ctypes.data,
            )

        _split(m, todo, run)


def _split(n, work, run):
    """Call ``run(lo, hi)`` on contiguous ranges tiling rows 0..n, each of about
    ``_MIN_RANGE_WORK`` units or more when a row is ``work`` units, on at most
    ``_WORKERS`` threads; the first exception a range raises is re-raised
    here, after every thread is joined.  Every cut falls on a multiple of 8
    rows, so ``lmc_step`` fills its 8-replicate lane groups wherever the live
    replicates allow."""
    most = n * work // _MIN_RANGE_WORK  # ranges the work fills
    workers = max(1, min(_WORKERS, n, most))
    # as many ranges for each thread, so threads on equal CPUs end together
    ranges = workers * max(1, min(_RANGES_PER_WORKER, most // workers, n // workers))
    # the even cuts, each moved to the nearest multiple of 8; a range left empty goes
    bounds = sorted({min(n, (n * r // ranges + 4) & -8) for r in range(ranges)} | {n})
    ranges = len(bounds) - 1
    if ranges <= 1:
        run(0, n)
        return
    workers = min(workers, ranges)
    queue = iter(range(ranges))  # shared; next() runs under the interpreter lock
    errors = []

    def work_ranges():
        try:
            for r in queue:
                run(bounds[r], bounds[r + 1])
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work_ranges)
            thread.start()
            threads.append(thread)
        work_ranges()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
