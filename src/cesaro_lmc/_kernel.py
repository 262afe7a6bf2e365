"""Build and load the compiled potentials and chain loop (``_kernel.c``).

The library is compiled on first use, never at import, with
``cc -O2 -ffp-contract=off -fPIC -shared`` against numpy's shipped
``libnpyrandom.a``, so its normals come from the ziggurat and Philox code
that ``Generator.standard_normal`` runs.  The shared object is cached in a
private per-user directory (``$XDG_CACHE_HOME/cesaro-lmc``, else
``~/.cache/cesaro-lmc``, mode 0700) under a name hashing the source, the
numpy version and the flags, and is written by atomic rename.

On first load, 64 normals from the library are compared with numpy's.  If
compiling, loading or that check fails, :func:`load` returns None and one
line says so on stderr: Gaussian chains then run on the numpy driver (the
same bits), and the logistic family, whose evaluators exist only in C,
refuses to run.

A :class:`Kernel` binds a potential's ``kernel`` field, one term
``("logistic", rows, cplus, cminus, mu)`` or ``("gaussian", rho, mean)``,
to the library: its ``value``, ``grad`` and ``hess_vec`` evaluate the term
and ``step`` advances chains on it.

``step`` splits the replicate axis into contiguous ranges of at least
``_MIN_RANGE_WORK`` replicate-substeps, one ``lmc_step`` call each, and
steps them on at most one thread per CPU of the process's affinity mask
(there is no setting): the caller's thread and plain threads, joined before
it returns.  Each thread takes the next range when it is free, so a CPU the
host slows steps fewer.  No bit depends on the split: a replicate reads and
writes only its own rows and draws only from its own generator.  The terms'
arrays and each thread's gradient buffer sit on cache lines of their own.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading

import numpy as np

from .errors import ParameterError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CHECK_KEY = 0x5EED  # Philox key of the load-time self-check
_MIN_RANGE_WORK = 1 << 16  # the least work a range may hold, in replicate-substeps
_RANGES_PER_WORKER = 8  # so a worker on a CPU the host slows takes fewer ranges
# the most threads one step call runs: the CPUs this process may run on
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
                ("mean", ctypes.c_void_p), ("rho", ctypes.c_double)]


def _open(path: str):
    lib = ctypes.CDLL(path)
    p, i64, f64, pot = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.POINTER(_Pot)
    signatures = {
        "lmc_value": (None, [pot, i64, p, p]),
        "lmc_grad": (None, [pot, i64, p, p]),
        "lmc_hess_vec": (None, [pot, i64, p, p, p]),
        "lmc_normals": (None, [p, i64, p]),
        "lmc_step": (None, [pot, p, i64, f64, f64, i64, i64, i64, p, p, p, p, p, i64, p]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


# a private prototype, so the argtypes of ctypes.pythonapi's shared one are left alone
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def bitgens(gens):
    """A ctypes array of the generators' ``bitgen_t`` pointers."""
    return (ctypes.c_void_p * len(gens))(
        *[_capsule_pointer(g.bit_generator.capsule, b"BitGenerator") for g in gens]
    )


def normals(lib, gen: np.random.Generator, n: int) -> np.ndarray:
    """``n`` standard normals drawn by the compiled library from ``gen``."""
    out = np.empty(n)
    lib.lmc_normals(bitgens([gen])[0], n, out.ctypes.data)
    return out


def _self_check(lib) -> None:
    mine = normals(lib, np.random.Generator(np.random.Philox(key=_CHECK_KEY)), 64)
    ref = np.random.Generator(np.random.Philox(key=_CHECK_KEY)).standard_normal(64)
    if mine.tobytes() != ref.tobytes():
        raise RuntimeError("its normals differ from numpy's standard_normal")


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
                "numpy driver and the logistic family cannot run",
                file=sys.stderr,
            )
    return _lib


def _array(a, shape, what):
    """``a`` as float64, copied onto 64-byte cache lines that hold nothing else:
    chain threads read it on every gradient, and a line shared with memory
    another thread writes (a small malloc) would move between CPUs per write."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ParameterError(f"kernel {what} has shape {a.shape}, expected {shape}")
    buf = np.empty(a.size + 16)
    out = buf[(-buf.ctypes.data % 64) // 8:][:a.size].reshape(shape)
    out[...] = a
    return out


class Kernel:
    """The term of a potential's ``kernel`` field on ``d`` coordinates, bound
    to the compiled library ``lib``."""

    def __init__(self, lib, term, d: int):
        if not (isinstance(term, tuple) and term and isinstance(term[0], str)
                and {"logistic": 5, "gaussian": 3}.get(term[0]) == len(term)):
            raise ParameterError("a kernel is one term, ('logistic', rows, cplus, cminus, mu) "
                                 "or ('gaussian', rho, mean)")
        self.lib, self.d = lib, d
        if term[0] == "logistic":
            _, rows, cplus, cminus, mu = term
            pairs = np.shape(rows)[0]
            rows, cplus, cminus = (_array(rows, (pairs, d), "rows"),
                                   _array(cplus, (pairs,), "cplus"),
                                   _array(cminus, (pairs,), "cminus"))
            self._pot = _Pot(d=d, pairs=pairs, rows=rows.ctypes.data, cplus=cplus.ctypes.data,
                             cminus=cminus.ctypes.data, mu=mu)
            self._keep = [rows, cplus, cminus]  # the arrays the struct points into
        else:
            _, rho, mean = term
            self._keep = [_array(mean, (d,), "mean")]
            self._pot = _Pot(d=d, mean=self._keep[0].ctypes.data, rho=rho)

    def _points(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if np.shape(x)[-1:] != (self.d,):
            raise ParameterError(f"point has shape {np.shape(x)}, expected (..., {self.d})")
        return x.reshape(-1, self.d)

    def value(self, x):
        """Value at each point of ``x`` (``(d,)`` or ``(..., d)``)."""
        flat = self._points(x)
        out = np.empty(flat.shape[0])
        self.lib.lmc_value(self._pot, flat.shape[0], flat.ctypes.data, out.ctypes.data)
        return out.reshape(np.shape(x)[:-1])[()]

    def grad(self, x):
        """Gradient at each point of ``x``, shaped like ``x``."""
        flat = self._points(x)
        out = np.empty_like(flat)
        self.lib.lmc_grad(self._pot, flat.shape[0], flat.ctypes.data, out.ctypes.data)
        return out.reshape(np.shape(x))

    def hess_vec(self, x, v):
        """Hessian at each point of ``x`` applied to ``v``, broadcast together."""
        x, v = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(v, dtype=np.float64))
        fx, fv = self._points(x), self._points(v)
        out = np.empty_like(fx)
        self.lib.lmc_hess_vec(self._pot, fx.shape[0], fx.ctypes.data, fv.ctypes.data,
                              out.ctypes.data)
        return out.reshape(x.shape)

    def step(self, gens, h, sqrt2h, k_sub, step0, todo, x, ces, comp, diverged, states=None):
        """Advance the (m, d) arrays of ``_drive`` by ``todo`` coarse steps in place.

        ``gens`` is :func:`bitgens` of the replicates' generators and
        ``diverged`` an int64 array, all C-contiguous.  ``states``, if
        given, is the observers' contiguous (m, rows, d) buffer.
        """
        m, d = x.shape
        stride = 0 if states is None else states.shape[1] * d
        most = m * todo * k_sub // _MIN_RANGE_WORK  # ranges the work fills
        workers = max(1, min(_WORKERS, m, most))
        # as many ranges for each thread, so threads on equal CPUs end together
        ranges = workers * max(1, min(_RANGES_PER_WORKER, most // workers, m // workers))
        bounds = [m * r // ranges for r in range(ranges + 1)]
        queue = iter(range(ranges))  # shared; next() runs under the interpreter lock
        errors = []

        def work():
            try:
                g = _array(np.zeros(d), (d,), "gradient buffer")  # this thread's own lines
                for r in queue:
                    lo, hi = bounds[r], bounds[r + 1]
                    self.lib.lmc_step(
                        self._pot, ctypes.addressof(gens) + lo * ctypes.sizeof(ctypes.c_void_p),
                        hi - lo, h, sqrt2h, k_sub, step0, todo, x[lo:].ctypes.data,
                        ces[lo:].ctypes.data, comp[lo:].ctypes.data, diverged[lo:].ctypes.data,
                        None if states is None else states[lo:].ctypes.data, stride,
                        g.ctypes.data,
                    )
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

        threads = []
        try:
            for _ in range(workers - 1):
                thread = threading.Thread(target=work)
                thread.start()
                threads.append(thread)
            work()
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
