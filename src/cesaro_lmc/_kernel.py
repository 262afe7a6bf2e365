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

A :class:`Kernel` binds a potential's ``kernel`` field, a tuple of terms
``("logistic", rows, cplus, cminus, mu)`` and ``("gaussian", rho, mean)``
(at most one of each, in that order, as :func:`combine` joins them), to the
library: its ``value``, ``grad`` and ``hess_vec`` evaluate the sum of the
terms and ``step`` advances chains on it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

from .errors import ParameterError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CHECK_KEY = 0x5EED  # Philox key of the load-time self-check

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
        "lmc_step": (ctypes.c_int, [pot, p, i64, f64, f64, i64, i64, i64, p, p, p, p, p, i64]),
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


# the term sequences lmc_pot holds: a logistic term, then a Gaussian one
_ORDERS = (("logistic",), ("gaussian",), ("logistic", "gaussian"))


def combine(*kernels):
    """The terms of a sum of potentials with these ``kernel`` fields, or None
    when one has no kernel or their terms do not fit one compiled potential."""
    if any(k is None for k in kernels):
        return None
    terms = tuple(t for k in kernels for t in k)
    return terms if tuple(t[0] for t in terms) in _ORDERS else None


def _array(a, shape, what):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ParameterError(f"kernel {what} has shape {a.shape}, expected {shape}")
    return a


class Kernel:
    """The terms of a potential's ``kernel`` field on ``d`` coordinates,
    bound to the compiled library ``lib``."""

    def __init__(self, lib, terms, d: int):
        if combine(terms) is None:
            names = tuple(t[0] for t in terms)
            raise ParameterError(f"kernel terms {names} are not a logistic and a Gaussian term")
        self.lib, self.d = lib, d
        self._keep = []  # the arrays the struct points into
        pot = _Pot(d=d)
        for term in terms:
            if term[0] == "logistic":
                _, rows, cplus, cminus, mu = term
                pairs = np.shape(rows)[0]
                arrays = (_array(rows, (pairs, d), "rows"), _array(cplus, (pairs,), "cplus"),
                          _array(cminus, (pairs,), "cminus"))
                pot.pairs, pot.mu = pairs, mu
                pot.rows, pot.cplus, pot.cminus = (a.ctypes.data for a in arrays)
            else:
                _, rho, mean = term
                arrays = (_array(mean, (d,), "mean"),)
                pot.rho, pot.mean = rho, arrays[0].ctypes.data
            self._keep.extend(arrays)
        self._pot = pot

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
        m = x.shape[0]
        rc = self.lib.lmc_step(
            self._pot, gens, m, h, sqrt2h, k_sub, step0, todo,
            x.ctypes.data, ces.ctypes.data, comp.ctypes.data, diverged.ctypes.data,
            None if states is None else states.ctypes.data,
            0 if states is None else states.shape[1] * self.d,
        )
        if rc != 0:
            raise MemoryError("the chain loop could not allocate its gradient buffer")
