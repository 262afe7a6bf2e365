"""Build and load the compiled Gaussian chain loop (``_kernel.c``).

The loop is compiled on the first chain that needs it, never at import,
with ``cc -O2 -ffp-contract=off -fPIC -shared`` against numpy's shipped
``libnpyrandom.a``, so its normals come from the ziggurat and Philox code
that ``Generator.standard_normal`` runs.  The shared object is cached in a
private per-user directory (``$XDG_CACHE_HOME/cesaro-lmc``, else
``~/.cache/cesaro-lmc``, mode 0700) under a name hashing the source, the
numpy version and the flags, and is written by atomic rename.

On first load, 64 normals from the loop are compared with numpy's.  If
compiling, loading or that check fails, :func:`load` returns None, the
sampler keeps its numpy driver (the same bits), and one line says so on
stderr.
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
    """Path of the compiled loop, building it if the cache lacks it."""
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


def _open(path: str):
    lib = ctypes.CDLL(path)
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.lmc_normals.argtypes = [p, i64, p]
    lib.lmc_normals.restype = None
    lib.lmc_gaussian.argtypes = [p, i64, i64, f64, p, f64, f64, i64, i64, i64,
                                 p, p, p, p, p, i64]
    lib.lmc_gaussian.restype = None
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
    """``n`` standard normals drawn by the compiled loop from ``gen``."""
    out = np.empty(n)
    lib.lmc_normals(bitgens([gen])[0], n, out.ctypes.data)
    return out


def _self_check(lib) -> None:
    mine = normals(lib, np.random.Generator(np.random.Philox(key=_CHECK_KEY)), 64)
    ref = np.random.Generator(np.random.Philox(key=_CHECK_KEY)).standard_normal(64)
    if mine.tobytes() != ref.tobytes():
        raise RuntimeError("its normals differ from numpy's standard_normal")


def load():
    """The compiled loop's library, or None when it cannot be used."""
    global _lib, _tried
    if not _tried:
        _tried = True
        try:
            lib = _open(_shared_object())
            _self_check(lib)
            _lib = lib
        except Exception as exc:  # any failure means the numpy driver, same bits
            print(
                f"cesaro-lmc: compiled Gaussian chain loop unavailable ({exc}); "
                "using the numpy driver",
                file=sys.stderr,
            )
    return _lib


def step_gaussian(lib, spec, gens, h, sqrt2h, k_sub, step0, todo,
                  x, ces, comp, diverged, states=None):
    """Advance the (m, d) arrays of ``_drive`` by ``todo`` coarse steps in place.

    ``spec`` is the potential's ``("gaussian", rho, mean)`` kernel field;
    ``gens`` is :func:`bitgens` of the replicates' generators and
    ``diverged`` an int64 array, all C-contiguous.  ``states``, if given,
    is the observers' contiguous (m, rows, d) buffer.
    """
    _, rho, mean = spec
    m, d = x.shape
    mean = np.ascontiguousarray(mean, dtype=np.float64)
    if mean.shape != (d,):
        raise ParameterError(f"kernel mean has shape {mean.shape}, expected ({d},)")
    lib.lmc_gaussian(
        gens, m, d, rho, mean.ctypes.data, h, sqrt2h, k_sub, step0, todo,
        x.ctypes.data, ces.ctypes.data, comp.ctypes.data, diverged.ctypes.data,
        None if states is None else states.ctypes.data,
        0 if states is None else states.shape[1] * d,
    )
