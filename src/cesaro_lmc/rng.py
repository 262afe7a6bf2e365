"""Reproducible random streams.

All randomness in the package flows through numpy's counter-based
Philox4x64 generators, ``Philox(key=seed)`` for an explicit seed taken
modulo 2^64 (:func:`stream`).  Gaussian variates come from
numpy's ziggurat ``standard_normal``, whose output stream for a given key
is independent of how draws are chunked, so batched multi-chain simulation
is bit-identical to running each chain on its own.

Replicate ``i`` of an experiment with base seed ``s`` uses the stream keyed
by ``mix64(s, i)`` (a splitmix64 finalizer), so any partition of replicates
across workers yields the same numbers; ``mix64`` derives a batch's keys in
one array pass.

The compiled chain loop (``_kernel``) draws from its own copy of numpy's
Philox4x64-10 stream, keyed the same way and checked against numpy when
the library loads, so it gives the bits of :func:`stream` without
building its Generator.  Its normals run the first test of numpy's
ziggurat inline and hand every other draw to numpy's own
``random_standard_normal``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix64(seed: int, index):
    """Derive a 64-bit stream key from (seed, index) via splitmix64.

    ``index`` is an int, and the key an int, or an array of indices, and
    the keys a uint64 array: one pass in numpy's wrapping uint64
    arithmetic, the same keys as one call per index.
    """
    scalar = np.ndim(index) == 0
    z = np.array([int(index) & _MASK64] if scalar else index).astype(np.uint64)
    z = (z + 1) * 0x9E3779B97F4A7C15 + (int(seed) & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    return int(z[0]) if scalar else z


def stream(seed: int) -> np.random.Generator:
    """The Philox generator keyed by the low 64 bits of ``seed``: ``Philox(key=seed mod 2^64)``."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
