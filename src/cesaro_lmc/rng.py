"""Reproducible random streams.

All randomness in the package flows through counter-based Philox4x64
generators keyed by explicit 64-bit seeds.  Gaussian variates come from
numpy's ziggurat ``standard_normal``, whose output stream for a given key
is independent of how draws are chunked, so batched multi-chain simulation
is bit-identical to running each chain on its own.

Replicate ``i`` of an experiment with base seed ``s`` uses the stream keyed
by ``mix64(s, i)`` (a splitmix64 finalizer), so any partition of replicates
across workers yields the same numbers.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix64(seed: int, index: int) -> int:
    """Derive a 64-bit stream key from (seed, index) via splitmix64."""
    z = (int(seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream(seed: int) -> np.random.Generator:
    """A Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))

