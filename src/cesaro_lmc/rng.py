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

import functools

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix64(seed: int, index: int) -> int:
    """Derive a 64-bit stream key from (seed, index) via splitmix64."""
    z = (int(seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@functools.cache
def _zero_seed():
    """A seed source of zero words, so a stream skips the OS entropy that
    ``Philox(key=k)`` draws and discards (built at the first stream, so
    importing the package does not import numpy.random)."""

    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return ZeroSeed()


def stream(seed: int) -> np.random.Generator:
    """A Philox generator keyed by a 64-bit seed, in the state of ``Philox(key=seed)``."""
    bits = np.random.Philox(_zero_seed())
    bits.state = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0,
                  "state": {"counter": np.zeros(4, np.uint64),
                            "key": np.array([int(seed) & _MASK64, 0], np.uint64)}}
    return np.random.Generator(bits)
