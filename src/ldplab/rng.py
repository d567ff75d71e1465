"""Deterministic, parallel-safe random streams.

Every Monte Carlo run owns a private counter-based stream keyed by
(master_seed, run_index).  Streams for distinct runs use distinct Philox
keys, so any number of runs can be generated concurrently, in any order
and on any number of workers, with bit-identical results.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of SplitMix64; bijective on 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x) -> np.ndarray:
    """``_splitmix64`` of every element at once, as uint64.

    An int64 input is taken mod 2^64 (two's complement), and uint64
    arithmetic wraps mod 2^64, so each element has the scalar's bits.
    """
    x = np.asarray(x).astype(np.uint64)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def stream_key(master_seed: int, run_index: int) -> np.ndarray:
    """128-bit Philox key for one run.

    Each 64-bit word is an independent bijection of its input, so the map
    (master_seed mod 2^64, run_index mod 2^64) -> key is injective.
    """
    k0 = _splitmix64(int(master_seed) & _MASK64)
    k1 = _splitmix64(int(run_index) & _MASK64)
    return np.array([k0, k1], dtype=np.uint64)


def run_generator(master_seed: int, run_index: int) -> np.random.Generator:
    """Fresh generator for one run's private stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, run_index)))


class StreamPool:
    """Reusable generator that can be re-keyed to any run's stream.

    Constructing a Philox/Generator pair per run costs ~25 us; resetting the
    state of a shared pair costs ~2 us and yields the exact same draws as
    ``run_generator``.  ``OracleSpec.randomness_block`` resets one pool once
    per run of an ensemble.
    """

    def __init__(self, master_seed: int):
        self._bitgen = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
        self.generator = np.random.Generator(self._bitgen)
        # The state of a fresh stream: zero counter, empty buffer.  The setter
        # copies it into the bit generator, so only the run's key word changes
        # between resets; plain ints convert about 2x faster than uint64 arrays.
        self._key = [_splitmix64(int(master_seed) & _MASK64), 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def reset(self, key_word: int) -> np.random.Generator:
        """Rewind the shared generator to the start of the stream whose run
        key word is ``key_word`` (``_splitmix64`` of the run index)."""
        self._key[1] = key_word
        self._bitgen.state = self._state
        return self.generator
