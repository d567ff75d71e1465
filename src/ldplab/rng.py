"""Deterministic, parallel-safe random streams.

Every Monte Carlo run owns a private counter-based stream: run i of seed s
draws from Philox key (SplitMix64(s), SplitMix64(i)), both taken mod 2^64.
Distinct runs use distinct keys, so any number of runs can be generated
concurrently, in any order and on any number of workers, with bit-identical
results.  ``StreamPool`` builds every stream; ``run_generator`` is a pool reset.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One round of SplitMix64 on each element of a uint64 array, bijective as
    uint64 arithmetic wraps mod 2^64; not on a 0-d scalar, whose wrap warns."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def run_generator(master_seed: int, run_index: int) -> np.random.Generator:
    """Fresh generator for one run's private stream: a new pool reset to it."""
    return StreamPool(master_seed).reset(StreamPool.key_words([int(run_index) & _MASK64])[0])


class StreamPool:
    """Reusable generator that can be re-keyed to any run's stream.

    Constructing a Philox/Generator pair per run costs ~25 us; resetting the
    state of a shared pair costs ~2 us.  ``OracleSpec.randomness_block``
    resets one pool once per run of an ensemble; ``run_generator`` resets a
    new pool once.
    """

    def __init__(self, master_seed: int):
        self._bitgen = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
        self.generator = np.random.Generator(self._bitgen)
        # The state of a fresh stream: zero counter, empty buffer.  The setter
        # copies it into the bit generator, so only the run's key word changes
        # between resets; plain ints convert about 2x faster than uint64 arrays.
        self._key = [*self.key_words([int(master_seed) & _MASK64]), 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    @staticmethod
    def key_words(run_indices) -> list[int]:
        """The key word of each run index, as plain ints: ``_splitmix64`` of
        the index mod 2^64 (an int64 index is taken in two's complement)."""
        return _splitmix64(np.asarray(run_indices).astype(np.uint64)).tolist()

    def reset(self, key_word: int) -> np.random.Generator:
        """Rewind the shared generator to the start of the stream whose run
        key word is ``key_word`` (one of ``key_words``)."""
        self._key[1] = key_word
        self._bitgen.state = self._state
        return self.generator
