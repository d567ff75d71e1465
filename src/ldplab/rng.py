"""Deterministic, parallel-safe random streams.

Every Monte Carlo run owns a private counter-based stream: run i of seed s
draws from Philox key (SplitMix64(s), SplitMix64(i)), both taken mod 2^64.
Distinct runs use distinct keys, so any number of runs can be generated
concurrently, in any order and on any number of workers, with bit-identical
results.  ``StreamPool`` builds every stream; ``run_generator`` is a pool reset.
Philox is counter-based, each word a function of (key, counter), so
``philox_random`` computes a slab of runs' uniforms as one array expression.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_LO32 = 0xFFFFFFFF
# Philox4x64's multipliers and round-key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# most words per run for which philox_random beats a pool reset per run: for
# 2^14 runs it took 0.4x the time at 16 words, 0.9x at 40, 1.0x at 48, 1.2x at 64
PHILOX_SLAB_WORDS = 40
# counters per block of runs of philox_random: its scratch, about 13 uint64
# arrays of this length (0.83 MiB), stays in cache; 2^14 runs unblocked took
# 1.3-1.6x as long
_PHILOX_BLOCK = 1 << 13


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One round of SplitMix64 on each element of a uint64 array, bijective as
    uint64 arithmetic wraps mod 2^64; not on a 0-d scalar, whose wrap warns."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _key_array(run_indices) -> np.ndarray:
    """The uint64 key word of each run index: ``_splitmix64`` of the index mod
    2^64 (an int64 index is taken in two's complement)."""
    return _splitmix64(np.asarray(run_indices).astype(np.uint64))


def _mulhilo(m: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the 128-bit product m * c, on uint64 arrays,
    the high word from 32-bit halves, in place to keep few temporaries."""
    m_hi, m_lo = m >> 32, m & _LO32
    t = c & _LO32
    u = (t * m_lo) >> 32
    t *= m_hi
    t += u
    hi = c >> 32
    np.multiply(hi, m_lo, out=u)
    u += t & _LO32
    hi *= m_hi
    hi += t >> 32
    hi += u >> 32
    return c * m, hi


def philox_random(master_seed: int, run_indices, out: np.ndarray) -> np.ndarray:
    """Fill ``out[i]`` with ``run_generator(master_seed, run_indices[i]).random(out[i].shape)``,
    bit for bit: word k of a run is word k % 4 of Philox4x64-10 at counter
    k // 4 + 1 (numpy counts up before each block of four), and gives the
    uniform (word >> 11) * 2^-53.  Each block of runs holds _PHILOX_BLOCK counters."""
    n = out[0].size if len(out) else 0
    rows = out.reshape(len(out), n, copy=False)
    n_ctr = -(-n // 4)
    per_block = max(1, _PHILOX_BLOCK // max(1, n_ctr))
    k0 = StreamPool.key_words([int(master_seed) & _MASK64])[0]
    for lo in range(0, len(out) if n else 0, per_block):
        # each word wraps mod 2^64 on arrays (a 0-d wrap warns); k0 stays a Python int
        c0, c1, c2, c3 = np.arange(1, n_ctr + 1, dtype=np.uint64)[None], 0, np.zeros((1, 1), np.uint64), 0
        key0, key1 = k0, _key_array(run_indices[lo : lo + per_block])[:, None]
        for r in range(10):
            if r:  # bump the round keys
                key0, key1 = (key0 + _PHILOX_W[0]) & _MASK64, key1 + _PHILOX_W[1]
            lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
            lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
        for w, word in enumerate((c0, c1, c2, c3)):
            dst = rows[lo : lo + per_block, w::4]
            np.multiply(word[:, : dst.shape[1]] >> 11, 2.0**-53, out=dst)
    return out


def run_generator(master_seed: int, run_index: int) -> np.random.Generator:
    """Fresh generator for one run's private stream: a new pool reset to it."""
    return StreamPool(master_seed).reset(StreamPool.key_words([int(run_index) & _MASK64])[0])


class StreamPool:
    """Reusable generator that can be re-keyed to any run's stream.

    Constructing a Philox/Generator pair per run costs ~10 us; resetting the
    state of a shared pair costs ~0.5-1 us (numpy 2.4, 2 vCPUs).  A draw of
    ``OracleSpec.randomness_block`` that ``philox_random`` does not compute
    resets one pool once per run; ``run_generator`` resets a new pool once.
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
        """The key word of each run index (``_key_array``), as plain ints."""
        return _key_array(run_indices).tolist()

    def reset(self, key_word: int) -> np.random.Generator:
        """Rewind the shared generator to the start of the stream whose run
        key word is ``key_word`` (one of ``key_words``)."""
        self._key[1] = key_word
        self._bitgen.state = self._state
        return self.generator
