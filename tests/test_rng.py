import numpy as np
import pytest

from ldplab import rng
from ldplab.costs import HuberCost, PseudoHuberCost
from ldplab.oracles import AdditiveOracle, SymmetrizedParetoNoise, TwoPointNoise
from ldplab.rng import PHILOX_SLAB_WORDS, StreamPool, _splitmix64, philox_random, run_generator

_MASK64 = (1 << 64) - 1
_EDGES = [0, 2**63, 2**64 - 1, -1, 10**30]


def reference_splitmix64(x: int) -> int:
    """One round of SplitMix64 on Python ints, as its authors write it."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _numpy_philox(seed, i) -> np.random.Generator:
    """numpy's Philox of run i of seed s, keyed by the reference SplitMix64."""
    key = [reference_splitmix64(seed & _MASK64), reference_splitmix64(i & _MASK64)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@pytest.mark.parametrize("seed", _EDGES)
def test_run_generator_is_the_philox_of_its_key(seed):
    # run i of seed s draws from Philox key (SM(s mod 2^64), SM(i mod 2^64))
    for i in _EDGES:
        want = _numpy_philox(seed, i)
        got = run_generator(seed, i)
        assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
        assert got.random(3).tobytes() == want.random(3).tobytes()


@pytest.mark.parametrize("seed", _EDGES)
def test_philox_random_gives_numpys_bits(seed):
    # every length up to the word limit and past it, multiples of 4 or not
    runs = np.array([i & _MASK64 for i in _EDGES], dtype=np.uint64)
    for n in range(PHILOX_SLAB_WORDS + 6):
        out = philox_random(seed, runs, np.empty((runs.size, n)))
        for row, run in zip(out, _EDGES):
            assert row.tobytes() == _numpy_philox(seed, run).random(n).tobytes(), (run, n)
    # a row of any shape is filled in C order, as Generator.random fills it
    out = philox_random(seed, runs, np.empty((runs.size, 5, 3)))
    for row, run in zip(out, _EDGES):
        assert row.tobytes() == _numpy_philox(seed, run).random((5, 3)).tobytes()


@pytest.mark.parametrize("n", [1, 15, PHILOX_SLAB_WORDS])
def test_philox_random_across_cache_blocks(n, monkeypatch):
    # a run set that starts and ends inside a block of _PHILOX_BLOCK counters,
    # at the real block size and at blocks of 3 runs
    n_ctr = -(-n // 4)
    real_block = rng._PHILOX_BLOCK
    for runs in (np.arange(5, 5 + real_block // n_ctr + 7), np.array([3, 7, 8, 1 << 40, 20, 3, 2**63 - 1, -1])):
        want = np.array([run_generator(9, int(i)).random(n) for i in runs])
        for block in (real_block, 3 * n_ctr):
            monkeypatch.setattr(rng, "_PHILOX_BLOCK", block)
            assert philox_random(9, runs, np.empty((runs.size, n))).tobytes() == want.tobytes()


def test_randomness_block_resets_once_per_run(monkeypatch):
    resets = []
    real_reset = StreamPool.reset

    def counting_reset(self, key_word):
        resets.append(key_word)
        return real_reset(self, key_word)

    monkeypatch.setattr(StreamPool, "reset", counting_reset)
    cost = PseudoHuberCost(1.0, 3)
    oracle = AdditiveOracle(cost=cost, noise=SymmetrizedParetoNoise(x_m=0.5, tail_index=2.0, moment_order=1.5, dim=3))
    runs = [4, 9, 2**40 + 7]
    oracle.randomness_block(1, runs, 5)
    assert resets == _splitmix64(np.array(runs, dtype=np.uint64)).tolist()
    # with no steps nothing is drawn, so no stream is reset
    assert oracle.randomness_block(1, runs, 0).shape == (0, 3, len(runs))
    assert len(resets) == len(runs)
    # a two-point draw of at most PHILOX_SLAB_WORDS uniforms per run resets
    # no stream; one step more resets each run's once
    two_point = AdditiveOracle(cost=HuberCost(1.0, 2), noise=TwoPointNoise(v=np.array([0.6, 0.0])))
    resets.clear()
    two_point.randomness_block(1, runs, PHILOX_SLAB_WORDS)
    assert resets == []
    two_point.randomness_block(1, runs, PHILOX_SLAB_WORDS + 1)
    assert resets == _splitmix64(np.array(runs, dtype=np.uint64)).tolist()
