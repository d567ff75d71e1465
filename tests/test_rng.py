import numpy as np
import pytest

from ldplab.costs import PseudoHuberCost
from ldplab.oracles import AdditiveOracle, SymmetrizedParetoNoise
from ldplab.rng import StreamPool, _splitmix64, run_generator

_MASK64 = (1 << 64) - 1
_EDGES = [0, 2**63, 2**64 - 1, -1, 10**30]


def reference_splitmix64(x: int) -> int:
    """One round of SplitMix64 on Python ints, as its authors write it."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@pytest.mark.parametrize("seed", _EDGES)
def test_run_generator_is_the_philox_of_its_key(seed):
    # run i of seed s draws from Philox key (SM(s mod 2^64), SM(i mod 2^64))
    for i in _EDGES:
        key = np.array([reference_splitmix64(seed & _MASK64), reference_splitmix64(i & _MASK64)], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = run_generator(seed, i)
        assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
        assert got.random(3).tobytes() == want.random(3).tobytes()


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
