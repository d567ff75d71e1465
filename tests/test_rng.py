import numpy as np

from ldplab.costs import pseudo_huber_cost
from ldplab.oracles import AdditiveOracle, SymmetrizedParetoNoise
from ldplab.rng import StreamPool, _splitmix64, _splitmix64_array


def test_splitmix64_array_equals_scalar():
    edges = [0, 1, 2**40 + 7, 2**63 - 1]
    indices = np.array(edges + list(range(2, 5000, 7)), dtype=np.int64)
    got = _splitmix64_array(indices)
    assert got.dtype == np.uint64
    assert got.tolist() == [_splitmix64(int(i)) for i in indices]
    # a negative int64 is its value mod 2^64, as the scalar's mask takes it
    assert _splitmix64_array(np.array([-1], dtype=np.int64)).tolist() == [_splitmix64(2**64 - 1)]


def test_randomness_block_resets_once_per_run(monkeypatch):
    resets = []
    real_reset = StreamPool.reset

    def counting_reset(self, key_word):
        resets.append(key_word)
        return real_reset(self, key_word)

    monkeypatch.setattr(StreamPool, "reset", counting_reset)
    cost = pseudo_huber_cost(1.0, 3)
    oracle = AdditiveOracle(cost=cost, noise=SymmetrizedParetoNoise(x_m=0.5, tail_index=2.0, moment_order=1.5, dim=3))
    runs = [4, 9, 2**40 + 7]
    oracle.randomness_block(1, runs, 5)
    assert resets == [_splitmix64(run) for run in runs]
    # with no steps nothing is drawn, so no stream is reset
    assert oracle.randomness_block(1, runs, 0).shape == (0, 3, len(runs))
    assert len(resets) == len(runs)
