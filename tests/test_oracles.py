import math
import tracemalloc

import numpy as np
import pytest

from ldplab import oracles
from ldplab.costs import HuberCost, synthetic_logistic_cost
from ldplab.oracles import (
    AdditiveOracle,
    BatchSubsampleOracle,
    GaussianNoise,
    PreconditionViolation,
    SphereNoise,
    SymmetrizedParetoNoise,
    TwoPointNoise,
    _MGF_BLOCK_ROWS,
    _PROBE_CHUNK,
    _SCALE_MULTIPLIERS,
    _SUM_BLOCK_ROWS,
    _mgf_grid_moments,
    _row_sums,
    clip_rows,
    clipping_bias_probe,
)
from ldplab.rng import PHILOX_SLAB_WORDS, run_generator


_NOISE_MODELS = [
    SphereNoise(radius=1.0, dim=3),
    TwoPointNoise(v=np.array([0.5, 0.5])),
    SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=3),
    GaussianNoise(scale=0.8, dim=3),
]


class TestNoiseModels:
    def test_two_point_atoms(self):
        m = TwoPointNoise(v=np.array([1.0, 0.0]))
        z = m.sample_block(run_generator(0, 0), 2000)
        assert set(map(tuple, z)) <= {(1.0, 0.0), (-1.0, 0.0)}
        # both atoms occur
        assert 0 < np.sum(z[:, 0] > 0) < 2000

    def test_sphere_degenerate_radius(self):
        m = SphereNoise(radius=0.0, dim=3)
        z = m.sample_block(run_generator(0, 1), 100)
        np.testing.assert_array_equal(z, np.zeros((100, 3)))

    def test_sphere_exact_norm(self):
        m = SphereNoise(radius=2.5, dim=4)
        z = m.sample_block(run_generator(0, 2), 5000)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 2.5, rtol=1e-12)

    def test_pareto_radii_at_least_xm(self):
        m = SymmetrizedParetoNoise(x_m=1.5, tail_index=3.0, moment_order=1.5, dim=2)
        z = m.sample_block(run_generator(0, 3), 5000)
        assert np.all(np.linalg.norm(z, axis=1) >= 1.5 - 1e-12)

    def test_pareto_radii_follow_their_law(self):
        # two-sided, unlike a moment bound: the radii's empirical CDF lies in
        # the DKW band of F(r) = 1 - (x_m / r)^a at delta = 1e-6, 0.0105 wide
        m = SymmetrizedParetoNoise(x_m=0.5, tail_index=2.0, moment_order=1.5, dim=4)
        n = 2**16
        r = np.sort(np.linalg.norm(m.sample_block(run_generator(7, 0), n), axis=1))
        cdf = np.clip(1.0 - (0.5 / r) ** 2.0, 0.0, 1.0)
        above = np.arange(1, n + 1) / n - cdf
        assert max(above.max(), (cdf - np.arange(n) / n).max()) <= math.sqrt(math.log(2.0 / 1e-6) / (2 * n))

    def test_pareto_requires_finite_moment(self):
        with pytest.raises(ValueError):
            SymmetrizedParetoNoise(x_m=1.0, tail_index=1.4, moment_order=1.5, dim=2)

    @pytest.mark.parametrize("model", _NOISE_MODELS, ids=lambda m: m.kind)
    def test_unbiasedness(self, model):
        n = 10**6
        z = model.sample_block(run_generator(99, 0), n)
        mean = z.mean(axis=0)
        se = z.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(mean) <= 5.0 * np.maximum(se, 1e-15))

    def test_fixed_size_block_reproducible(self):
        # the same size from the same stream position gives the same block
        model = SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=2)
        a = model.sample_block(run_generator(4, 7), 5)
        b = model.sample_block(run_generator(4, 7), 5)
        np.testing.assert_array_equal(a, b)


# run sets of randomness_block: a gap, a run past 2^32 and a repeat; a shuffled order
_RUN_SETS = (np.array([3, 7, 8, 1 << 40, 20, 3]), np.random.default_rng(0).permutation(13))


def _block_in_slabs_of_4(oracle, seed, runs, n_steps, monkeypatch):
    """randomness_block with slabs of 4 runs, so that no run set above is slab-aligned."""
    monkeypatch.setattr(oracles, "_SLAB_RAW_BYTES", 4 * 8 * n_steps * sum(oracle.raw_widths()))
    return oracle.randomness_block(seed, runs, n_steps)


class TestRawDrawAndTransform:
    # column i of randomness_block is the block that run_indices[i] draws
    # alone from a fresh generator of its stream, whatever the slabs and order

    # a uniform-only draw of at most PHILOX_SLAB_WORDS words per run is one
    # philox_random per slab, and one step more a pool reset per run: the
    # two-point noise's 1 and the batch oracle's 12 uniforms per step fill
    # the limit at PHILOX_SLAB_WORDS and PHILOX_SLAB_WORDS // 12 steps

    @pytest.mark.parametrize("model", _NOISE_MODELS, ids=lambda m: m.kind)
    def test_slab_rows_equal_single_run_blocks(self, model, monkeypatch):
        oracle = AdditiveOracle(cost=HuberCost(1.0, model.dim), noise=model)
        for n_steps in (9, PHILOX_SLAB_WORDS, PHILOX_SLAB_WORDS + 1):
            for runs in _RUN_SETS:
                block = _block_in_slabs_of_4(oracle, 11, runs, n_steps, monkeypatch)
                assert block.shape == (n_steps, model.dim, runs.size)
                for i, run in enumerate(runs):
                    want = model.sample_block(run_generator(11, int(run)), n_steps)
                    np.testing.assert_array_equal(block[..., i], want)
        assert oracle.randomness_block(11, [], 9).shape == (9, model.dim, 0)

    def test_batch_slab_rows_equal_single_run_draws(self, monkeypatch):
        cost = synthetic_logistic_cost(m=12, dim=3, dataset_seed=8)
        oracle = BatchSubsampleOracle(cost=cost, batch_size=4)
        for n_steps in (7, PHILOX_SLAB_WORDS // 12, PHILOX_SLAB_WORDS // 12 + 1):
            for runs in _RUN_SETS:
                block = _block_in_slabs_of_4(oracle, 3, runs, n_steps, monkeypatch)
                assert block.shape == (n_steps, 4, runs.size)
                for i, run in enumerate(runs):
                    u = run_generator(3, int(run)).random((n_steps, 12))
                    np.testing.assert_array_equal(block[..., i], np.argsort(u, axis=1)[:, :4])
        empty = oracle.randomness_block(3, [], 7)
        assert empty.shape == (7, 4, 0) and empty.dtype == np.intp


def test_short_two_point_draw_holds_at_most_1_mib_of_philox_scratch(monkeypatch):
    # appendix-f's draw for one 2^14-run chunk: 15 steps, one slab
    oracle = AdditiveOracle(cost=HuberCost(1.0, 2), noise=TwoPointNoise(v=np.array([0.6, 0.0])))
    runs, n_steps = np.arange(1 << 14), 15
    scratch = []
    real_philox = oracles.philox_random

    def measured_philox(seed, run_indices, out):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real_philox(seed, run_indices, out)
        scratch.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(oracles, "philox_random", measured_philox)
    raw = np.zeros((runs.size, n_steps, 1))
    tracemalloc.start()
    try:
        oracle.transform(raw[..., :0], raw)
        transform_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        block = oracle.randomness_block(0, runs, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scratch) == 1 and scratch[0] <= 1 << 20, scratch
    # the block, the slab's raw buffer and its transform, and the Philox scratch
    assert peak <= block.nbytes + raw.nbytes + transform_peak + (1 << 20), (peak, block.nbytes, transform_peak)


class TestCertifyMoment:
    def test_two_point_unit_norm(self):
        assert TwoPointNoise(v=np.array([1.0, 0.0])).moment_bound(2.0) == pytest.approx(1.0)

    def test_sphere(self):
        assert SphereNoise(radius=2.0, dim=2).moment_bound(1.5) == pytest.approx(2.0**1.5)

    def test_pareto_closed_form_and_mc(self):
        # a x_m^p / (a - p): (3, 1, 1.5) -> 2 and p=2 -> 3
        m = SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=1)
        assert m.moment_bound(1.5) == pytest.approx(2.0)
        assert m.moment_bound(2.0) == pytest.approx(3.0)
        n = 10**6
        r = np.linalg.norm(m.sample_block(run_generator(5, 0), n), axis=1)
        vals = r**1.5
        assert vals.mean() <= 2.0 * (1.0 + 5.0 * vals.std() / (vals.mean() * math.sqrt(n)))

    def test_infinite_moment_rejected(self):
        m = SymmetrizedParetoNoise(x_m=1.0, tail_index=2.1, moment_order=2.0, dim=1)
        with pytest.raises(ValueError):
            m.moment_bound(2.5)

    def test_gaussian_chi_moment(self):
        m = GaussianNoise(scale=1.0, dim=2)
        # 2d: E||z||^2 = 2
        assert m.moment_bound(2.0) == pytest.approx(2.0)


def _outputs(oracle, x, rng, n):
    """The blocks of ``oracle.output_blocks(x, rng, n)`` in one (n, dim) array."""
    blocks = list(oracle.output_blocks(x, rng, n))
    assert [lo for lo, _ in blocks] == list(np.cumsum([0] + [len(b) for _, b in blocks[:-1]]))
    return np.concatenate([b for _, b in blocks])


class TestQuery:
    def test_noiseless_oracle_returns_gradient(self):
        cost = HuberCost(1.0, 2)
        oracle = AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.0, dim=2))
        x = np.array([0.3, -0.2])
        np.testing.assert_array_equal(_outputs(oracle, x, run_generator(0, 0), 1)[0], cost.gradient(x))

    def test_solvable_instance_outputs(self):
        # inside the ball: g = x + z with z = +/- x1
        cost = HuberCost(1.0, 2)
        x1 = np.array([0.6, 0.0])
        oracle = AdditiveOracle(cost=cost, noise=TwoPointNoise(v=x1))
        x = np.array([0.2, 0.1])
        outs = _outputs(oracle, x, run_generator(1, 0), 500)
        expected = {tuple(x + x1), tuple(x - x1)}
        assert set(map(tuple, outs)) <= expected

    def test_dimension_mismatch(self):
        cost = HuberCost(1.0, 2)
        oracle = AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.1, dim=2))
        with pytest.raises(ValueError):
            oracle.output_blocks(np.zeros(3), run_generator(0, 0), 1)

    def test_noise_cost_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AdditiveOracle(cost=HuberCost(1.0, 2), noise=SphereNoise(radius=0.1, dim=3))

    def test_batch_m2_uniform_over_singletons(self):
        cost = synthetic_logistic_cost(m=2, dim=2, dataset_seed=3)
        oracle = BatchSubsampleOracle(cost=cost, batch_size=1)
        x = np.array([0.4, -0.1])
        per_sample = cost.per_sample_gradients(x)
        outs = _outputs(oracle, x, run_generator(2, 0), 10**5)
        freq0 = np.mean(np.all(np.isclose(outs, per_sample[0]), axis=1))
        freq1 = np.mean(np.all(np.isclose(outs, per_sample[1]), axis=1))
        assert freq0 + freq1 == pytest.approx(1.0)
        assert abs(freq0 - 0.5) <= 0.01

    @pytest.mark.parametrize("mode", ["additive-noise", "batch-subsample"])
    def test_output_blocks_draw_in_chunks(self, mode, monkeypatch):
        # n spanning two chunks: each chunk draws its normals, then its uniforms
        monkeypatch.setattr(oracles, "_PROBE_CHUNK", 100)
        x = np.array([0.4, -0.1, 0.3])
        if mode == "additive-noise":
            noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=3)
            oracle = AdditiveOracle(cost=HuberCost(1.0, 3), noise=noise)

            def chunk(rng, k):
                return oracle.cost.gradient(x) + noise.sample_block(rng, k)
        else:
            cost = synthetic_logistic_cost(m=12, dim=3, dataset_seed=8)
            oracle = BatchSubsampleOracle(cost=cost, batch_size=4)

            def chunk(rng, k):
                subsets = np.argsort(rng.random((k, 12)), axis=1)[:, :4]
                return cost.per_sample_gradients(x)[subsets].mean(axis=1)

        got = _outputs(oracle, x, run_generator(6, 0), 150)
        rng = run_generator(6, 0)
        np.testing.assert_array_equal(got, np.concatenate([chunk(rng, 100), chunk(rng, 50)]))
        if mode == "additive-noise":  # one draw of 150 takes the uniforms later in the stream
            assert not np.array_equal(got, chunk(run_generator(6, 0), 150))

    @pytest.mark.parametrize("mode", ["additive-noise", "batch-subsample"])
    def test_outputs_in_row_sub_blocks_equal_one_block(self, mode, monkeypatch):
        # sub-blocks of 3 rows, the last of a 100-query chunk a single row,
        # against each chunk transformed whole
        monkeypatch.setattr(oracles, "_PROBE_CHUNK", 100)
        x = np.array([0.4, -0.1, 0.3])
        if mode == "additive-noise":
            noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=3)
            oracle = AdditiveOracle(cost=HuberCost(1.0, 3), noise=noise)
        else:
            oracle = BatchSubsampleOracle(cost=synthetic_logistic_cost(m=12, dim=3, dataset_seed=8), batch_size=4)
        whole = _outputs(oracle, x, run_generator(6, 1), 250)
        monkeypatch.setattr(oracles, "_OUTPUT_BLOCK_BYTES", 3 * 8 * sum(oracle.raw_widths()))
        blocks = list(oracle.output_blocks(x, run_generator(6, 1), 250))
        assert [lo for lo, _ in blocks][:3] == [0, 3, 6] and blocks[33][0] == 99
        assert np.concatenate([b for _, b in blocks]).tobytes() == whole.tobytes()

    def test_batch_outputs_drawn_by_sub_block_equal_one_draw(self, monkeypatch):
        # the batch oracle draws uniforms only, so it draws a sub-block of 5
        # rows at a time, not a whole chunk, and its outputs are one draw's
        monkeypatch.setattr(oracles, "_OUTPUT_BLOCK_BYTES", 5 * 8 * 12)
        oracle = BatchSubsampleOracle(cost=synthetic_logistic_cost(m=12, dim=3, dataset_seed=8), batch_size=4)
        x = np.array([0.4, -0.1, 0.3])
        raw_draw, sizes = oracles._raw_draw, []

        def counting_draw(rng, widths, n):
            sizes.append(n)
            return raw_draw(rng, widths, n)

        monkeypatch.setattr(oracles, "_raw_draw", counting_draw)
        got = _outputs(oracle, x, run_generator(6, 2), 23)
        assert sizes == [5, 5, 5, 5, 3]
        want = oracle.outputs_at(x, oracle.transform(*raw_draw(run_generator(6, 2), oracle.raw_widths(), 23)))
        assert got.tobytes() == want.tobytes()

    def test_batch_size_must_be_proper_subset(self):
        cost = synthetic_logistic_cost(m=4, dim=2, dataset_seed=3)
        with pytest.raises(ValueError):
            BatchSubsampleOracle(cost=cost, batch_size=4)
        with pytest.raises(ValueError):
            BatchSubsampleOracle(cost=cost, batch_size=0)

    def test_batch_oracle_unbiased(self):
        cost = synthetic_logistic_cost(m=16, dim=3, dataset_seed=8)
        oracle = BatchSubsampleOracle(cost=cost, batch_size=4)
        x = np.array([0.5, -0.7, 0.2])
        n = 10**6
        outs = _outputs(oracle, x, run_generator(3, 0), n)
        se = outs.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(outs.mean(axis=0) - cost.gradient(x)) <= 5.0 * np.maximum(se, 1e-15))

    def test_batch_hard_noise_bound(self):
        cost = synthetic_logistic_cost(m=12, dim=3, dataset_seed=8)
        oracle = BatchSubsampleOracle(cost=cost, batch_size=3)
        rng = run_generator(4, 0)
        for x in 3.0 * np.random.default_rng(5).standard_normal((5, 3)):
            outs = _outputs(oracle, x, rng, 2000)
            dev = np.linalg.norm(outs - cost.gradient(x), axis=1)
            assert np.all(dev <= oracle.noise_constants()["M"])


@pytest.mark.parametrize("model", [m for m in _NOISE_MODELS if min(m.raw_widths()) == 0], ids=lambda m: m.kind)
@pytest.mark.parametrize("chunk", [100, _PROBE_CHUNK])
def test_sample_chunks_equal_one_sample_block(model, chunk, monkeypatch):
    # a noise that draws one kind of variate continues its stream across
    # draws, so chunks of it are one sample_block bit for bit
    monkeypatch.setattr(oracles, "_OUTPUT_BLOCK_BYTES", chunk * 8 * sum(model.raw_widths()))
    n = 2 * chunk + 3
    chunks = list(model.sample_chunks(run_generator(12, 0), n))
    assert [lo for lo, _ in chunks] == [0, chunk, 2 * chunk]
    whole = model.sample_block(run_generator(12, 0), n)
    assert np.concatenate([z for _, z in chunks]).tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "oracle",
    [AdditiveOracle(cost=HuberCost(1.0, m.dim), noise=m) for m in _NOISE_MODELS]
    + [BatchSubsampleOracle(cost=synthetic_logistic_cost(m=12, dim=3, dataset_seed=8), batch_size=4)],
    ids=[m.kind for m in _NOISE_MODELS] + ["batch-subsample"],
)
def test_raw_blocks_give_the_same_outputs_at_any_block_size(oracle, monkeypatch):
    # 250 queries span three draws of a 100-query chunk; blocks of 1 and 7
    # rows give the outputs of the default blocks, bit for bit
    monkeypatch.setattr(oracles, "_PROBE_CHUNK", 100)
    x = np.linspace(0.1, 0.4, oracle.cost.dim)
    want = _outputs(oracle, x, run_generator(9, 0), 250)
    assert want.shape == (250, oracle.cost.dim)
    for rows in (1, 7):
        monkeypatch.setattr(oracles, "_OUTPUT_BLOCK_BYTES", rows * 8 * sum(oracle.raw_widths()))
        blocks = list(oracles._raw_blocks(run_generator(9, 0), oracle.raw_widths(), 250))
        assert max(len(normals) for _, (normals, _) in blocks) == rows
        assert _outputs(oracle, x, run_generator(9, 0), 250).tobytes() == want.tobytes(), rows


def test_sample_chunks_reject_a_noise_of_two_widths():
    # a Pareto draw takes every normal before any uniform
    pareto = SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=2)
    with pytest.raises(ValueError, match="symmetrized-pareto noise draws normals and uniforms"):
        pareto.sample_chunks(run_generator(0, 0), 10)


class TestClippingBiasProbe:
    def _oracle(self, noise):
        return AdditiveOracle(cost=HuberCost(50.0, 2), noise=noise)

    def test_noiseless_zero_bias(self):
        oracle = self._oracle(SphereNoise(radius=0.0, dim=2))
        probe = clipping_bias_probe(oracle, np.array([1.0, 0.0]), 4.0, 10**5, run_generator(0, 0))
        assert probe.bias_norm_estimate == pytest.approx(0.0, abs=1e-14)

    def test_two_point_inside_threshold_zero_bias(self):
        # both atoms stay below gamma, so clipping is inactive and the true
        # bias is exactly zero; the estimate carries only sampling noise
        oracle = self._oracle(TwoPointNoise(v=np.array([0.5, 0.0])))
        probe = clipping_bias_probe(oracle, np.array([1.0, 0.0]), 4.0, 10**5, run_generator(0, 1))
        assert probe.bias_norm_estimate <= 5.0 * probe.bias_se

    def test_pareto_bias_below_bound(self):
        noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=2)
        probe = clipping_bias_probe(
            self._oracle(noise), np.zeros(2), 8.0, 2 * 10**5, run_generator(0, 2)
        )
        assert probe.bias_bound == pytest.approx(4.0 * 2.0 * 8.0**-0.5)
        assert probe.bias_norm_estimate <= probe.bias_bound + 5.0 * probe.bias_se

    def test_pareto_bias_wider_threshold(self):
        # sigma^p = 2 at p = 1.5, gamma = 16: bound 4*2*16^(-1/2) = 2
        noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=2)
        probe = clipping_bias_probe(
            self._oracle(noise), np.zeros(2), 16.0, 10**5, run_generator(0, 9)
        )
        assert probe.bias_bound == pytest.approx(2.0)
        assert probe.bias_norm_estimate <= probe.bias_bound + 5.0 * probe.bias_se

    def test_precondition_violation(self):
        oracle = self._oracle(SphereNoise(radius=1.0, dim=2))
        with pytest.raises(PreconditionViolation):
            clipping_bias_probe(oracle, np.array([3.0, 0.0]), 4.0, 10**5, run_generator(0, 3))

    def test_sample_floor(self):
        # a count is an integer: 1e5 used to pass a hand-written floor and die in np.empty with a TypeError
        oracle = self._oracle(SphereNoise(radius=1.0, dim=2))
        for n in (10**4, 10**5 - 1, 1e5, True):
            with pytest.raises(ValueError, match=f"^num_samples must be an integer >= 100000, got {n!r}$"):
                clipping_bias_probe(oracle, np.zeros(2), 4.0, n, run_generator(0, 4))

    def test_bias_only_probe_matches_full_probe(self):
        # an empty grid still draws the directions first, so the samples, and
        # with them the bias fields, are the full probe's bit for bit
        noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=2.0, moment_order=1.5, dim=2)
        oracle = self._oracle(noise)
        x = np.array([1.0, 0.0])
        full = clipping_bias_probe(oracle, x, 4.0, 10**5, run_generator(0, 5))
        bias = clipping_bias_probe(oracle, x, 4.0, 10**5, run_generator(0, 5), scale_multipliers=())
        assert full.margins.shape == (8, len(_SCALE_MULTIPLIERS))
        for name in ("bias_norm_estimate", "bias_se", "bias_bound"):
            assert getattr(bias, name) == getattr(full, name)
        assert bias.margins.shape == bias.margin_ses.shape == (8, 0)

    def test_memory_grows_by_one_clipped_row_per_sample(self):
        # the probe holds only its (n, 2) clipped outputs, 16 bytes a sample;
        # an (n, 8) projection and full-size draws took about 90
        noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=1.7, moment_order=1.2, dim=2)
        oracle = self._oracle(noise)
        peak = {}
        for n in (10**5, 4 * 10**5):
            tracemalloc.start()
            try:
                clipping_bias_probe(oracle, np.zeros(2), 2.0, n, run_generator(0, 6))
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak[4 * 10**5] - peak[10**5]) / (3 * 10**5) <= 24, peak


class TestMgfGridMoments:
    # n = 1, and n = 0, 1, 2 and -1 mod the block: a last block of
    # one row would go through BLAS's matrix-vector path, whose bits differ
    @pytest.mark.parametrize(
        "n",
        [1, _MGF_BLOCK_ROWS - 1, _MGF_BLOCK_ROWS, _MGF_BLOCK_ROWS + 1, 10**5 + 3]
        + [8 * _MGF_BLOCK_ROWS + k for k in (-1, 0, 1, 2)],
    )
    def test_equals_numpy_mean_and_std_bitwise(self, n):
        # the clipped, centred Pareto output and its directions, as in the probe
        noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=1.7, moment_order=1.2, dim=2)
        rng = run_generator(7, n)
        dirs = rng.standard_normal((8, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        clipped, _ = clip_rows(noise.sample_block(rng, n), 2.0)
        rows = clipped - clipped.mean(axis=0)
        scales = np.asarray(_SCALE_MULTIPLIERS) / (2.0 * 2.0)
        mean, std = _mgf_grid_moments(rows, dirs, scales)
        assert mean.shape == std.shape == (len(scales), 8)
        proj = rows @ dirs.T  # the (n, 8) product in one piece
        for j, s in enumerate(scales):
            vals = np.exp(s * proj)
            assert np.array_equal(mean[j], vals.mean(axis=0))
            assert np.array_equal(std[j], vals.std(axis=0))

    def test_axis0_sum_of_contiguous_block_is_sequential(self):
        # _mgf_grid_moments is bit-exact only because numpy adds the rows of a
        # C-contiguous (m, k, d) block in order; a numpy that reorders this
        # reduction must fail here, not only in the benchmark's byte gate
        rng = np.random.default_rng(11)
        block = rng.standard_normal((_MGF_BLOCK_ROWS + 1, 6, 8))
        block *= 10.0 ** rng.integers(-6, 7, block.shape)
        forward = block[0].copy()
        for row in block[1:]:
            forward = forward + row
        backward = block[-1].copy()
        for row in block[-2::-1]:
            backward = backward + row
        assert not np.array_equal(forward, backward)  # the data can tell orders apart
        assert np.array_equal(block.sum(axis=0), forward)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, _SUM_BLOCK_ROWS - 1, _SUM_BLOCK_ROWS, _SUM_BLOCK_ROWS + 1, 10**5 + 3])
def test_row_sums_equal_numpy_mean_and_var_bitwise(n, d):
    # the clipped Pareto output the probe reduces, over twelve decades
    noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=1.7, moment_order=1.2, dim=d)
    rng = run_generator(5, n)
    clipped = clip_rows(noise.sample_block(rng, n), 2.0)[0] * 10.0 ** rng.integers(-6, 7, (n, d))
    mean = _row_sums(clipped) / n
    assert mean.tobytes() == clipped.mean(axis=0).tobytes()
    assert (_row_sums(clipped - mean, square=True) / n).tobytes() == clipped.var(axis=0).tobytes()
    # numpy starts its sum at +0.0, so a column of -0.0 sums to +0.0
    zeros = np.full((n, d), -0.0)
    assert _row_sums(zeros).tobytes() == zeros.sum(axis=0).tobytes()


def _clip_by_scale(g, gamma, axis=-1):
    """Clipping as one product with a scale of 1.0 for the rows not clipped,
    and the infinite-norm fix-up; clip_rows must give these bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.sum(np.moveaxis(g, axis, -1) ** 2, axis=-1))
        scale = np.ones_like(norms)
        over = norms > gamma
        scale[over] = gamma / norms[over]
        out = g * np.expand_dims(scale, axis)
    huge = np.isinf(norms)
    if np.any(huge):
        rows = np.moveaxis(g, axis, -1)[huge]
        rows = np.where(np.isinf(rows).any(axis=-1, keepdims=True), np.sign(rows) * np.isinf(rows), rows)
        unit = rows / np.abs(rows).max(axis=-1, keepdims=True)
        np.moveaxis(out, axis, -1)[huge] = unit * (gamma / np.sqrt(np.sum(unit * unit, axis=-1)))[:, None]
    return out, over


@pytest.mark.parametrize("d", [1, 2, 4, 9])
@pytest.mark.parametrize("gamma", [0.5, 3.0, 1e6])
def test_clip_rows_equals_the_scale_product_bit_for_bit(d, gamma):
    # clip_rows' bits are those of the product with a scale that is 1.0 on
    # the rows not clipped, rows of infinite norm, with NaN and with -0.0 included
    rng = np.random.default_rng(d)
    g = rng.standard_normal((5000, d)) * 10.0 ** rng.integers(-3, 4, (5000, 1))
    specials = np.array([np.inf, -np.inf, np.nan, 1e200, -0.0, 5e-324])
    mask = rng.random(g.shape) < 0.02
    g[mask] = rng.choice(specials, mask.sum())
    before = g.tobytes()
    want, want_over = _clip_by_scale(g, gamma)
    for axis, data in ((-1, g), (0, np.ascontiguousarray(g.T))):
        out, over = clip_rows(data, gamma, axis=axis)
        got = out if axis == -1 else out.T
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), axis
        np.testing.assert_array_equal(over, want_over)
    assert g.tobytes() == before  # the input is not changed
    assert 0 < want_over.sum() < len(g)


@pytest.mark.parametrize("d", [2, 4, 9])
def test_clip_rows_of_columns_equals_rows(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((4000, d)) * 10.0 ** rng.integers(-2, 3, (4000, 1))
    rows, over_rows = clip_rows(g, 1.5)
    cols, over_cols = clip_rows(np.ascontiguousarray(g.T), 1.5, axis=0)
    assert 0 < over_rows.sum() < g.shape[0]
    assert cols.T.tobytes() == rows.tobytes()
    np.testing.assert_array_equal(over_cols, over_rows)


def test_clip_rows_scales_rows_above_threshold():
    g = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
    out, over = clip_rows(g, 1.0)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], g[1])
    np.testing.assert_array_equal(out[2], [0.0, 0.0])
    np.testing.assert_array_equal(over, [True, False, False])


def test_clip_rows_points_infinite_rows_along_their_signs():
    # a row with infinite entries is clipped to norm gamma along their signs;
    # a row with a NaN entry is left as it is, and neither warns
    g = np.array([[np.inf, 0.0], [np.inf, -np.inf], [-np.inf, 5.0], [np.nan, 1.0], [np.nan, np.inf], [3.0, 4.0]])
    out, over = clip_rows(g, 2.0)
    r = math.sqrt(2.0)
    np.testing.assert_allclose(out[:3], [[2.0, 0.0], [r, -r], [-2.0, 0.0]], rtol=1e-15)
    assert out[3:5].tobytes() == g[3:5].tobytes()
    assert out[5].tobytes() == (g[5] * (2.0 / 5.0)).tobytes()
    np.testing.assert_array_equal(over, [True, True, True, False, False, True])
    cols, over_cols = clip_rows(np.ascontiguousarray(g.T), 2.0, axis=0)
    assert cols.T.tobytes() == out.tobytes()
    np.testing.assert_array_equal(over_cols, over)


def test_clip_rows_rescales_rows_whose_square_overflows():
    # ||(1e200, 0)||^2 is inf; such a finite row comes out with norm gamma,
    # not as zero, and rows with a finite squared norm keep their bits
    g = np.array([[1e200, 0.0], [3.0, 4.0], [-1e300, 1e300], [0.3, 0.4]])
    out, over = clip_rows(g, 2.0)
    np.testing.assert_allclose(out[0], [2.0, 0.0], rtol=1e-15)
    np.testing.assert_allclose(out[2], [-math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-15)
    assert out[1].tobytes() == (g[1] * (2.0 / 5.0)).tobytes()
    assert out[3].tobytes() == g[3].tobytes()
    np.testing.assert_array_equal(over, [True, True, True, False])
    cols, over_cols = clip_rows(np.ascontiguousarray(g.T), 2.0, axis=0)
    assert cols.T.tobytes() == out.tobytes()
    np.testing.assert_array_equal(over_cols, over)
