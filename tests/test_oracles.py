import math

import numpy as np
import pytest

from ldplab.costs import huber_cost, synthetic_logistic_cost
from ldplab.oracles import (
    AdditiveOracle,
    BatchSubsampleOracle,
    GaussianNoise,
    PreconditionViolation,
    SphereNoise,
    SymmetrizedParetoNoise,
    TwoPointNoise,
    clip_rows,
    clipping_bias_probe,
    make_noise,
)
from ldplab.rng import run_generator


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

    def test_pareto_requires_finite_moment(self):
        with pytest.raises(ValueError):
            SymmetrizedParetoNoise(x_m=1.0, tail_index=1.4, moment_order=1.5, dim=2)

    def test_make_noise_unknown_kind(self):
        with pytest.raises(ValueError):
            make_noise("cauchy", dim=2)

    @pytest.mark.parametrize(
        "model",
        [
            SphereNoise(radius=1.0, dim=3),
            TwoPointNoise(v=np.array([0.5, 0.5])),
            SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=3),
            GaussianNoise(scale=0.8, dim=3),
        ],
        ids=lambda m: m.kind,
    )
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


class TestQuery:
    def test_noiseless_oracle_returns_gradient(self):
        cost = huber_cost(1.0, 2)
        oracle = AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.0, dim=2))
        x = np.array([0.3, -0.2])
        np.testing.assert_array_equal(oracle.query_block(x, run_generator(0, 0), 1)[0], cost.gradient(x))

    def test_solvable_instance_outputs(self):
        # inside the ball: g = x + z with z = +/- x1
        cost = huber_cost(1.0, 2)
        x1 = np.array([0.6, 0.0])
        oracle = AdditiveOracle(cost=cost, noise=TwoPointNoise(v=x1))
        x = np.array([0.2, 0.1])
        outs = oracle.query_block(x, run_generator(1, 0), 500)
        expected = {tuple(x + x1), tuple(x - x1)}
        assert set(map(tuple, outs)) <= expected

    def test_dimension_mismatch(self):
        cost = huber_cost(1.0, 2)
        oracle = AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.1, dim=2))
        with pytest.raises(ValueError):
            oracle.query_block(np.zeros(3), run_generator(0, 0), 1)

    def test_noise_cost_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AdditiveOracle(cost=huber_cost(1.0, 2), noise=SphereNoise(radius=0.1, dim=3))

    def test_batch_m2_uniform_over_singletons(self):
        cost = synthetic_logistic_cost(m=2, dim=2, seed=3)
        oracle = BatchSubsampleOracle(cost=cost, batch_size=1)
        x = np.array([0.4, -0.1])
        per_sample = cost.per_sample_gradients(x)
        outs = oracle.query_block(x, run_generator(2, 0), 10**5)
        freq0 = np.mean(np.all(np.isclose(outs, per_sample[0]), axis=1))
        freq1 = np.mean(np.all(np.isclose(outs, per_sample[1]), axis=1))
        assert freq0 + freq1 == pytest.approx(1.0)
        assert abs(freq0 - 0.5) <= 0.01

    def test_batch_size_must_be_proper_subset(self):
        cost = synthetic_logistic_cost(m=4, dim=2, seed=3)
        with pytest.raises(ValueError):
            BatchSubsampleOracle(cost=cost, batch_size=4)
        with pytest.raises(ValueError):
            BatchSubsampleOracle(cost=cost, batch_size=0)

    def test_batch_oracle_unbiased(self):
        cost = synthetic_logistic_cost(m=16, dim=3, seed=8)
        oracle = BatchSubsampleOracle(cost=cost, batch_size=4)
        x = np.array([0.5, -0.7, 0.2])
        n = 10**6
        outs = oracle.query_block(x, run_generator(3, 0), n)
        se = outs.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(outs.mean(axis=0) - cost.gradient(x)) <= 5.0 * np.maximum(se, 1e-15))

    def test_batch_hard_noise_bound(self):
        cost = synthetic_logistic_cost(m=12, dim=3, seed=8)
        oracle = BatchSubsampleOracle(cost=cost, batch_size=3)
        rng = run_generator(4, 0)
        for x in 3.0 * np.random.default_rng(5).standard_normal((5, 3)):
            outs = oracle.query_block(x, rng, 2000)
            dev = np.linalg.norm(outs - cost.gradient(x), axis=1)
            assert np.all(dev <= oracle.noise_bound())


class TestClippingBiasProbe:
    def _oracle(self, noise):
        return AdditiveOracle(cost=huber_cost(50.0, 2), noise=noise)

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
        oracle = self._oracle(SphereNoise(radius=1.0, dim=2))
        with pytest.raises(ValueError):
            clipping_bias_probe(oracle, np.zeros(2), 4.0, 10**4, run_generator(0, 4))


def test_clip_rows_scales_rows_above_threshold():
    g = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
    out = clip_rows(g, 1.0)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], g[1])
    np.testing.assert_array_equal(out[2], [0.0, 0.0])
