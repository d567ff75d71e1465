import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab.costs import (
    LogisticBatchCost,
    finite_difference_gradient,
    huber_cost,
    pseudo_huber_cost,
    sq_norms,
    synthetic_logistic_cost,
)
from ldplab.optimizers import ClipSpec, ScheduleSpec
from ldplab.oracles import BatchSubsampleOracle, GaussianNoise, SphereNoise, SymmetrizedParetoNoise, TwoPointNoise
from ldplab.theory import beta_exponent, sota_curves


def all_costs():
    return [
        huber_cost(1.0, 2),
        huber_cost(2.5, 3),
        pseudo_huber_cost(1.0, 2),
        pseudo_huber_cost(0.7, 4),
        synthetic_logistic_cost(m=16, dim=3, dataset_seed=11),
    ]


class TestHuber:
    def test_inner_branch(self):
        c = huber_cost(1.0, 2)
        assert c.value([0.5, 0.0]) == pytest.approx(0.125)
        np.testing.assert_allclose(c.gradient([0.5, 0.0]), [0.5, 0.0])

    def test_minimizer(self):
        c = huber_cost(1.0, 2)
        assert c.value([0.0, 0.0]) == 0.0
        np.testing.assert_array_equal(c.gradient([0.0, 0.0]), [0.0, 0.0])

    def test_outer_branch(self):
        # ||x|| = 5 > G = 1: value G||x|| - G^2/2, gradient G x/||x||
        c = huber_cost(1.0, 2)
        assert c.value([3.0, 4.0]) == pytest.approx(4.5)
        np.testing.assert_allclose(c.gradient([3.0, 4.0]), [0.6, 0.8])

    def test_constants(self):
        c = huber_cost(1.5, 2)
        assert c.smoothness_L == 2.0
        assert c.grad_bound_G == 1.5
        assert c.lower_bound_fstar == 0.0

    def test_gradient_continuous_across_boundary(self):
        c = huber_cost(1.0, 3)
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        inner = c.gradient(direction * (1.0 - 1e-9))
        outer = c.gradient(direction * (1.0 + 1e-9))
        assert np.linalg.norm(inner - outer) <= 1e-6

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            huber_cost(0.0, 2)
        with pytest.raises(ValueError):
            huber_cost(1.0, 0)


class TestPseudoHuber:
    def test_minimizer(self):
        c = pseudo_huber_cost(1.0, 3)
        assert c.value([0.0, 0.0, 0.0]) == 0.0
        np.testing.assert_array_equal(c.gradient([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])

    def test_closed_form_1d(self):
        c = pseudo_huber_cost(1.0, 1)
        assert c.value([1.0]) == pytest.approx(np.sqrt(2.0) - 1.0)
        assert c.gradient([1.0])[0] == pytest.approx(1.0 / np.sqrt(2.0))

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_gradient_strictly_inside_bound(self, coords):
        c = pseudo_huber_cost(1.0, 4)
        g = c.gradient(np.asarray(coords))
        assert np.linalg.norm(g) < c.grad_bound_G

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            pseudo_huber_cost(-1.0, 2)


class TestBatchLogistic:
    def test_single_sample_full_equals_per_sample(self):
        cost = LogisticBatchCost(features=np.array([[1.0, -2.0]]), labels=np.array([1.0]))
        x = np.array([0.3, 0.1])
        np.testing.assert_allclose(cost.gradient(x), cost.per_sample_gradients(x)[0])

    def test_full_gradient_is_mean_of_per_sample(self):
        rng = np.random.default_rng(3)
        records = [(rng.standard_normal(3), 1.0 if rng.random() < 0.5 else -1.0) for _ in range(4)]
        cost = LogisticBatchCost(
            features=np.array([phi for phi, _ in records]), labels=np.array([y for _, y in records])
        )
        x = rng.standard_normal(3)
        np.testing.assert_allclose(
            cost.gradient(x), cost.per_sample_gradients(x).mean(axis=0), rtol=1e-12
        )

    def test_per_sample_bound_on_grid(self):
        cost = synthetic_logistic_cost(m=8, dim=2, dataset_seed=5)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = 4.0 * rng.standard_normal(2)
            norms = np.linalg.norm(cost.per_sample_gradients(x), axis=1)
            assert np.all(norms <= cost.per_sample_grad_bound + 1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            LogisticBatchCost(features=np.empty((0, 2)), labels=np.empty(0))


@pytest.mark.parametrize("cost", all_costs(), ids=lambda c: c.name)
def test_gradient_matches_finite_differences(cost):
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = 3.0 * rng.standard_normal(cost.dim)
        fd = finite_difference_gradient(cost, x)
        g = np.asarray(cost.gradient(x))
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("cost", all_costs(), ids=lambda c: c.name)
def test_certified_bounds_hold_at_random_points(cost):
    rng = np.random.default_rng(1234)
    x = 10.0 * rng.standard_normal((1000, cost.dim))
    values = np.asarray(cost.value(x))
    grads = np.asarray(cost.gradient(x))
    assert np.all(values >= cost.lower_bound_fstar)
    assert np.all(np.linalg.norm(grads, axis=1) <= cost.grad_bound_G * (1 + 1e-12))


def test_batched_and_single_point_agree():
    cost = huber_cost(1.0, 2)
    pts = np.array([[0.1, 0.2], [3.0, 4.0], [0.0, 0.0]])
    batched_v = cost.value(pts)
    batched_g = cost.gradient(pts)
    for i, p in enumerate(pts):
        assert batched_v[i] == cost.value(p)
        np.testing.assert_array_equal(batched_g[i], cost.gradient(p))


def test_dimension_mismatch_rejected():
    cost = huber_cost(1.0, 2)
    with pytest.raises(ValueError):
        cost.value([1.0, 2.0, 3.0])


def _spread_rows(n, d, seed):
    # magnitudes over twelve decades, so that summation orders give different bits
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, (n, d))


class TestDimensionMajor:
    @pytest.mark.parametrize("d", [2, 4])
    def test_row_sum_of_contiguous_rows_is_sequential(self, d):
        # sq_norms adds the coordinates of columns in order, which is bit-exact
        # only because numpy adds each short row of a C-contiguous (n, d) array
        # in order; a numpy that reorders this reduction must fail here, not
        # only in the benchmark's byte gate
        a = _spread_rows(20000, d, 11)
        forward = a.T[0].copy()
        for row in a.T[1:]:
            forward = forward + row
        backward = a.T[-1].copy()
        for row in a.T[-2::-1]:
            backward = backward + row
        if d > 2:  # two terms add alike in either order
            assert not np.array_equal(forward, backward)  # the data can tell orders apart
        assert np.array_equal(np.sum(a, axis=1), forward)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_sq_norms_of_columns_equal_rows(self, d):
        # fewer than 8 coordinates are added one at a time over strided views,
        # more go through np.sum; either way the bits are numpy's row sums, for
        # any leading shape and for views that are not contiguous
        x = _spread_rows(6000, d, d)
        rows = np.sum(x * x, axis=-1)
        assert sq_norms(x).tobytes() == rows.tobytes()
        assert sq_norms(np.ascontiguousarray(x.T), axis=0).tobytes() == rows.tobytes()
        x3 = x.reshape(20, 300, d)
        for view in (x3, x[::3], x[:, ::-1], np.asfortranarray(x), x3[:, ::2], x3.transpose(1, 0, 2)):
            assert sq_norms(view).tobytes() == np.sum(view * view, axis=-1).tobytes()
        cols = np.ascontiguousarray(np.moveaxis(x3, -1, 0))  # (d, 20, 300)
        assert sq_norms(cols, axis=0).tobytes() == np.sum(x3 * x3, axis=-1).tobytes()
        assert sq_norms(x.T[:, ::2], axis=0).tobytes() == rows[::2].tobytes()
        assert sq_norms(x[0], axis=0) == sq_norms(x[0]) == rows[0]

    @pytest.mark.parametrize("cost", all_costs() + [huber_cost(1.0, 9)], ids=lambda c: f"{c.name}-{c.dim}")
    def test_gradient_of_columns_equals_rows(self, cost):
        # points inside and outside the Huber ball
        x = 2.0 * np.random.default_rng(6).standard_normal((3000, cost.dim))
        rows = cost.gradient(x)
        cols = cost.gradient(np.ascontiguousarray(x.T), axis=0)
        assert cols.shape == (cost.dim, 3000)
        assert cols.T.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: huber_cost(1.0, True), "dim must be an integer"),
        (lambda: huber_cost("3", 2), "threshold_G must be a finite number, got '3'"),
        (lambda: pseudo_huber_cost(float("inf"), 2), "scale must be a finite number"),
        (lambda: synthetic_logistic_cost(m=8, dim=2, dataset_seed=True), "dataset_seed must be an integer"),
        (lambda: SphereNoise(float("nan"), 2), "radius must be a finite number, got nan"),
        (lambda: TwoPointNoise([True, 0.0]), "v must be a finite number, got True"),
        (lambda: SymmetrizedParetoNoise(x_m=1e300, tail_index=2.0, moment_order=1.5, dim=2), "overflow"),
        (lambda: GaussianNoise(scale=1e300, dim=2), "overflow"),
        (lambda: BatchSubsampleOracle(synthetic_logistic_cost(8, 2, 1), batch_size=True), "batch_size must be"),
        (lambda: ScheduleSpec("csgd-power", "1.5"), "p must be a finite number, got '1.5'"),
        (lambda: ClipSpec("constant", 2.0, p=1.5), "does not read p"),
        (lambda: ClipSpec("general-C", float("nan"), p=1.5), "C must be a finite number"),
        (lambda: sota_curves("liu-sgd", B="0.6"), "B must be a finite number, got '0.6'"),
        (lambda: beta_exponent(True), "p must be a finite number"),
    ],
    ids=["huber-dim-bool", "huber-threshold-string", "pseudo-huber-scale-inf", "logistic-seed-bool",
         "sphere-radius-nan", "two-point-bool", "pareto-overflow", "gaussian-overflow", "batch-size-bool",
         "schedule-value-named-by-kind", "constant-clip-p", "general-C-nan", "sota-string", "beta-bool"],
)
def test_constructor_rejects_a_value_naming_its_parameter(build, message):
    with pytest.raises(ValueError, match=message):
        build()
