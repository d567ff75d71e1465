import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldplab
from ldplab import montecarlo
from ldplab.costs import huber_cost
from ldplab.montecarlo import (
    InsufficientDataError,
    TailEstimate,
    appendix_f_enumeration,
    estimate_tail,
    fit_decay,
    run_ensemble,
    tail_from_hitting_times,
    verify_lemma_suite,
    wilson_interval,
)
from ldplab.optimizers import RunConfig, ScheduleSpec, run_trajectory
from ldplab.oracles import AdditiveOracle, SphereNoise, TwoPointNoise
from ldplab.theory import decay_family, lower_bound_exact_prob

from test_optimizers import solvable_instance


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(np.array([50]), 100)
        assert 0.40 < lo[0] < 0.5 < hi[0] < 0.60

    @given(st.integers(0, 1000), st.integers(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_contains_point_estimate(self, count, n):
        count = min(count, n)
        lo, hi = wilson_interval(np.array([count]), n)
        p = count / n
        assert 0.0 <= lo[0] <= p <= hi[0] <= 1.0


class TestEnsemble:
    def test_single_run_equals_trajectory(self):
        config = solvable_instance(T=10)
        res = run_ensemble(config, 1, record_full=True)
        rec = run_trajectory(config, 0)
        np.testing.assert_array_equal(res.arrays.grad_norm_sq[0], rec.grad_norm_sq)
        assert res.record(0).hitting_time == rec.hitting_time

    def test_worker_invariance(self):
        config = solvable_instance(T=8)
        a = run_ensemble(config, 1500, workers=1)
        b = run_ensemble(config, 1500, workers=4)
        np.testing.assert_array_equal(a.arrays.hit, b.arrays.hit)
        np.testing.assert_array_equal(a.arrays.final_min, b.arrays.final_min)

    def test_same_seed_same_summaries(self):
        config = solvable_instance(T=8)
        a = run_ensemble(config, 512)
        b = run_ensemble(config, 512)
        np.testing.assert_array_equal(a.arrays.hit, b.arrays.hit)

    def test_lean_record_access_rejected(self):
        res = run_ensemble(solvable_instance(T=4), 4)
        with pytest.raises(ValueError):
            res.record(0)

    def test_worker_count_bounded_by_chunks_and_cpus(self, monkeypatch):
        # a stub pool records max_workers and runs the chunks inline, so no
        # worker process is ever started here
        started = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        config = solvable_instance(T=2)
        n = montecarlo.ENSEMBLE_CHUNK + 1  # two chunks
        res = run_ensemble(config, n, workers=10**4)
        assert started == [2]
        np.testing.assert_array_equal(res.arrays.hit, run_ensemble(config, n).arrays.hit)


def test_tail_invariant_survives_python_O():
    # TailEstimate checks its invariants with exceptions, which -O keeps
    code = (
        "import numpy as np\n"
        "from ldplab.montecarlo import TailEstimate\n"
        "p = np.array([0.1, 0.2])\n"
        "try:\n"
        "    TailEstimate(n_runs=10, epsilon=0.1, t_grid=np.array([1, 2]),\n"
        "                 exceed_count=np.array([1, 2]), p_hat=p, ci_low=p, ci_high=p,\n"
        "                 diverged_count=0)\n"
        "except ValueError as e:\n"
        "    print('rejected:', e)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected: tail estimates must be non-increasing in t"


class TestEstimateTail:
    def test_deterministic_hitting_time_step_tail(self):
        # noiseless contraction from x1: the hitting time t* is deterministic,
        # so p_hat is exactly 1 before t* and 0 from t* on
        cost = huber_cost(1.0, 2)
        eps = 0.05
        config = RunConfig(
            method="vanilla",
            cost=cost,
            oracle=AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.0, dim=2)),
            init_x1=np.array([0.6, 0.0]),
            horizon_T=40,
            step_schedule=ScheduleSpec(kind="sgd-sqrt", a=0.5),
            clip_schedule=None,
            seed=1,
            epsilon_grid=np.array([eps]),
        )
        # predict t* from the contraction product
        gns, t_star, t = 0.36, None, 1
        while t_star is None:
            if gns <= eps:
                t_star = t
            else:
                gns *= (1.0 - 0.5 / math.sqrt(t + 1.0)) ** 2
                t += 1
        res = run_ensemble(config, 50)
        tail = estimate_tail(res, eps)
        np.testing.assert_array_equal(tail.p_hat, (tail.t_grid < t_star).astype(float))

    def test_unrecorded_epsilon_rejected(self):
        res = run_ensemble(solvable_instance(T=6), 16)
        with pytest.raises(ValueError, match="epsilon_grid"):
            estimate_tail(res, 0.123)

    def test_monotone_and_ci(self):
        res = run_ensemble(solvable_instance(T=12), 2048)
        tail = estimate_tail(res, 0.18)
        assert np.all(np.diff(tail.p_hat) <= 0)
        assert np.all((tail.ci_low <= tail.p_hat) & (tail.p_hat <= tail.ci_high))

    def test_lower_bound_visible_at_moderate_n(self):
        res = run_ensemble(solvable_instance(T=8, seed=31), 2**14)
        tail = estimate_tail(res, 0.18, np.arange(2, 8))
        for t, hi in zip(tail.t_grid, tail.ci_high):
            assert hi >= lower_bound_exact_prob(int(t))

    def test_threshold_at_initial_level_gives_zero_tail(self):
        # F_1 = ||x1||^2 already meets eps = ||x1||^2, so nothing exceeds
        config = solvable_instance(T=8, n_eps=(0.36,))
        res = run_ensemble(config, 256)
        tail = estimate_tail(res, 0.36)
        assert np.all(tail.p_hat == 0.0)


def synthetic_tail(nt_fn, c, t_grid, n_runs=10**9):
    t_grid = np.asarray(t_grid, dtype=np.int64)
    p = np.exp(-c * np.asarray(nt_fn(t_grid.astype(float))))
    exceed = np.maximum((p * n_runs).astype(np.int64), 0)
    lo, hi = np.maximum(p - 1e-9, 0.0), np.minimum(p + 1e-9, 1.0)
    return TailEstimate(
        n_runs=n_runs,
        epsilon=0.1,
        t_grid=t_grid,
        exceed_count=exceed,
        p_hat=p,
        ci_low=lo,
        ci_high=hi,
        diverged_count=0,
    )


class TestFitDecay:
    t_grid = np.unique(np.round(np.logspace(1, 4, 40)).astype(np.int64))

    def test_recovers_t_over_log_slope(self):
        tail = synthetic_tail(decay_family("t-over-log").decay_rate_nt, 0.5, self.t_grid)
        fits = {f.candidate: f for f in fit_decay(tail, [decay_family("t-over-log")])}
        f = fits["t-over-log"]
        assert f.slope_hat == pytest.approx(0.5, rel=1e-6)
        assert f.r_squared >= 0.9999

    def test_generating_family_wins_r2(self):
        candidates = [decay_family("sqrt-t"), decay_family("t-over-log")]
        tail = synthetic_tail(decay_family("sqrt-t").decay_rate_nt, 0.3, self.t_grid)
        fits = fit_decay(tail, candidates)
        best = max(fits, key=lambda f: f.r_squared)
        assert best.candidate == "sqrt-t"
        assert best.slope_hat == pytest.approx(0.3, rel=1e-6)

    def test_flat_tail_zero_slopes(self):
        p = np.full(self.t_grid.size, 0.5)
        tail = TailEstimate(
            n_runs=10**6,
            epsilon=0.1,
            t_grid=self.t_grid,
            exceed_count=np.full(self.t_grid.size, 500000, dtype=np.int64),
            p_hat=p,
            ci_low=p - 1e-3,
            ci_high=p + 1e-3,
            diverged_count=0,
        )
        for f in fit_decay(tail, [decay_family("sqrt-t"), decay_family("linear-t")]):
            assert abs(f.slope_hat) <= 1e-12

    def test_insufficient_points(self):
        tail = synthetic_tail(decay_family("linear-t").decay_rate_nt, 2.0, [10, 20])
        with pytest.raises(InsufficientDataError):
            fit_decay(tail, [decay_family("linear-t")])

    def test_low_count_points_excluded(self):
        nt = decay_family("linear-t").decay_rate_nt
        tail = synthetic_tail(nt, 0.05, self.t_grid, n_runs=10**4)
        fits = fit_decay(tail, [decay_family("linear-t")])
        assert fits[0].points_used < self.t_grid.size


class TestEnumeration:
    def test_exact_dyadic_equality(self):
        probs = appendix_f_enumeration(20)
        for t, prob in probs.items():
            assert prob == Fraction(1, 2 ** (t - 1))
            assert prob == Fraction(lower_bound_exact_prob(t))

    def test_examples(self):
        probs = appendix_f_enumeration(4)
        assert probs[1] == 1
        assert probs[4] == Fraction(1, 8)

    def test_other_initializations(self):
        probs = appendix_f_enumeration(10, x1_norm=0.25, G=1.0)
        assert probs[10] == Fraction(1, 512)
        probs = appendix_f_enumeration(10, x1_norm=1.0, G=1.0)  # boundary ||x1|| = G
        assert probs[10] == Fraction(1, 512)

    def test_t_max_validation(self):
        with pytest.raises(ValueError):
            appendix_f_enumeration(25)
        with pytest.raises(ValueError):
            appendix_f_enumeration(0)
        with pytest.raises(ValueError):
            appendix_f_enumeration(10, x1_norm=2.0, G=1.0)


class TestVerifySuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_lemma_suite("mgf-everything")

    def test_mgf_bounded_small(self):
        report = verify_lemma_suite("mgf-bounded", n_samples=10**5, seed=5)
        assert report.passed
        # two-point noise at full radius saturates the bound exactly
        two_point = [c for c in report.checks if c.label.startswith("two-point")][0]
        assert two_point.empirical == pytest.approx(math.e, rel=1e-12)
        assert two_point.se == pytest.approx(0.0, abs=1e-12)

    def test_batch_bound_small(self):
        report = verify_lemma_suite("batch-bound", n_samples=10**4, seed=5)
        assert report.passed
        for c in report.checks:
            assert "0 violations" in c.label
