import dataclasses
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldplab
from ldplab import montecarlo, oracles
from ldplab.config import parse_config, preset_config
from ldplab.costs import HuberCost
from ldplab.montecarlo import (
    InsufficientDataError,
    TailEstimate,
    appendix_f_enumeration,
    epsilon_index,
    estimate_tail,
    fit_decay,
    run_ensemble,
    tail_from_counts,
    tail_from_hitting_times,
    verify_lemma_suite,
    wilson_interval,
)
from ldplab.optimizers import EnsembleArrays, RunConfig, ScheduleSpec, first_hit_counts, simulate_runs
from ldplab.oracles import AdditiveOracle, ClippingBiasProbe, SphereNoise, TwoPointNoise
from ldplab.rng import STREAM_KEYS, run_generator
from ldplab.theory import decay_family, lower_bound_exact_prob

from test_optimizers import _digest, at_baseline_dispatch, solvable_instance


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

    def test_z_is_norm_ppf_bitwise(self):
        # scipy is the reference here only: the library does not import it
        from scipy import stats
        from scipy.special import ndtri

        q = 0.5 + 0.95 / 2.0
        z = stats.norm.ppf(q)
        assert ndtri(q) == z
        assert montecarlo._WILSON_Z == ndtri(q)
        # the interval with the reference z, in the formula's own operation order
        count, n = np.arange(0, 1001, 7, dtype=np.float64), 1000
        p_hat = count / n
        denom = 1.0 + z * z / n
        center = (p_hat + z * z / (2.0 * n)) / denom
        half = (z / denom) * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
        lo, hi = wilson_interval(count, n)
        np.testing.assert_array_equal(lo, np.minimum(np.clip(center - half, 0.0, 1.0), p_hat))
        np.testing.assert_array_equal(hi, np.maximum(np.clip(center + half, 0.0, 1.0), p_hat))


def _assert_same_arrays(got, want):
    """Every per-run field of two ensembles is equal, dtype and bytes; a lean
    one's grad_norm_sq is None in both."""
    for name in EnsembleArrays.PER_RUN:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestEnsemble:
    def test_single_run_equals_trajectory(self):
        config = solvable_instance(T=10)
        _assert_same_arrays(run_ensemble(config, 1), simulate_runs(config, [0]))

    def test_worker_invariance(self):
        # two chunks, so workers=4 really runs them in two worker processes
        config = solvable_instance(T=8)
        n = montecarlo.ENSEMBLE_CHUNK + 1500
        _assert_same_arrays(run_ensemble(config, n, workers=4), run_ensemble(config, n, workers=1))

    def test_concatenate_joins_every_per_run_field(self):
        config = solvable_instance(T=8)
        for record_full in (False, True):
            whole = simulate_runs(config, range(100), record_full=record_full)
            parts = [simulate_runs(config, range(lo, lo + 25), record_full=record_full) for lo in range(0, 100, 25)]
            joined = EnsembleArrays.concatenate(parts)
            assert (joined.horizon_T, joined.epsilon_grid.tolist()) == (8, config.epsilon_grid.tolist())
            for name in EnsembleArrays.PER_RUN:
                got, want = getattr(joined, name), getattr(whole, name)
                if want is None:
                    assert got is None and not record_full
                else:
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            # the per-step counts are summed over the parts
            for name in EnsembleArrays.PER_STEP:
                got, want = getattr(joined, name), getattr(whole, name)
                assert got.dtype == want.dtype == np.int64 and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True])
    def test_workers_below_one_rejected_before_any_work(self, workers, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("no chunk may run and no process may start")

        monkeypatch.setattr(montecarlo, "_forked_map", no_work)
        monkeypatch.setattr(montecarlo, "_chunk_job", no_work)
        with pytest.raises(ValueError, match="workers must be an integer >= 1, got"):
            run_ensemble(solvable_instance(T=4), 2 * montecarlo.ENSEMBLE_CHUNK, workers=workers)

    def test_same_seed_same_summaries(self):
        config = solvable_instance(T=8)
        a = run_ensemble(config, 512)
        b = run_ensemble(config, 512)
        np.testing.assert_array_equal(a.hit, b.hit)

    def test_lean_record_access_rejected(self):
        res = run_ensemble(solvable_instance(T=4), 4)
        with pytest.raises(ValueError):
            res.running_min

    def test_lean_simulate_runs_record_rejected(self):
        # the same arrays type with the same check, whichever call built it
        arrays = simulate_runs(solvable_instance(T=4), range(4))
        with pytest.raises(ValueError, match="record_full=True"):
            arrays.running_min

    def test_diverged_count_counts_flagged_runs(self):
        res = run_ensemble(solvable_instance(T=4), 8)
        assert res.diverged_count == int(res.diverged.sum()) == 0
        flagged = dataclasses.replace(res, diverged=np.arange(8) % 3 == 0)
        assert flagged.diverged_count == 3

    def test_worker_count_bounded_by_chunks_and_cpus(self, inline_pool, monkeypatch):
        config = solvable_instance(T=2)
        # the runs need two chunks: they are cut evenly into one per CPU, 8
        n = montecarlo.ENSEMBLE_CHUNK + 1
        res = run_ensemble(config, n, workers=10**4)
        assert inline_pool == [(8, [(n * k // 8, n * (k + 1) // 8) for k in range(8)])]
        np.testing.assert_array_equal(res.hit, run_ensemble(config, n).hit)
        # three runs in chunks of one run are three chunks, on three workers
        monkeypatch.setattr(montecarlo, "ENSEMBLE_CHUNK", 1)
        run_ensemble(config, 3, workers=10**4)
        assert inline_pool[1] == (3, [(0, 1), (1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "oracle",
        [
            {"mode": "additive-noise", "noise": {"kind": "sphere-bounded", "radius": 0.5}},
            {"mode": "additive-noise", "noise": {"kind": "two-point", "v": [0.5, 0.0, 0.0, 0.5]}},
            {
                "mode": "additive-noise",
                "noise": {"kind": "symmetrized-pareto", "x_m": 0.5, "tail_index": 2.0, "moment_order": 1.5},
            },
            {"mode": "additive-noise", "noise": {"kind": "gaussian", "scale": 0.5}},
            {"mode": "batch-subsample", "batch_size": 5},
        ],
        ids=["sphere-bounded", "two-point", "symmetrized-pareto", "gaussian", "batch-subsample"],
    )
    def test_chunk_plan_bounds_the_predrawn_bytes(self, oracle, inline_pool, monkeypatch):
        # a 40 KiB budget: a chunk holds 32 of these runs (batch: 26)
        monkeypatch.setattr(montecarlo, "CHUNK_PREDRAW_BYTES", 40 << 10)
        doc = preset_config("sgd-bounded")
        doc["oracle"] = oracle
        if oracle["mode"] == "batch-subsample":
            doc["cost"] = {"name": "batch-logistic", "m": 12, "dim": 4, "dataset_seed": 4}
            doc["method"] = {"kind": "vanilla", "step": {"kind": "constant", "c": 0.2}}
        doc["ensemble"]["horizon_T"] = 40
        config = parse_config(doc).run_config
        for N, workers in [(5, 2), (100, 1), (100, 3), (100, 8), (7, 8)]:
            bounds = montecarlo.chunk_plan(config, N, workers)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == N and sizes.min() >= sizes.max() - 1 >= 0
            if len(sizes) > 1:  # a split plan gives every worker as many chunks
                assert len(sizes) % workers == 0
            # the plan's chunks run on min(workers, CPUs, chunks) processes; one starts no pool
            started = len(inline_pool)
            run_ensemble(config, N, workers)
            processes = min(workers, 8, len(sizes))
            assert inline_pool[started:] == ([(processes, list(zip(bounds, bounds[1:])))] if processes > 1 else [])
            for lo, hi in zip(bounds, bounds[1:]):
                block = config.oracle.randomness_block(config.seed, np.arange(lo, hi), 39)
                predrawn = montecarlo.predraw_bytes(config, hi - lo)
                assert predrawn == block.nbytes <= montecarlo.CHUNK_PREDRAW_BYTES
        assert montecarlo.chunk_plan(config, 5, 2) == [0, 5]  # one small chunk stays serial
        assert len(montecarlo.chunk_plan(config, 100, 3)) - 1 == 6  # 4 chunks fit, 6 share 3 workers

    def test_full_mode_holds_no_more_than_predraw_bytes_counts(self, monkeypatch):
        # full mode adds grad_norm_sq and, in the invariant check, its running
        # minimum, two (n, T) float64 arrays or 16 T n bytes; a transposed
        # copy of it, or the block kept alive through the check, would go
        # beyond that.  Small slabs keep randomness_block's own buffers out of
        # both peaks.
        monkeypatch.setattr(oracles, "_SLAB_RAW_BYTES", 1 << 14)
        doc = preset_config("csgd-pareto")
        T = doc["ensemble"]["horizon_T"] = 2000
        config = parse_config(doc).run_config
        n = 128
        peak = {}
        for record_full in (False, True):
            tracemalloc.start()
            try:
                simulate_runs(config, np.arange(n), record_full=record_full)
                peak[record_full] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak[True] - peak[False] <= 16 * T * n, peak

    def test_large_single_chunk_ensemble_runs_one_chunk_per_worker(self, inline_pool):
        T = 1024
        n = montecarlo._SPLIT_MIN_RUN_STEPS // T  # one chunk with just enough run-steps
        config = solvable_instance(T=T)
        split = run_ensemble(config, n, workers=2)
        assert inline_pool == [(2, [(0, n // 2), (n // 2, n)])]
        serial = run_ensemble(config, n, workers=1)
        assert len(inline_pool) == 1
        _assert_same_arrays(split, serial)

    def test_small_ensembles_start_no_pool(self, inline_pool):
        # verify-all's ensemble, the appendix-f preset at 4096 runs x T = 16,
        # and one run-step below the split threshold both stay serial
        run_ensemble(parse_config(preset_config("appendix-f")).run_config, 4096, workers=2)
        T = 1024
        run_ensemble(solvable_instance(T=T), montecarlo._SPLIT_MIN_RUN_STEPS // T - 1, workers=2)
        assert inline_pool == []


def _signal_state(_job):
    """A pool job: the stop signals' handlers in the process that runs it,
    and which of them it blocks."""
    handlers = [signal.getsignal(sig) for sig in montecarlo.STOP_SIGNALS]
    return handlers, signal.pthread_sigmask(signal.SIG_BLOCK, []) & set(montecarlo.STOP_SIGNALS)


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="needs POSIX signal masks")
def test_pool_workers_leave_the_stop_signals_to_the_parent(monkeypatch):
    # a worker ignores SIGINT, dies of SIGTERM and SIGHUP unless the parent
    # ignores them (nohup), and blocks none of them once it runs jobs
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        states = list(montecarlo.ordered_map(_signal_state, range(4), 2))
    finally:
        signal.signal(signal.SIGHUP, previous)
    assert states == [([signal.SIG_IGN, signal.SIG_DFL, signal.SIG_IGN], set())] * 4


def test_a_job_that_ends_its_worker_raises_worker_died_at_once():
    # a worker that exits with status 0 while its jobs are owed is one error
    # within 2 s, not a hang; a timeout bounds the child should it hang
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    code = (
        "import os, time\n"
        "from ldplab import montecarlo\n"
        "montecarlo.usable_cpus = lambda: 2\n"
        "def job(k):\n"
        "    if k == 2:\n"
        "        os._exit(0)\n"
        "    return k\n"
        "start = time.monotonic()\n"
        "try:\n"
        "    list(montecarlo.ordered_map(job, range(8), 2))\n"
        "except montecarlo.WorkerDiedError:\n"
        "    print(time.monotonic() - start)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 2


def _fails_at_3(k):
    """A pool job that raises at job 3."""
    if k == 3:
        raise LookupError("job 3 failed")
    return k


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_leaves_no_child_process(monkeypatch):
    # a generator closed after its first result, and one whose job raised,
    # have killed and reaped every worker; the job's exception reaches the caller
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    results = montecarlo.ordered_map(_fails_at_3, range(8), 2)
    assert next(results) == 0
    results.close()
    _assert_no_child_left()
    with pytest.raises(LookupError, match=r"^job 3 failed$"):
        list(montecarlo.ordered_map(_fails_at_3, range(8), 2))
    _assert_no_child_left()


@pytest.fixture
def inline_pool(monkeypatch):
    """A stub pool that records (processes, chunk bounds) of every pool
    started and runs the chunks inline, so no worker process is ever
    started; the machine reports 8 CPUs."""
    started = []

    def inline_map(fn, jobs, processes):
        started.append((processes, [(lo, hi) for _, lo, hi in jobs]))
        return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "_forked_map", inline_map)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 8)
    return started


def test_tail_invariant_survives_python_O():
    # TailEstimate checks its invariants with exceptions, which -O keeps
    code = (
        "import numpy as np\n"
        "from ldplab.montecarlo import TailEstimate\n"
        "p = np.array([0.1, 0.2])\n"
        "try:\n"
        "    TailEstimate(n_runs=10, epsilon=0.1, t_grid=np.array([1, 2]),\n"
        "                 exceed_count=np.array([1, 2]), p_hat=p, ci_low=p, ci_high=p)\n"
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
        cost = HuberCost(1.0, 2)
        eps = 0.05
        config = RunConfig(
            cost=cost,
            oracle=AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.0, dim=2)),
            init_x1=np.array([0.6, 0.0]),
            horizon_T=40,
            step_schedule=ScheduleSpec(kind="sgd-sqrt", value=0.5),
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

    def test_epsilon_matched_to_relative_1e_12(self):
        grid = np.array([0.09, 0.18])
        assert epsilon_index(grid, 0.18 * (1.0 + 5e-13)) == 1
        assert epsilon_index([float(e) for e in grid], 0.09) == 0
        with pytest.raises(ValueError, match=r"epsilon_grid \[0\.09, 0\.18\]"):
            epsilon_index(grid, 0.18 * (1.0 + 1e-11))

    def test_hitting_times_and_counts_give_the_same_estimate(self):
        hit = np.array([1, 3, 3, 5, 9, 9])  # 9 = never within T = 8
        t_grid = np.arange(1, 9)
        from_hits = tail_from_hitting_times(hit, 8, 0.1, t_grid)
        exceed = np.array([int(np.sum(hit > t)) for t in t_grid])
        from_counts = tail_from_counts(t_grid, exceed, hit.size, 0.1)
        for name in ("t_grid", "exceed_count", "p_hat", "ci_low", "ci_high"):
            a, b = getattr(from_hits, name), getattr(from_counts, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(from_counts.exceed_count, [5, 5, 3, 3, 2, 2, 2, 2])

    def test_first_hits_give_the_hitting_times_estimate(self):
        # steps.csv's first-hit counts and the hitting times go through one path
        hit = np.array([1, 3, 3, 5, 9, 9, 2**40])  # 9 and 2^40: never within T = 8
        first_hits = first_hit_counts(hit, 8)
        np.testing.assert_array_equal(first_hits, [1, 0, 2, 0, 1, 0, 0, 0])
        for t_grid in (None, np.arange(1, 9), [2, 5, 6]):
            from_first_hits = montecarlo.tail_from_first_hits(first_hits, hit.size, 0.1, t_grid)
            from_hits = tail_from_hitting_times(hit, 8, 0.1, np.arange(1, 9) if t_grid is None else t_grid)
            for name in ("t_grid", "exceed_count", "p_hat", "ci_low", "ci_high"):
                a, b = getattr(from_first_hits, name), getattr(from_hits, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        with pytest.raises(ValueError, match=r"within \[1, 8\]"):
            montecarlo.tail_from_first_hits(first_hits, hit.size, 0.1, [1, 9])
        with pytest.raises(ValueError, match="n_runs must be an integer >= 1"):
            montecarlo.tail_from_first_hits(first_hits, "7", 0.1)

    @pytest.mark.parametrize(
        "t_grid, exceed, n_runs, message",
        [
            ([9, 3, 5, 5, -2], [100, 90, 80, 70, 60], 1000, "t_grid must be"),
            ([1, 2**31], [100, 90], 1000, "t_grid must be"),
            ([1, 2, 3], [100, 90], 1000, "3 steps need as many"),
            ([1, 2], [100, 90, 80], 1000, "2 steps need as many"),
            ([1.5, 2.5], [10, 5], 1000, "t_grid steps must be integers"),
            ([True, 2], [10, 5], 1000, "t_grid steps must be integers"),
            (np.array([1.0, 2.0]), [10, 5], 1000, "t_grid steps must be integers"),
            # n_runs is checked before the counts are compared with it
            ([1, 2], [1, 1], "5", r"^n_runs must be an integer >= 1, got '5'$"),
            ([1, 2], [1, 1], 5.0, r"^n_runs must be an integer >= 1, got 5\.0$"),
            ([1, 2], [1, 1], True, r"^n_runs must be an integer >= 1, got True$"),
        ],
        ids=["unsorted-repeated-negative", "beyond-max-horizon", "fewer-counts", "more-counts",
             "fractional-steps", "bool-step", "float-array", "n-runs-string", "n-runs-float", "n-runs-bool"],
    )
    def test_counts_need_a_checked_step_grid(self, t_grid, exceed, n_runs, message):
        with pytest.raises(ValueError, match=message):
            tail_from_counts(t_grid, exceed, n_runs, 0.1)

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

    def test_largest_horizon_matches_closed_form(self):
        probs = appendix_f_enumeration(montecarlo.ENUM_T_MAX)
        assert list(probs) == list(range(1, montecarlo.ENUM_T_MAX + 1))
        assert all(prob == Fraction(1, 2 ** (t - 1)) for t, prob in probs.items())
        # the largest t whose closed form float64 still holds exactly
        assert Fraction(lower_bound_exact_prob(montecarlo.ENUM_T_MAX)) == probs[montecarlo.ENUM_T_MAX]
        assert lower_bound_exact_prob(montecarlo.ENUM_T_MAX + 1) == 0.0

    def test_t_max_validation(self):
        with pytest.raises(ValueError):
            appendix_f_enumeration(montecarlo.ENUM_T_MAX + 1)
        with pytest.raises(ValueError):
            appendix_f_enumeration(0)
        with pytest.raises(ValueError):
            appendix_f_enumeration(10, x1_norm=2.0, G=1.0)

    def test_bool_counts_rejected(self):
        # a bool is not a count: True used to run as 1
        with pytest.raises(ValueError, match="t_max must be an integer"):
            appendix_f_enumeration(True)
        with pytest.raises(ValueError, match="t must be an integer >= 1, got True"):
            lower_bound_exact_prob(True)
        with pytest.raises(ValueError, match="N must be an integer >= 1, got True"):
            run_ensemble(solvable_instance(T=4), True)


# digests of the float bits of every check's (empirical, bound, se) in the
# suites whose values come from float reductions, at 10^5 samples and seed 13
# and numpy's baseline dispatch level.  batch-bound stays unpinned: its
# gradients go through OpenBLAS matrix-vector and matrix products, and
# NPY_DISABLE_CPU_FEATURES does not choose OpenBLAS's kernels.
_PINNED_VERIFY_DIGESTS = {
    "mgf-bounded": "c8212ddb617c536a",
    "mgf-inner": "f4579abf59f78de8",
    "clip-bias": "244a0072d3757d70",
    "clip-subgauss": "c47271bf6dc8d8c4",
    "rates": "cb8dae6e8ac6cca1",
}


def verify_float_digests() -> dict:
    """Each pinned suite's digest, in this process."""
    return {
        suite: _digest(np.array([(c.empirical, c.bound, c.se) for c in verify_lemma_suite(suite, 10**5, 13).checks]))
        for suite in _PINNED_VERIFY_DIGESTS
    }


@pytest.fixture(scope="module")
def baseline_verify_digests():
    return at_baseline_dispatch("test_montecarlo", "verify_float_digests")


@pytest.mark.parametrize("suite", list(_PINNED_VERIFY_DIGESTS))
def test_verify_values_pinned(suite, baseline_verify_digests):
    assert baseline_verify_digests[suite] == _PINNED_VERIFY_DIGESTS[suite]


def _no_pool(*args, **kwargs):
    raise AssertionError("no job may run")


def _job_params(suite, n_samples, seed, t_max) -> dict:
    """The keyword arguments of suite's runner in a verify request."""
    params = {"n_samples": n_samples, "seed": seed}
    return dict(params, t_max=t_max) if suite == "appendix-f-enum" else params


class TestVerifySuites:
    def test_unknown_suite(self, monkeypatch):
        # 'all' is a request, not a suite; both are rejected before any job runs
        monkeypatch.setattr(montecarlo, "ordered_map", _no_pool)
        for suite in ("mgf-everything", "all"):
            with pytest.raises(ValueError, match=f"unknown suite {suite!r}"):
                verify_lemma_suite(suite)

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

    def test_enum_and_rates_suites(self):
        enum = verify_lemma_suite("appendix-f-enum", t_max=6)
        assert [c.label for c in enum.checks] == [f"t={t}" for t in range(1, 7)]
        assert all(c.passed and c.empirical == c.bound == 2.0 ** (1 - t) and c.se == 0.0
                   for t, c in enumerate(enum.checks, start=1))
        rates = verify_lemma_suite("rates")
        assert len(rates.checks) == 6 and rates.passed
        assert all(c.bound == 1e-3 and c.se == 0.0 for c in rates.checks)

    def test_request_covers_every_suite_in_registry_order(self, monkeypatch):
        # no suites and 'all' both mean every suite, each job with its runner's arguments
        jobs = []
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "_verify_job", lambda job: jobs.append(job) or [])
        for request in ([], ["all"]):
            jobs.clear()
            reports = list(montecarlo.verify_reports(request, 10**5, 3, 7))
            assert [suite for suite, _ in reports] == list(montecarlo.LEMMA_SUITES)
            assert jobs == [
                (suite, k, _job_params(suite, 10**5, 3, 7))
                for suite in montecarlo.LEMMA_SUITES
                for k in range(montecarlo._LEMMA_SUITE_RUNNERS[suite][2])
            ]

    @pytest.mark.parametrize(
        "suites, samples, seed, t_max, message",
        [
            (["mgf-bounded", "bogus"], 10**5, 1, 20, "unknown suite 'bogus'"),
            (["all", "rates"], 10, 1, 20, "unknown suite 'all'"),
            (["rates", "mgf-bounded", "rates"], 10, 1, 20, "^suite 'rates' is requested twice$"),
            (["rates"], 0, 1, 20, "--samples must be at least 1 for rates"),
            (["batch-bound", "clip-subgauss"], 99999, 1, 20, "at least 100000 for clip-subgauss"),
            (["appendix-f-enum"], 10, 1, 1076, "--enum-t-max"),
            (["appendix-f-enum"], 10, 1, 0, "--enum-t-max"),
            (["rates"], True, 1, 20, "--samples must be at least 1 for rates"),
            (["appendix-f-enum"], 10, 1, True, "--enum-t-max"),
            (["mgf-bounded"], 10**5, 1.5, 20, "^seed must be an integer, got 1.5$"),
            (["mgf-bounded"], 10**5, "3", 20, "^seed must be an integer, got '3'$"),
            (["mgf-bounded"], 10**5, True, 20, "^seed must be an integer, got True$"),
        ],
        ids=[
            "unknown", "all-with-others", "repeated", "zero-samples", "probe-floor", "t-max-1076", "t-max-0",
            "bool-samples", "bool-t-max", "float-seed", "str-seed", "bool-seed",
        ],
    )
    def test_request_rejected_whole(self, suites, samples, seed, t_max, message, monkeypatch):
        # the request is checked when verify_reports is called, before any job runs
        monkeypatch.setattr(montecarlo, "ordered_map", _no_pool)
        with pytest.raises(ValueError, match=message):
            montecarlo.verify_reports(suites, samples, seed, t_max)

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_one_suite_with_a_seed_that_is_not_an_integer_rejected(self, seed, monkeypatch):
        # 1.5, "3" and True used to run silently on the streams of seed 1 or 3
        monkeypatch.setattr(montecarlo, "ordered_map", _no_pool)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            verify_lemma_suite("mgf-bounded", n_samples=10**5, seed=seed)

    def test_enum_t_max_ignored_without_enum_suite(self):
        # as --enum-t-max without appendix-f-enum: not checked and not passed on
        rates = [verify_lemma_suite("rates", t_max=t_max) for t_max in (6, 0)]
        ((_, request),) = montecarlo.verify_reports(["rates"], 1, 1, 99)
        assert rates[0] == rates[1] == request == verify_lemma_suite("rates", 1, 1)

    @pytest.mark.parametrize("n_samples", [0, -5, True])
    def test_nonpositive_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_lemma_suite("mgf-bounded", n_samples=n_samples)

    @pytest.mark.parametrize(
        "suite, calls, grid",
        [("clip-bias", 27, {"scale_multipliers": ()}), ("clip-subgauss", 18, {})],
        ids=["clip-bias", "clip-subgauss"],
    )
    def test_clip_suites_call_the_probe_once_per_grid_point(self, suite, calls, grid, monkeypatch):
        # a stub in place of the probe: the suites must keep calling it once per
        # (p, gamma, ||grad||/gamma) point, and clip-bias must ask for no MGF grid;
        # on one CPU the jobs run here, where the calls can be counted
        seen = []

        def counting_probe(oracle, x, gamma, num_samples, rng, **kwargs):
            seen.append(kwargs)
            shape = (8, len(kwargs.get("scale_multipliers", range(6))))
            return ClippingBiasProbe(0.0, 1.0, 0.0, np.zeros(shape), np.zeros(shape))

        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 1)
        monkeypatch.setattr(montecarlo, "clipping_bias_probe", counting_probe)
        report = verify_lemma_suite(suite, n_samples=10**5, seed=5)
        assert len(seen) == len(report.checks) == calls
        assert all(kwargs == grid for kwargs in seen)

    @pytest.mark.parametrize("suite", montecarlo.LEMMA_SUITES)
    def test_jobs_in_reverse_order_equal_the_suite(self, suite, suites_alone):
        # each job builds its own generators, so the pool may run a suite's
        # jobs in any order: run one at a time backwards and put back in job
        # order, their checks are the suite's bit for bit
        params, n_jobs = _job_params(suite, 10**5, 7, 12), montecarlo._LEMMA_SUITE_RUNNERS[suite][2]
        backwards = {k: montecarlo._verify_job((suite, k, params)) for k in reversed(range(n_jobs))}
        assert [repr(dataclasses.astuple(c)) for k in range(n_jobs) for c in backwards[k]] == suites_alone[suite]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_request_jobs_through_the_pool_equal_each_suite_alone(self, processes, suites_alone, monkeypatch):
        # every job of verify all, and each suite's one-suite request, through
        # the one pool on one process and on two forked workers, gives each
        # suite's checks bit for bit
        started, forked_map = [], montecarlo._forked_map

        def recording_map(fn, jobs, processes):
            started.append(processes)
            return forked_map(fn, jobs, processes)

        monkeypatch.setattr(montecarlo, "_forked_map", recording_map)
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: processes)
        reports = list(montecarlo.verify_reports(["all"], 10**5, 7, 12))
        assert [suite for suite, _ in reports] == list(montecarlo.LEMMA_SUITES)
        for suite, report in reports:
            assert report.suite == suite
            assert [repr(dataclasses.astuple(c)) for c in report.checks] == suites_alone[suite], suite
            alone = verify_lemma_suite(suite, 10**5, 7, t_max=12)
            assert alone.suite == suite
            assert [repr(dataclasses.astuple(c)) for c in alone.checks] == suites_alone[suite], suite
        # verify all, then each suite of more than one job
        many = [suite for suite in montecarlo.LEMMA_SUITES if montecarlo._LEMMA_SUITE_RUNNERS[suite][2] > 1]
        assert started == ([2] * (1 + len(many)) if processes == 2 else [])

    def test_mgf_inner_estimates_match_their_exact_values(self):
        # E exp(r <x, z>) for a unit direction x is cosh(r <x, v>) for the
        # two-point noise +/- v and I0(r M) for the circle of radius M; every
        # one of the 5 radii x 8 directions of each noise lies within 5 SE
        seed, n = 11, 2 * 10**5
        for k, noise in enumerate(montecarlo._MGF_NOISES):
            # drawn as _mgf_inner_job draws: the directions, then the samples
            rng = run_generator(seed, STREAM_KEYS["mgf-inner"] + k)
            dirs = oracles._unit_rows(rng.standard_normal((montecarlo._MGF_DIRECTIONS, noise.dim)))
            z = np.concatenate([block for _, block in noise.sample_chunks(rng, n)])
            M = noise.noise_constants()["M"]
            radii = np.array(montecarlo._MGF_NORM_MULTIPLIERS) / M
            means, stds = oracles._mgf_grid_moments(z, dirs, radii)
            if isinstance(noise, TwoPointNoise):
                exact = np.cosh(radii[:, None] * (dirs @ noise.v))
            else:
                exact = np.broadcast_to(np.i0(radii * M)[:, None], means.shape)
            assert means.shape == exact.shape == (5, 8)
            assert np.all(np.abs(means - exact) <= 5.0 * stds / math.sqrt(n) + 1e-12 * exact), noise.kind


@pytest.fixture(scope="module")
def suites_alone():
    """suite -> the repr of each check's fields of verify all at 10^5 samples,
    seed 7 and t_max 12: the serial reference, each suite's jobs run here in
    job order through _verify_job."""
    return {
        suite: [
            repr(dataclasses.astuple(c))
            for k in range(montecarlo._LEMMA_SUITE_RUNNERS[suite][2])
            for c in montecarlo._verify_job((suite, k, _job_params(suite, 10**5, 7, 12)))
        ]
        for suite in montecarlo.LEMMA_SUITES
    }
