import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab import optimizers, oracles
from ldplab.config import PRESET_NAMES, parse_config, preset_config
from ldplab.costs import HuberCost, LogisticBatchCost, PseudoHuberCost
from ldplab.oracles import AdditiveOracle, SphereNoise, TwoPointNoise, clip_rows
from ldplab.optimizers import (
    ClipSpec,
    EnsembleArrays,
    RunConfig,
    ScheduleSpec,
    clip_threshold,
    simulate_runs,
    step_size,
)


def solvable_instance(clip=None, T=12, seed=7, x1=(0.6, 0.0), G=1.0, n_eps=None):
    cost = HuberCost(G, 2)
    x1 = np.asarray(x1)
    oracle = AdditiveOracle(cost=cost, noise=TwoPointNoise(v=x1))
    if n_eps is None:
        n_eps = (float(np.dot(x1, x1)) / 2.0,)
    return RunConfig(
        cost=cost,
        oracle=oracle,
        init_x1=x1,
        horizon_T=T,
        step_schedule=ScheduleSpec(kind="sgd-sqrt", value=0.5),
        clip_schedule=clip,
        seed=seed,
        epsilon_grid=np.array(n_eps),
    )


class TestStepSize:
    def test_sgd_sqrt(self):
        assert step_size(ScheduleSpec(kind="sgd-sqrt", value=1.0), 1) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_csgd_power_p2(self):
        # exponent p/(3p-2) = 1/2 at p = 2
        assert step_size(ScheduleSpec(kind="csgd-power", value=2.0), 3) == pytest.approx(0.5, abs=1e-12)

    def test_csgd_power_p15(self):
        # exponent 1.5/2.5 = 0.6
        assert step_size(ScheduleSpec(kind="csgd-power", value=1.5), 1) == pytest.approx(
            2.0**-0.6, abs=1e-12
        )

    def test_constant(self):
        assert step_size(ScheduleSpec(kind="constant", value=0.25), 17) == 0.25

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            step_size(ScheduleSpec(kind="constant", value=1.0), 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="csgd-power", value=2.5)
        with pytest.raises(ValueError):
            ScheduleSpec(kind="sgd-sqrt", value=None)
        with pytest.raises(ValueError):
            ScheduleSpec(kind="momentum", value=1.0)


class TestClipThreshold:
    def test_eq5_p2(self):
        spec = ClipSpec(kind="paper-eq5", G_or_C=1.0, p=2.0)
        assert clip_threshold(spec, 1) == pytest.approx(2.0 * math.sqrt(math.log(2.0)), abs=1e-12)

    def test_eq5_p15(self):
        # exponent (2-p)/(6p-4) = 0.5/5 = 0.1
        spec = ClipSpec(kind="paper-eq5", G_or_C=1.0, p=1.5)
        assert clip_threshold(spec, 1) == pytest.approx(2.0 * 2.0**0.1, abs=1e-12)

    def test_general_C_log_value(self):
        spec = ClipSpec(kind="general-C", G_or_C=4.0, p=2.0)
        assert clip_threshold(spec, math.e**2 - 1.0) == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)

    def test_constant(self):
        spec = ClipSpec(kind="constant", G_or_C=2.0)
        assert clip_threshold(spec, 5) == 2.0


def _clip_one(g, gamma):
    """clip_rows on one vector: (clipped vector, whether it was scaled)."""
    out, over = clip_rows(np.asarray(g, dtype=np.float64)[None, :], gamma)
    return out[0], bool(over[0])


class TestClipVector:
    """Norm clipping of single vectors, through the clip_rows the recursion uses."""

    def test_below_threshold_unchanged(self):
        out, over = _clip_one([3.0, 4.0], 10.0)
        np.testing.assert_array_equal(out, [3.0, 4.0])
        assert not over

    def test_boundary_unchanged(self):
        out, over = _clip_one([3.0, 4.0], 5.0)
        np.testing.assert_array_equal(out, [3.0, 4.0])
        assert not over  # a tie at ||g|| = gamma is not a clip event

    def test_scaled_above(self):
        out, over = _clip_one([3.0, 4.0], 1.0)
        np.testing.assert_allclose(out, [0.6, 0.8])
        assert over

    def test_zero_vector(self):
        out, over = _clip_one([0.0, 0.0], 1.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])
        assert not over

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        st.floats(1e-6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_norm_capped_direction_preserved(self, coords, gamma):
        g = np.asarray(coords)
        out, _ = _clip_one(g, gamma)
        assert np.linalg.norm(out) <= max(gamma, np.linalg.norm(g)) * (1 + 1e-12)
        assert np.linalg.norm(out) <= gamma * (1 + 1e-12) or np.array_equal(out, g)
        # direction preserved: out is a non-negative multiple of g
        assert np.dot(out, g) >= 0.0
        cross = np.linalg.norm(np.cross(out, g))
        assert cross <= 1e-6 * max(1.0, np.linalg.norm(g) ** 2)


class TestRunConfigValidation:
    def test_step_coefficient_above_inverse_L_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            cost = HuberCost(1.0, 2)
            RunConfig(
                cost=cost,
                oracle=AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.1, dim=2)),
                init_x1=np.zeros(2),
                horizon_T=4,
                step_schedule=ScheduleSpec(kind="sgd-sqrt", value=1.01 / cost.smoothness_L),
                clip_schedule=None,
                seed=0,
                epsilon_grid=np.array([0.1]),
            )

    def test_unsorted_epsilon_grid_rejected(self):
        cost = PseudoHuberCost(1.0, 2)
        with pytest.raises(ValueError):
            RunConfig(
                cost=cost,
                oracle=AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.1, dim=2)),
                init_x1=np.zeros(2),
                horizon_T=4,
                step_schedule=ScheduleSpec(kind="sgd-sqrt", value=1.0),
                clip_schedule=None,
                seed=0,
                epsilon_grid=np.array([0.2, 0.1]),
            )


class TestTrajectories:
    def test_noiseless_contraction_strictly_decreases(self):
        # inside the ball the noiseless recursion is x <- (1 - alpha_t) x
        cost = HuberCost(1.0, 2)
        config = RunConfig(
            cost=cost,
            oracle=AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.0, dim=2)),
            init_x1=np.array([0.6, 0.0]),
            horizon_T=20,
            step_schedule=ScheduleSpec(kind="sgd-sqrt", value=0.5),
            clip_schedule=None,
            seed=0,
            epsilon_grid=np.array([0.01]),
        )
        gns = simulate_runs(config, [0], record_full=True).grad_norm_sq[0]
        assert np.all(np.diff(gns) < 0)
        expected = 0.36
        for t in range(1, 20):
            assert gns[t - 1] == pytest.approx(expected, rel=1e-12)
            expected *= (1.0 - 0.5 / math.sqrt(t + 1.0)) ** 2

    def test_determinism_bit_identical(self):
        config = solvable_instance(T=16)
        a = simulate_runs(config, [5], record_full=True)
        b = simulate_runs(config, [5], record_full=True)
        np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
        np.testing.assert_array_equal(a.hit, b.hit)
        np.testing.assert_array_equal(a.clip_events, b.clip_events)

    def test_distinct_runs_differ(self):
        config = solvable_instance(T=16)
        a = simulate_runs(config, [0], record_full=True)
        b = simulate_runs(config, [1], record_full=True)
        assert not np.array_equal(a.grad_norm_sq, b.grad_norm_sq)

    def test_run_matches_ensemble_row(self):
        config = solvable_instance(T=10)
        arrays = simulate_runs(config, range(6), record_full=True)
        run = simulate_runs(config, [3], record_full=True)
        np.testing.assert_array_equal(arrays.grad_norm_sq[3], run.grad_norm_sq[0])

    def test_stuck_event_probability(self):
        # staying at x1 requires the minus noise atom at every update
        config = solvable_instance(T=6, seed=99)
        arrays = simulate_runs(config, range(20000), record_full=True)
        stuck = np.all(np.isclose(arrays.grad_norm_sq, 0.36), axis=1)
        assert np.mean(stuck) == pytest.approx(2.0**-5, abs=0.004)

    def test_no_clip_equivalence_and_boundedness(self):
        vanilla = solvable_instance(T=40)
        clipped = solvable_instance(clip=ClipSpec(kind="constant", G_or_C=2.0), T=40)
        a = simulate_runs(vanilla, range(3000), record_full=True)
        b = simulate_runs(clipped, range(3000), record_full=True)
        np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
        assert np.all(b.clip_events == 0)
        # ||x_t|| <= G throughout (grad = x inside the ball, so gns = ||x||^2)
        assert np.all(a.grad_norm_sq <= 1.0 + 1e-12)

    def test_running_stats_and_hitting_consistency(self):
        config = solvable_instance(T=24)
        arrays = simulate_runs(config, range(500), record_full=True)
        assert np.all(np.diff(arrays.running_min, axis=1) <= 0)
        assert np.all(arrays.running_avg >= arrays.running_min - 1e-12)

    def test_divergence_guard(self):
        cost = PseudoHuberCost(1.0, 2)
        config = RunConfig(
            cost=cost,
            oracle=AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.5, dim=2)),
            init_x1=np.array([1.0, 1.0]),
            horizon_T=5,
            step_schedule=ScheduleSpec(kind="constant", value=1e12),
            clip_schedule=None,
            seed=0,
            epsilon_grid=np.array([0.5]),
        )
        run = simulate_runs(config, [0], record_full=True)
        assert run.diverged[0]
        assert run.hit[0, 0] == config.horizon_T + 1

    def test_lean_and_full_agree(self):
        config = solvable_instance(T=12)
        lean = simulate_runs(config, range(200), record_full=False)
        full = simulate_runs(config, range(200), record_full=True)
        for name in ("run_indices", "diverged", "clip_events", "hit"):
            got, want = getattr(lean, name), getattr(full, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert lean.grad_norm_sq is None and full.grad_norm_sq.shape == (200, 12)
        # the hitting times are the exceedance times of the full record's F_t
        for j, e in enumerate(config.epsilon_grid):
            np.testing.assert_array_equal(lean.hit[:, j] - 1, np.sum(full.running_min > e, axis=1))

    @pytest.mark.parametrize("record_full", [False, True], ids=["lean", "full"])
    def test_no_runs_give_empty_arrays(self, record_full):
        for name in PRESET_NAMES:
            config = parse_config(preset_config(name)).run_config
            arrays = simulate_runs(config, [], record_full=record_full)
            assert arrays.n_runs == 0 and arrays.diverged_count == 0
            assert arrays.hit.shape == (0, config.epsilon_grid.size)
            if record_full:
                assert arrays.grad_norm_sq.shape == (0, config.horizon_T)
                assert arrays.running_min.shape == arrays.running_avg.shape == (0, config.horizon_T)

    def test_invariant_violations_rejected(self):
        arrays = simulate_runs(solvable_instance(T=12), range(64), record_full=True)
        assert np.any(arrays.hit <= 12)
        late = arrays.hit.copy()
        late[late <= 12] += 1
        broken = [
            dataclasses.replace(arrays, hit=np.zeros_like(arrays.hit)),
            dataclasses.replace(arrays, hit=np.full_like(arrays.hit, 14)),
            dataclasses.replace(arrays, diverged=arrays.hit[:, 0] <= 12),
            dataclasses.replace(arrays, hit=late),
            dataclasses.replace(arrays, clip_events=np.full_like(arrays.clip_events, -1)),
            dataclasses.replace(arrays, clip_events=np.full_like(arrays.clip_events, 12)),
            dataclasses.replace(arrays, diverged_steps=np.eye(12, dtype=np.int64)[3]),
            dataclasses.replace(arrays, clipped_steps=np.eye(12, dtype=np.int64)[3]),
        ]
        messages = ["outside", "outside", "diverged run hit", "exceedance disagree", "clip count", "clip count",
                    "per-step diverged counts", "per-step clip counts"]
        for bad, message in zip(broken, messages):
            with pytest.raises(ValueError, match=message):
                optimizers._assert_invariants(bad)
        # T - 1 = 11 updates: a run clipped at every one of them is valid
        every_update = np.append(np.full(11, 64), 0)
        optimizers._assert_invariants(
            dataclasses.replace(arrays, clip_events=np.full_like(arrays.clip_events, 11), clipped_steps=every_update)
        )
        two = simulate_runs(solvable_instance(T=12, n_eps=(0.1, 0.2)), range(64))
        later = np.tile(np.array([[2, 3]], dtype=np.int32), (64, 1))
        with pytest.raises(ValueError, match="larger epsilon was hit later"):
            optimizers._assert_invariants(dataclasses.replace(two, hit=later))


def _batch_subsample_config():
    doc = preset_config("sgd-bounded")
    doc["cost"] = {"name": "batch-logistic", "m": 12, "dim": 3, "dataset_seed": 4}
    doc["oracle"] = {"mode": "batch-subsample", "batch_size": 4}
    doc["method"] = {"kind": "vanilla", "step": {"kind": "constant", "c": 0.2}}
    doc["ensemble"]["init_x1"] = [1.0, -1.0, 0.5]
    doc["ensemble"]["horizon_T"] = 60
    return parse_config(doc).run_config


_INVARIANCE_CONFIGS = [
    *((name, lambda name=name: parse_config(preset_config(name)).run_config) for name in PRESET_NAMES),
    ("batch-subsample", _batch_subsample_config),
]


_SUMMARIES = ("run_indices", "diverged", "clip_events", "hit", "grad_norm_sq")


def _summaries(*parts):
    return {name: np.concatenate([getattr(p, name) for p in parts]) for name in _SUMMARIES}


@pytest.mark.parametrize("make_config", [c for _, c in _INVARIANCE_CONFIGS], ids=[n for n, _ in _INVARIANCE_CONFIGS])
def test_results_independent_of_chunks_and_slabs(make_config, monkeypatch):
    # streams are keyed per run, so neither the runs per call nor the runs
    # per drawing slab may change a single bit, down to a one-run call, which
    # README and EnsembleArrays name as run i's reference
    config = make_config()
    # full mode: every step of every run, not only the per-run summaries
    whole = _summaries(simulate_runs(config, np.arange(3000), record_full=True))
    pieces = _summaries(
        *(simulate_runs(config, np.arange(lo, min(lo + 777, 3000)), record_full=True) for lo in range(0, 3000, 777))
    )
    # slabs of 97 runs, the last one short
    per_run = 8 * (config.horizon_T - 1) * sum(config.oracle.raw_widths())
    monkeypatch.setattr(oracles, "_SLAB_RAW_BYTES", 97 * per_run)
    slabs = _summaries(simulate_runs(config, np.arange(3000), record_full=True))
    for name in _SUMMARIES:
        np.testing.assert_array_equal(whole[name], pieces[name], err_msg=name)
        np.testing.assert_array_equal(whole[name], slabs[name], err_msg=name)
    for i in (0, 777, 2999):
        alone = _summaries(simulate_runs(config, [i], record_full=True))
        for name in _SUMMARIES:
            np.testing.assert_array_equal(whole[name][i : i + 1], alone[name], err_msg=f"run {i}: {name}")


@pytest.mark.parametrize(
    "runs", [[1.5, 2.9], [True, False], np.array([0.0, 1.0])], ids=["floats", "bools", "float-array"]
)
def test_run_indices_are_integers(runs):
    # these used to run, and record, runs 1 and 2, or 1 and 0
    config = solvable_instance(T=4)
    with pytest.raises(ValueError, match="^run_indices must be integers, got"):
        simulate_runs(config, runs)
    with pytest.raises(ValueError, match="^run_indices must be integers, got"):
        config.oracle.randomness_block(config.seed, runs, 3)


def _diverging_config():
    cost = PseudoHuberCost(1.0, 2)
    return RunConfig(
        cost=cost,
        oracle=AdditiveOracle(cost=cost, noise=SphereNoise(radius=0.5, dim=2)),
        init_x1=np.array([1.0, 1.0]),
        horizon_T=5,
        step_schedule=ScheduleSpec(kind="constant", value=1e12),
        clip_schedule=None,
        seed=0,
        epsilon_grid=np.array([0.5]),
    )


def _diverging_clipped_config():
    # clipped steps of 0.8e9 to 1.2e9: 57 of runs 0..63 diverge, at t = 2, 4
    # and 6, and each clipped update of a run is counted until it diverges
    return dataclasses.replace(
        _diverging_config(),
        horizon_T=8,
        step_schedule=ScheduleSpec(kind="constant", value=1.6e9),
        clip_schedule=ClipSpec(kind="constant", G_or_C=0.75),
    )


@pytest.mark.parametrize(
    "make_config",
    [c for _, c in _INVARIANCE_CONFIGS] + [_diverging_config],
    ids=[n for n, _ in _INVARIANCE_CONFIGS] + ["diverged"],
)
def test_derived_running_stats_equal_per_step_loop(make_config):
    # running_min and running_avg are derived from grad_norm_sq; they must be
    # bitwise what a running minimum and running sum updated per step give
    config = make_config()
    arrays = simulate_runs(config, np.arange(300), record_full=True)
    gns = arrays.grad_norm_sq
    fmin = np.full(arrays.n_runs, np.inf)
    fsum = np.zeros(arrays.n_runs)
    want_min, want_avg = np.empty_like(gns), np.empty_like(gns)
    for t in range(1, config.horizon_T + 1):
        fmin = np.minimum(fmin, gns[:, t - 1])
        fsum += gns[:, t - 1]
        want_min[:, t - 1] = fmin
        want_avg[:, t - 1] = fsum / t
    assert arrays.running_min.tobytes() == want_min.tobytes()
    assert arrays.running_avg.tobytes() == want_avg.tobytes()
    if make_config is _diverging_config:
        assert arrays.diverged.all() and np.isinf(want_avg[:, -1]).all()


def _huber_gaussian_d9_config():
    # nine coordinates: squared norms take numpy's pairwise-sum path; the
    # start lies outside the Huber ball and the constant threshold binds
    doc = preset_config("appendix-f")
    doc["cost"] = {"name": "huber", "threshold_G": 1.0, "dim": 9}
    doc["oracle"] = {"mode": "additive-noise", "noise": {"kind": "gaussian", "scale": 0.7}}
    doc["method"] = {
        "kind": "clipped",
        "step": {"kind": "sgd-sqrt", "a": 0.5},
        "clip": {"kind": "constant", "threshold": 1.5},
    }
    doc["ensemble"]["init_x1"] = [1.0, -0.8, 0.6, -0.4, 0.2, 0.1, -0.1, 0.3, 0.5]
    doc["ensemble"]["horizon_T"] = 40
    doc["ensemble"]["t_grid"] = list(range(1, 40))
    return parse_config(doc).run_config


# The first 16 hex digits of sha256(dtype, shape, bytes) of every PER_RUN
# field of runs 0..511 in full mode, recorded on numpy 2.4.6 with the
# row-major recursion (one run per row) that the dimension-major one replaced.  A change of
# layout, reduction order or schedule evaluation that moves one bit fails here.
# The integer fields are the same at every SIMD dispatch level.  The bits of
# grad_norm_sq (exp, log, pow, the Pareto noise) are not, so its digest is
# the one at numpy's baseline level, which every x86-64 CPU runs.
_PINNED_RUN_DIGESTS = {
    "appendix-f": {
        "run_indices": "233812e01b7645f8",
        "diverged": "f3c6635d8c166cdc",
        "clip_events": "e4249264cfe8930d",
        "hit": "4c392024c725aad6",
        "grad_norm_sq": "702c8f354ac57571",
    },
    "sgd-bounded": {
        "run_indices": "233812e01b7645f8",
        "diverged": "f3c6635d8c166cdc",
        "clip_events": "e4249264cfe8930d",
        "hit": "fccfb3f62063879f",
        "grad_norm_sq": "daea8efc56170996",
    },
    "csgd-pareto": {
        "run_indices": "233812e01b7645f8",
        "diverged": "f3c6635d8c166cdc",
        "clip_events": "91dba0c92fd5d3ac",
        "hit": "c2f1de18a594342b",
        "grad_norm_sq": "254b52026e24b480",
    },
    "batch-subsample": {
        "run_indices": "233812e01b7645f8",
        "diverged": "f3c6635d8c166cdc",
        "clip_events": "e4249264cfe8930d",
        "hit": "b9f63153dceea018",
        "grad_norm_sq": "a0dd58223cd59365",
    },
    "diverged": {
        "run_indices": "233812e01b7645f8",
        "diverged": "bfeba188e703ab45",
        "clip_events": "e4249264cfe8930d",
        "hit": "e314e0745d5e4610",
        "grad_norm_sq": "18871ece799329ad",
    },
    "huber-gaussian-d9": {
        "run_indices": "233812e01b7645f8",
        "diverged": "f3c6635d8c166cdc",
        "clip_events": "c10d37f76d8c7c1a",
        "hit": "279397925b0ee86e",
        "grad_norm_sq": "adc3898037775f47",
    },
}

_PINNED_CONFIGS = _INVARIANCE_CONFIGS + [
    ("diverged", _diverging_config),
    ("huber-gaussian-d9", _huber_gaussian_d9_config),
]
_INTEGER_FIELDS = EnsembleArrays.PER_RUN[:-1]  # every field but grad_norm_sq


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def pinned_float_digests() -> dict:
    """grad_norm_sq's digest of each pinned config, in this process."""
    return {
        name: _digest(simulate_runs(make_config(), np.arange(512), record_full=True).grad_norm_sq)
        for name, make_config in _PINNED_CONFIGS
    }


@pytest.mark.parametrize("name,make_config", _PINNED_CONFIGS, ids=[n for n, _ in _PINNED_CONFIGS])
def test_step_counts_count_each_event_at_its_step(name, make_config):
    # a run diverges at the first step whose ||grad f(x_t)||^2 is recorded as
    # inf, first hits each epsilon at its hitting time, and the clipped
    # counts of a set of runs are the sums over any split of it
    config = make_config()
    T = config.horizon_T
    arrays = simulate_runs(config, np.arange(300), record_full=True)
    onset = np.argmax(np.isinf(arrays.grad_norm_sq[arrays.diverged]), axis=1) + 1
    np.testing.assert_array_equal(arrays.diverged_steps, np.bincount(onset, minlength=T + 1)[1:])
    table = arrays.step_table()
    assert table.dtype == np.int64 and table.shape == (T, 2 + config.epsilon_grid.size)
    np.testing.assert_array_equal(table[:, :2], np.column_stack([arrays.diverged_steps, arrays.clipped_steps]))
    for j in range(config.epsilon_grid.size):
        np.testing.assert_array_equal(table[:, 2 + j], [np.sum(arrays.hit[:, j] == t) for t in range(1, T + 1)])
    parts = [simulate_runs(config, np.arange(lo, lo + 100)) for lo in (0, 100, 200)]
    np.testing.assert_array_equal(sum(p.clipped_steps for p in parts), arrays.clipped_steps)
    assert arrays.clipped_steps[-1] == 0
    assert (arrays.diverged_count > 0) == (name == "diverged")


def at_baseline_dispatch(module: str, function: str):
    """``module.function()``'s JSON result from a process whose numpy has every
    SIMD dispatch target of its build disabled, so that it runs the baseline
    level: the bits of exp, log and pow are then those of any x86-64 CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    import ldplab

    paths = [os.path.dirname(os.path.abspath(__file__)), os.path.dirname(os.path.dirname(ldplab.__file__))]
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
        PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]),
    )
    code = f"import json, {module}; print(json.dumps({module}.{function}()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def baseline_float_digests():
    """pinned_float_digests() at numpy's baseline dispatch level."""
    return at_baseline_dispatch("test_optimizers", "pinned_float_digests")


@pytest.mark.parametrize("name,make_config", _PINNED_CONFIGS, ids=[n for n, _ in _PINNED_CONFIGS])
def test_per_run_outputs_pinned(name, make_config, baseline_float_digests):
    pinned = _PINNED_RUN_DIGESTS[name]
    assert baseline_float_digests[name] == pinned["grad_norm_sq"]
    config = make_config()
    full = simulate_runs(config, np.arange(512), record_full=True)
    lean = simulate_runs(config, np.arange(512))
    assert lean.grad_norm_sq is None
    for arrays in (full, lean):
        assert {f: _digest(getattr(arrays, f)) for f in _INTEGER_FIELDS} == {f: pinned[f] for f in _INTEGER_FIELDS}


def _reference_runs(config, run_indices) -> dict:
    """simulate_runs' record in full mode, made one run at a time and one
    step at a time, the iterate a row-major (dim,) float64 vector.  Each
    step reads the run's column of ``randomness_block`` through the oracle's
    ``outputs_at``, so the reference follows any change of the draws.  A
    squared norm is ``np.sum`` over the row, the order ``sq_norms`` keeps."""
    T, eps = config.horizon_T, config.epsilon_grid
    randomness = config.oracle.randomness_block(config.seed, run_indices, T - 1)
    n = len(run_indices)
    out = {
        "diverged": np.zeros(n, dtype=bool),
        "clip_events": np.zeros(n, dtype=np.int64),
        "hit": np.full((n, eps.size), T + 1, dtype=np.int32),
        "grad_norm_sq": np.full((n, T), np.inf),  # inf from a run's divergence on
        "diverged_steps": np.zeros(T, dtype=np.int64),
        "clipped_steps": np.zeros(T, dtype=np.int64),
    }
    for i in range(n):
        x = config.init_x1.copy()
        for t in range(1, T + 1):
            if not np.sum(x * x) <= optimizers.DIVERGENCE_LIMIT**2:  # a NaN norm diverges too
                out["diverged"][i] = True
                out["diverged_steps"][t - 1] += 1
                out["hit"][i] = T + 1  # a diverged run hits no threshold, even one it hit before
                break
            grad = config.cost.gradient(x)
            gns = out["grad_norm_sq"][i, t - 1] = np.sum(grad * grad)
            out["hit"][i, (out["hit"][i] == T + 1) & (gns <= eps)] = t
            if t == T:
                break
            g = config.oracle.outputs_at(x, randomness[t - 1][..., i][None])[0]
            if config.clip_schedule is not None:
                norm, gamma = np.sqrt(np.sum(g * g)), clip_threshold(config.clip_schedule, t)
                if norm > gamma:
                    g = g * (gamma / norm)
                    out["clip_events"][i] += 1
                    out["clipped_steps"][t - 1] += 1
            x = x - step_size(config.step_schedule, t) * g
    return out


# the pinned configs, and one whose runs diverge after clipped steps
_REFERENCE_CONFIGS = _PINNED_CONFIGS + [("diverged-clipped", _diverging_clipped_config)]


@pytest.mark.parametrize("name,make_config", _REFERENCE_CONFIGS, ids=[n for n, _ in _REFERENCE_CONFIGS])
def test_runs_equal_the_one_run_reference(name, make_config):
    # the recursion against a loop that shares none of its layout or masks;
    # unlike the digests above, this holds after a change of the draws
    config = make_config()
    runs = np.arange(64)
    want = _reference_runs(config, runs)
    got = simulate_runs(config, runs, record_full=True)
    for field, value in want.items():
        mine = getattr(got, field)
        assert (mine.dtype, mine.shape) == (value.dtype, value.shape), field
        if field != "grad_norm_sq":
            assert mine.tobytes() == value.tobytes(), field
    # the logistic cost's products go through BLAS as one row here and as a
    # (runs, dim) matrix in simulate_runs, which may round apart: 8 ulps
    # apart at most on these 64 runs, 11 on 2048, when measured
    ulps = np.abs(got.grad_norm_sq.view(np.int64) - want["grad_norm_sq"].view(np.int64))
    assert ulps.max() <= (16 if isinstance(config.cost, LogisticBatchCost) else 0)
    assert (got.diverged_count > 0) == name.startswith("diverged")


def test_a_diverged_run_stays_at_x1(monkeypatch):
    # from the step at which a run is found diverged, the cost sees it at its
    # placeholder x_1: it neither keeps its diverged iterate nor steps on
    # from x_1.  No output shows this, as a diverged run's records are masked
    seen = []
    gradient = PseudoHuberCost.gradient

    def recording_gradient(self, x, axis=-1):
        seen.append(x.copy())
        return gradient(self, x, axis)

    monkeypatch.setattr(PseudoHuberCost, "gradient", recording_gradient)
    config = _diverging_clipped_config()
    arrays = simulate_runs(config, np.arange(64), record_full=True)
    assert len(seen) == config.horizon_T and arrays.diverged.any()
    onset = np.argmax(np.isinf(arrays.grad_norm_sq), axis=1)  # the step index, from 0
    for run in np.flatnonzero(arrays.diverged):
        for x in seen[onset[run] :]:
            np.testing.assert_array_equal(x[:, run], config.init_x1)
