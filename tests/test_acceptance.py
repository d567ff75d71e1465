"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Statistical criteria use fixed seeds and their stated
sample sizes and tolerances.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ldplab.cli import main
from ldplab.config import parse_config, preset_config
from ldplab.costs import HuberCost
from ldplab.montecarlo import (
    appendix_f_enumeration,
    estimate_tail,
    fit_decay,
    run_ensemble,
    tail_from_hitting_times,
    verify_lemma_suite,
    TailEstimate,
)
from ldplab.optimizers import (
    ClipSpec,
    RunConfig,
    ScheduleSpec,
    clip_threshold,
    simulate_runs,
    step_size,
)
from ldplab.oracles import AdditiveOracle, TwoPointNoise
from ldplab.theory import (
    decay_family,
    lower_bound_exact_prob,
    rate_csgd,
    rate_csgd_generalC,
    rate_sgd,
    transform_consistency,
)

X1 = np.array([0.6, 0.0])
EPS_HALF = 0.18  # ||x1||^2 / 2


def _report(criterion: str, ok: bool, detail: str, elapsed: float):
    line = f"ACCEPTANCE {criterion}: {'pass' if ok else 'FAIL'} ({detail}; {elapsed:.2f}s)"
    print(line)
    assert ok, line


def solvable_config(clipped=True, T=16, seed=20260801, n_eps=(0.18,)):
    cost = HuberCost(1.0, 2)
    oracle = AdditiveOracle(cost=cost, noise=TwoPointNoise(v=X1))
    return RunConfig(
        cost=cost,
        oracle=oracle,
        init_x1=X1,
        horizon_T=T,
        step_schedule=ScheduleSpec(kind="sgd-sqrt", value=0.5),
        clip_schedule=ClipSpec(kind="constant", G_or_C=2.0) if clipped else None,
        seed=seed,
        epsilon_grid=np.array(n_eps),
    )


def test_criterion_1_exact_enumeration():
    t0 = time.perf_counter()
    probs = appendix_f_enumeration(20)
    elapsed = time.perf_counter() - t0
    exact = all(probs[t] == Fraction(lower_bound_exact_prob(t)) for t in range(1, 21))
    _report(
        "1 (exact stuck-event law)",
        exact and elapsed < 1.0,
        f"t=1..20 dyadic equality={exact}",
        elapsed,
    )


def test_criterion_2_monte_carlo_lower_bound():
    t0 = time.perf_counter()
    config = solvable_config(T=16)
    res = run_ensemble(config, 2**20)
    tail = estimate_tail(res, EPS_HALF, np.arange(2, 16))
    elapsed = time.perf_counter() - t0

    ok = res.diverged_count == 0
    worst = math.inf
    for t, p, lo, hi in zip(tail.t_grid, tail.p_hat, tail.ci_low, tail.ci_high):
        half = (hi - lo) / 2.0
        target = 2.0 ** (1 - int(t))
        if t <= 12:
            margin = p - (target - 3.0 * half)
            worst = min(worst, margin)
            ok &= margin >= 0.0
        ok &= hi >= target  # interval reaches the exact contribution, t <= 15
    _report(
        "2 (2^20-run tail lower bound)",
        ok and elapsed < 60.0,
        f"N=2^20, t=2..12 margin_min={worst:.2e}",
        elapsed,
    )


def test_criterion_3_no_clip_equivalence():
    t0 = time.perf_counter()
    vanilla = solvable_config(clipped=False, T=100)
    clipped = solvable_config(T=100)
    n, chunk = 10**5, 1 << 14
    identical = True
    bounded = True
    clip_events = 0
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        a = simulate_runs(vanilla, idx, record_full=True)
        b = simulate_runs(clipped, idx, record_full=True)
        identical &= np.array_equal(a.grad_norm_sq, b.grad_norm_sq)
        identical &= np.array_equal(a.hit, b.hit)
        clip_events += int(b.clip_events.sum())
        # iterates stay in the ball of radius G, where grad f(x) = x
        bounded &= bool(np.all(b.grad_norm_sq <= 1.0))
    elapsed = time.perf_counter() - t0
    _report(
        "3 (no-clip equivalence)",
        identical and bounded and clip_events == 0 and elapsed < 30.0,
        f"10^5 runs, T=100, identical={identical}, ||x_t||<=G={bounded}, "
        f"clip_events={clip_events}",
        elapsed,
    )


def test_criterion_4_rate_function_consistency():
    t0 = time.perf_counter()
    cases = [
        ("I_v", rate_sgd(1.0, 1.0)),
        ("I_c p<2", rate_csgd(1.0, 1.5)),
        ("I_c p=2", rate_csgd(1.0, 2.0)),
        ("general-C p<2", rate_csgd_generalC(1.0, 3.0, 1.5)),
        ("general-C p=2", rate_csgd_generalC(1.0, 3.0, 2.0)),
    ]
    errs = {label: transform_consistency(rate) for label, rate in cases}
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    _report(
        "4 (conjugate reproduces closed forms)",
        worst <= 1e-3 and elapsed < 5.0,
        f"max rel err={worst:.2e} over {len(cases)} forms on x in [0,10]",
        elapsed,
    )


def test_criterion_5_bounded_noise_mgf_suite():
    t0 = time.perf_counter()
    r1 = verify_lemma_suite("mgf-bounded", n_samples=10**6, seed=11)
    r2 = verify_lemma_suite("mgf-inner", n_samples=10**6, seed=11)
    elapsed = time.perf_counter() - t0
    ok = r1.passed and r2.passed
    _report(
        "5 (bounded-noise MGF bounds)",
        ok and elapsed < 60.0,
        f"{len(r1.checks) + len(r2.checks)} checks at 10^6 samples, 5 SE slack",
        elapsed,
    )


def test_criterion_6_clipping_suite():
    t0 = time.perf_counter()
    r1 = verify_lemma_suite("clip-bias", n_samples=10**6, seed=13)
    r2 = verify_lemma_suite("clip-subgauss", n_samples=10**6, seed=13)
    elapsed = time.perf_counter() - t0
    ok = r1.passed and r2.passed
    _report(
        "6 (clipped-oracle bias and concentration)",
        ok and elapsed < 120.0,
        f"p in {{1.2,1.5,2.0}}, {len(r1.checks)}+{len(r2.checks)} checks at 10^6 samples",
        elapsed,
    )


def test_criterion_7_batch_hard_bound():
    t0 = time.perf_counter()
    report = verify_lemma_suite("batch-bound", n_samples=10**6, seed=17)
    elapsed = time.perf_counter() - t0
    ok = report.passed and all("0 violations" in c.label for c in report.checks)
    _report(
        "7 (subsample-noise hard bound)",
        ok and elapsed < 30.0,
        "10^6 queries, zero violations of the 2 G_ell bound",
        elapsed,
    )


def test_criterion_8_schedule_spot_checks():
    t0 = time.perf_counter()
    checks = [
        (step_size(ScheduleSpec(kind="sgd-sqrt", value=1.0), 1), 1.0 / math.sqrt(2.0)),
        (step_size(ScheduleSpec(kind="csgd-power", value=2.0), 3), 0.5),
        (step_size(ScheduleSpec(kind="csgd-power", value=1.5), 1), 2.0**-0.6),
        (clip_threshold(ClipSpec(kind="paper-eq5", G_or_C=1.0, p=2.0), 1), 2.0 * math.sqrt(math.log(2.0))),
        (clip_threshold(ClipSpec(kind="paper-eq5", G_or_C=1.0, p=1.5), 1), 2.0 * 2.0**0.1),
        (clip_threshold(ClipSpec(kind="general-C", G_or_C=4.0, p=2.0), math.e**2 - 1.0), 4.0 * math.sqrt(2.0)),
    ]
    ok = all(abs(got - want) <= 1e-12 for got, want in checks)
    rejected = False
    try:
        solvable_config(clipped=False, T=4)  # valid: a = 1/L
        cost = HuberCost(1.0, 2)
        RunConfig(
            cost=cost,
            oracle=AdditiveOracle(cost=cost, noise=TwoPointNoise(v=X1)),
            init_x1=X1,
            horizon_T=4,
            step_schedule=ScheduleSpec(kind="sgd-sqrt", value=1.01 / cost.smoothness_L),
            clip_schedule=None,
            seed=0,
            epsilon_grid=np.array([0.1]),
        )
    except ValueError:
        rejected = True
    elapsed = time.perf_counter() - t0
    _report(
        "8 (schedule spot checks)",
        ok and rejected,
        f"6 hand values at 1e-12, a=1.01/L rejected={rejected}",
        elapsed,
    )


def test_criterion_9_metric_invariants():
    t0 = time.perf_counter()
    plans = [("appendix-f", 4000), ("sgd-bounded", 3000), ("csgd-pareto", 3000)]
    checked = 0
    for name, n in plans:
        exp = parse_config(preset_config(name))
        arrays = simulate_runs(exp.run_config, np.arange(n), record_full=True)  # it checks its invariants
        ok_rows = ~arrays.diverged
        assert np.all(np.diff(arrays.running_min[ok_rows], axis=1) <= 0)
        tol = 1e-9 * np.maximum(1.0, np.abs(arrays.running_avg[ok_rows]))
        assert np.all(arrays.running_avg[ok_rows] >= arrays.running_min[ok_rows] - tol)
        checked += n
    elapsed = time.perf_counter() - t0
    _report(
        "9 (metric invariants on all presets)",
        checked == 10**4 and elapsed < 60.0,
        f"{checked} trajectories, min/avg/hitting invariants hard-asserted",
        elapsed,
    )


def test_criterion_10_decay_fit_self_consistency():
    t0 = time.perf_counter()
    names = ("sqrt-t", "t-over-log", "power-over-log", "t-over-log2", "linear-t")
    families = [decay_family(k, p=1.5 if k == "power-over-log" else None) for k in names]
    t_grid = np.unique(np.round(np.logspace(1, 4, 40)).astype(np.int64))
    ok = True
    for gen in families:
        c_true = 0.05 if gen.name == "linear-t" else 0.3
        p = np.exp(-c_true * np.asarray(gen.decay_rate_nt(t_grid.astype(float))))
        n = 10**9
        tail = TailEstimate(
            n_runs=n,
            epsilon=0.1,
            t_grid=t_grid,
            exceed_count=np.maximum((p * n).astype(np.int64), 0),
            p_hat=p,
            ci_low=np.maximum(p - 1e-9, 0.0),
            ci_high=np.minimum(p + 1e-9, 1.0),
        )
        fits = fit_decay(tail, families)
        own = next(f for f in fits if f.candidate == gen.name)
        best = max(fits, key=lambda f: f.r_squared)
        ok &= abs(own.slope_hat - c_true) <= 0.01 * c_true
        ok &= own.r_squared >= 0.9999
        ok &= best.candidate == gen.name
    elapsed = time.perf_counter() - t0
    _report(
        "10 (decay-fit self-consistency)",
        ok and elapsed < 5.0,
        "5 families: slope within 1%, R^2 >= 0.9999, generator wins",
        elapsed,
    )


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    doc = preset_config("appendix-f")
    doc["ensemble"]["n_runs"] = 4096
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    outs = []
    for tag, workers in (("a", 1), ("b", 4), ("c", 2)):
        out = tmp_path / tag
        code = main(
            ["simulate", "--config", str(config_path), "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        outs.append((out / "trajsummary.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outs[0] == outs[1] == outs[2]
    _report(
        "11 (byte-identical reproducibility)",
        ok and elapsed < 60.0,
        "cmd_simulate x3 at workers 1/4/2, identical CSV bytes",
        elapsed,
    )
