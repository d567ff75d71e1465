"""Ensemble execution, tail-probability estimation, and verification drivers.

Ensembles are data-parallel over run indices: results are an associative
reduction of per-chunk summaries, with a fixed chunk size, so any worker
count produces identical output.  Tail probabilities P(F_t > eps) are read
off recorded hitting times (F_t > eps iff the threshold was not hit by t)
with Wilson score intervals.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
import multiprocessing

import numpy as np
from scipy import stats

from .costs import huber_cost, synthetic_logistic_cost
from .oracles import (
    AdditiveOracle,
    BatchSubsampleOracle,
    SphereNoise,
    SymmetrizedParetoNoise,
    TwoPointNoise,
    clipping_bias_probe,
    _unit_rows,
)
from .optimizers import EnsembleArrays, RunConfig, TrajectoryRecord, simulate_runs
from .rng import run_generator

ENSEMBLE_CHUNK = 1 << 14  # fixed: chunk layout must not depend on worker count


class InsufficientDataError(ValueError):
    """Too few estimable tail points to fit a decay rate."""


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Summaries (and optionally full records) of N independent runs."""

    config: RunConfig
    arrays: EnsembleArrays
    record_full: bool

    @property
    def n_runs(self) -> int:
        return self.arrays.n_runs

    @property
    def diverged_count(self) -> int:
        return int(self.arrays.diverged.sum())

    def record(self, i: int) -> TrajectoryRecord:
        """TrajectoryRecord for the i-th run (full mode only)."""
        if not self.record_full:
            raise ValueError("ensemble was run in lean mode; re-run with record_full=True")
        return self.arrays.record(i)


def _concat_arrays(parts: list[EnsembleArrays]) -> EnsembleArrays:
    first = parts[0]
    cat = lambda name: np.concatenate([getattr(p, name) for p in parts])
    full = first.grad_norm_sq is not None
    return EnsembleArrays(
        run_indices=cat("run_indices"),
        epsilon_grid=first.epsilon_grid,
        horizon_T=first.horizon_T,
        diverged=cat("diverged"),
        clip_events=cat("clip_events"),
        hit=cat("hit"),
        final_min=cat("final_min"),
        final_avg=cat("final_avg"),
        grad_norm_sq=cat("grad_norm_sq") if full else None,
        running_min=cat("running_min") if full else None,
        running_avg=cat("running_avg") if full else None,
    )


def _chunk_job(args):
    config, lo, hi, record_full, check = args
    return simulate_runs(config, np.arange(lo, hi), record_full=record_full, check_invariants=check)


def run_ensemble(
    config: RunConfig,
    N: int,
    workers: int = 1,
    record_full: bool = False,
    check_invariants: bool = False,
) -> EnsembleResult:
    """N independent runs with indices 0..N-1.

    Streams are derived from (config.seed, run_index) only, and chunking is
    fixed, so the result is bit-identical for every ``workers`` setting.  At
    most min(workers, chunks, CPUs) worker processes are started.
    """
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValueError("N must be a positive integer")
    jobs = [
        (config, lo, min(lo + ENSEMBLE_CHUNK, N), record_full, check_invariants)
        for lo in range(0, N, ENSEMBLE_CHUNK)
    ]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        parts = [_chunk_job(j) for j in jobs]
    else:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            parts = list(pool.map(_chunk_job, jobs))
    return EnsembleResult(config=config, arrays=_concat_arrays(parts), record_full=record_full)


def wilson_interval(count, n: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion; vectorized in count."""
    count = np.asarray(count, dtype=np.float64)
    if n < 1:
        raise ValueError("n must be positive")
    z = stats.norm.ppf(0.5 + confidence / 2.0)
    p_hat = count / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    lo = np.clip(center - half, 0.0, 1.0)
    hi = np.clip(center + half, 0.0, 1.0)
    # the exact interval always contains p_hat; guard the <= against rounding
    return np.minimum(lo, p_hat), np.maximum(hi, p_hat)


@dataclass(frozen=True, eq=False)
class TailEstimate:
    """Exceedance estimates of P(F_t > epsilon) over an ensemble."""

    n_runs: int
    epsilon: float
    t_grid: np.ndarray
    exceed_count: np.ndarray
    p_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    diverged_count: int

    def __post_init__(self):
        # exceedance events are nested in t, so the estimates must be monotone
        if not np.all(np.diff(self.p_hat) <= 0):
            raise ValueError("tail estimates must be non-increasing in t")
        if not np.all((self.ci_low <= self.p_hat) & (self.p_hat <= self.ci_high)):
            raise ValueError("confidence intervals must contain p_hat")


def tail_from_hitting_times(
    hit: np.ndarray,
    horizon_T: int,
    epsilon: float,
    t_grid,
    diverged_count: int,
    confidence: float = 0.95,
) -> TailEstimate:
    """Tail estimate from one epsilon's hitting-time column.

    ``hit`` holds first hitting times with horizon_T + 1 (or any value > T)
    meaning "never within T"; F_t > eps iff hit > t.
    """
    t_grid = np.asarray(t_grid, dtype=np.int64)
    if t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be non-empty and strictly increasing")
    if t_grid[0] < 1 or t_grid[-1] > horizon_T:
        raise ValueError(f"t_grid must lie within [1, {horizon_T}]")
    hit = np.asarray(hit)
    n = hit.size
    order = np.sort(hit)
    # number of runs with hit > t == n - (#hit <= t)
    exceed = n - np.searchsorted(order, t_grid, side="right")
    p_hat = exceed / n
    lo, hi = wilson_interval(exceed, n, confidence)
    return TailEstimate(
        n_runs=int(n),
        epsilon=float(epsilon),
        t_grid=t_grid,
        exceed_count=exceed.astype(np.int64),
        p_hat=p_hat,
        ci_low=lo,
        ci_high=hi,
        diverged_count=int(diverged_count),
    )


def estimate_tail(result: EnsembleResult, epsilon: float, t_grid=None) -> TailEstimate:
    """P(F_t > epsilon) with Wilson 95% intervals, for one recorded epsilon."""
    eps_grid = result.config.epsilon_grid
    matches = np.flatnonzero(np.isclose(eps_grid, epsilon, rtol=1e-12, atol=0.0))
    if matches.size == 0:
        raise ValueError(
            f"epsilon={epsilon!r} is not in the config's epsilon_grid; "
            "hitting times were not recorded for it"
        )
    j = int(matches[0])
    T = result.config.horizon_T
    if t_grid is None:
        t_grid = np.arange(1, T + 1)
    return tail_from_hitting_times(
        result.arrays.hit[:, j],
        T,
        float(eps_grid[j]),
        t_grid,
        result.diverged_count,
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log p_hat(t) against -n_t for one candidate rate."""

    candidate: str
    slope_hat: float
    intercept: float
    r_squared: float
    points_used: int


def fit_decay(tail: TailEstimate, candidates) -> list[DecayFit]:
    """Fit each candidate decay family to the estimable part of the tail.

    Only points with exceed_count >= 30 (and t >= 3, where the decay
    sequences are meaningful) enter the regression.  slope_hat estimates the
    constant c in p(t) ~ exp(-c n_t).
    """
    usable = (tail.exceed_count >= 30) & (tail.t_grid >= 3)
    if int(usable.sum()) < 3:
        raise InsufficientDataError(
            f"only {int(usable.sum())} estimable tail points (need >= 3)"
        )
    t_use = tail.t_grid[usable].astype(np.float64)
    y = np.log(tail.p_hat[usable])
    fits = []
    for cand in candidates:
        xs = np.asarray(cand.decay_rate_nt(t_use), dtype=np.float64)
        design = np.column_stack([xs, np.ones_like(xs)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / max(ss_tot, 1e-300)
        fits.append(
            DecayFit(
                candidate=cand.name,
                slope_hat=float(-coef[0]),
                intercept=float(coef[1]),
                r_squared=float(r2),
                points_used=int(usable.sum()),
            )
        )
    return fits


# ---------------------------------------------------------------------------
# statistical verification suites
# ---------------------------------------------------------------------------

_MGF_NORM_MULTIPLIERS = (0.1, 1.0, 4.0 / 3.0, 2.0, 5.0)


@dataclass(frozen=True)
class LemmaCheck:
    """One empirical quantity against its asserted bound.

    slack is measured in standard errors: pass iff empirical <= bound + 5 se
    (exactly empirical <= bound when se = 0, e.g. hard a.s. bounds).
    """

    label: str
    empirical: float
    bound: float
    se: float
    passed: bool


@dataclass(frozen=True)
class LemmaSuiteReport:
    suite: str
    checks: list[LemmaCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(label: str, empirical: float, bound: float, se: float) -> LemmaCheck:
    # 1e-12 relative guard absorbs round-off when a bound is saturated
    # exactly (e.g. constant-norm noise), where the SE collapses to ~0
    ok = empirical <= bound + 5.0 * se + 1e-12 * abs(bound)
    return LemmaCheck(label, float(empirical), float(bound), float(se), bool(ok))


def _default_bounded_noises(M: float = 1.0, dim: int = 2):
    v = np.zeros(dim)
    v[0] = M
    return [TwoPointNoise(v=v), SphereNoise(radius=M, dim=dim)]


def _suite_mgf_bounded(n_samples, seed, noises=None) -> LemmaSuiteReport:
    """E[exp(||z||^2 / M^2)] <= e for a.s. M-bounded noise."""
    checks = []
    for k, noise in enumerate(noises or _default_bounded_noises()):
        M = noise.certificate()[1]
        z = noise.sample_block(run_generator(seed, k), n_samples)
        vals = np.exp(np.sum(z * z, axis=1) / M**2)
        est = float(vals.mean())
        se = float(vals.std() / math.sqrt(n_samples))
        checks.append(_check(f"{noise.kind} M={M:g}", est, math.e, se))
    return LemmaSuiteReport("mgf-bounded", checks)


def _suite_mgf_inner(n_samples, seed, noises=None, n_directions=8) -> LemmaSuiteReport:
    """E[exp(<x, z>)] <= exp(3 M^2 ||x||^2 / 4) on a grid spanning both
    concentration regimes (||x|| below and above 4/(3M))."""
    checks = []
    for k, noise in enumerate(noises or _default_bounded_noises()):
        M = noise.certificate()[1]
        rng = run_generator(seed, 1000 + k)
        dirs = _unit_rows(rng.standard_normal((n_directions, noise.dim)))
        z = noise.sample_block(rng, n_samples)
        proj = z @ dirs.T  # (n, n_directions)
        for mult in _MGF_NORM_MULTIPLIERS:
            r = mult / M
            vals = np.exp(r * proj)
            est = vals.mean(axis=0)
            se = vals.std(axis=0) / math.sqrt(n_samples)
            worst = int(np.argmax(est - 5.0 * se))
            bound = math.exp(3.0 * M**2 * r**2 / 4.0)
            checks.append(
                _check(
                    f"{noise.kind} ||x||={mult:g}/M (worst of {n_directions} dirs)",
                    float(est[worst]),
                    bound,
                    float(se[worst]),
                )
            )
    return LemmaSuiteReport("mgf-inner", checks)


def _clip_probe_grid(p_list, gammas, grad_fracs, n_samples, seed, dim=2):
    """Clipped-oracle probes over (p, gamma, ||grad||/gamma) combinations."""
    probes = []
    k = 0
    for p in p_list:
        noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=p + 0.5, moment_order=p, dim=dim)
        for gamma in gammas:
            for frac in grad_fracs:
                cost = huber_cost(threshold_G=max(50.0, gamma), dim=dim)
                x = np.zeros(dim)
                x[0] = frac * gamma  # inside the ball, so grad f(x) = x exactly
                oracle = AdditiveOracle(cost=cost, noise=noise)
                probe = clipping_bias_probe(
                    oracle, x, gamma, n_samples, run_generator(seed, 3000 + k)
                )
                probes.append((p, gamma, frac, probe))
                k += 1
    return probes


def _suite_clip_bias(n_samples, seed, p_list=(1.2, 1.5, 2.0), gammas=(2.0, 4.0, 8.0),
                     grad_fracs=(0.0, 0.25, 0.5)) -> LemmaSuiteReport:
    """||E[clipped] - grad f(x)|| <= 4 sigma^p gamma^(1-p) when ||grad|| <= gamma/2."""
    checks = []
    for p, gamma, frac, probe in _clip_probe_grid(p_list, gammas, grad_fracs, n_samples, seed):
        checks.append(
            _check(
                f"p={p:g} gamma={gamma:g} ||grad||={frac:g}*gamma",
                probe.bias_norm_estimate,
                probe.bias_bound,
                probe.bias_se,
            )
        )
    return LemmaSuiteReport("clip-bias", checks)


def _suite_clip_subgauss(n_samples, seed, p_list=(1.2, 1.5, 2.0), gammas=(2.0, 4.0, 8.0),
                         grad_fracs=(0.0, 0.5)) -> LemmaSuiteReport:
    """log E[exp(s <u, theta>)] <= 3 gamma^2 s^2 for the centred clipped output."""
    checks = []
    for p, gamma, frac, probe in _clip_probe_grid(p_list, gammas, grad_fracs, n_samples, seed):
        slack = probe.margins - 5.0 * probe.margin_ses
        worst = np.unravel_index(int(np.argmax(slack)), probe.margins.shape)
        checks.append(
            _check(
                f"p={p:g} gamma={gamma:g} ||grad||={frac:g}*gamma "
                f"(worst of {probe.margins.size} grid points)",
                float(probe.margins[worst]),
                0.0,
                float(probe.margin_ses[worst]),
            )
        )
    return LemmaSuiteReport("clip-subgauss", checks)


def _suite_batch_bound(n_queries, seed, m=64, dim=4, batch_sizes=(1, 8, 32)) -> LemmaSuiteReport:
    """Hard bound ||g - grad f(x)|| <= 2 G_ell for the subsample oracle."""
    cost = synthetic_logistic_cost(m=m, dim=dim, seed=seed)
    bound = 2.0 * cost.per_sample_grad_bound
    rng = run_generator(seed, 4000)
    x_points = 2.0 * rng.standard_normal((8, dim))
    per_combo = max(1, int(math.ceil(n_queries / (len(batch_sizes) * len(x_points)))))
    checks = []
    for b in batch_sizes:
        oracle = BatchSubsampleOracle(cost=cost, batch_size=b)
        worst = 0.0
        violations = 0
        total = 0
        for x in x_points:
            g = oracle.query_block(x, rng, per_combo)
            dev = np.linalg.norm(g - cost.gradient(x), axis=1)
            worst = max(worst, float(dev.max()))
            violations += int(np.sum(dev > bound))
            total += per_combo
        checks.append(
            _check(
                f"batch_size={b} ({total} queries, {violations} violations)",
                worst,
                bound,
                0.0,
            )
        )
    return LemmaSuiteReport("batch-bound", checks)


_LEMMA_SUITE_RUNNERS = {
    "mgf-bounded": _suite_mgf_bounded,
    "mgf-inner": _suite_mgf_inner,
    "clip-bias": _suite_clip_bias,
    "clip-subgauss": _suite_clip_subgauss,
    "batch-bound": _suite_batch_bound,
}
LEMMA_SUITES = tuple(_LEMMA_SUITE_RUNNERS)


def verify_lemma_suite(suite: str, n_samples: int = 10**6, seed: int = 20260801, **params) -> LemmaSuiteReport:
    """Run one statistical verification suite and report margins.

    Suites: 'mgf-bounded', 'mgf-inner' (bounded-noise MGF bounds),
    'clip-bias', 'clip-subgauss' (clipped-oracle bias bound and
    concentration), 'batch-bound' (hard subsample-noise bound).
    Precondition violations raise rather than count as statistical failures.
    """
    if suite not in _LEMMA_SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {LEMMA_SUITES}")
    return _LEMMA_SUITE_RUNNERS[suite](n_samples, seed, **params)


# ---------------------------------------------------------------------------
# exact enumeration of the stuck-at-initialization event
# ---------------------------------------------------------------------------


def appendix_f_enumeration(t_max: int, x1_norm: float = 0.6, G: float = 1.0) -> dict:
    """Exact probability that every iterate equals the initialization.

    Walks the exactly solvable instance (quadratic-inside-a-ball cost with
    gradient bound G, initialization of norm x1_norm in (0, G], noise +/- x1,
    step size 1/(2 sqrt(t+1))) as a dynamic program over reachable states on
    the initialization's axis, merging states and counting equally likely
    sign paths.  Returns {t: P(x_t = ... = x_1)} as exact dyadic Fractions
    for t = 1..t_max; the closed form is 2^(1-t).
    """
    if not (isinstance(t_max, (int, np.integer)) and 1 <= t_max <= 24):
        raise ValueError("t_max must be an integer in [1, 24]")
    if not 0.0 < x1_norm <= G:
        raise ValueError("x1_norm must lie in (0, G]")
    ratio = G / x1_norm  # ball radius in units of ||x_1||

    # state: coordinate c along x_1 (iterate = c * x_1), flag = "all iterates
    # so far equal x_1"; every sign path has equal probability
    cs = np.array([1.0])
    flags = np.array([1.0])
    counts = np.array([1], dtype=np.int64)
    result = {1: Fraction(1, 1)}

    for t in range(1, int(t_max)):
        alpha = 0.5 / math.sqrt(t + 1.0)
        grad = np.where(np.abs(cs) <= ratio, cs, ratio * np.sign(cs))
        child_plus = cs - alpha * (grad + 1.0)
        child_minus = cs - alpha * (grad - 1.0)
        new_cs = np.concatenate([child_plus, child_minus])
        new_flags = np.concatenate([flags * (child_plus == cs), flags * (child_minus == cs)])
        new_counts = np.concatenate([counts, counts])

        keys = new_cs + 1j * new_flags
        uniq, inverse = np.unique(keys, return_inverse=True)
        merged = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(merged, inverse, new_counts)
        cs, flags, counts = uniq.real, uniq.imag, merged

        stayed = int(counts[flags == 1.0].sum())
        result[t + 1] = Fraction(stayed, 2**t)
    return result
