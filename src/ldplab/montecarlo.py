"""Ensemble execution, tail-probability estimation, and verification drivers.

Ensembles are data-parallel over run indices: ``ensemble_chunks`` yields the
per-chunk summaries in run order as they finish, ``run_ensemble`` is their
concatenation, and every run draws from its own stream, so the chunk layout,
and with it the worker count, never changes a bit of the output.  Tail probabilities P(F_t > eps) are read
off recorded hitting times (F_t > eps iff the threshold was not hit by t)
with Wilson score intervals.
"""

from __future__ import annotations

import collections
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
import multiprocessing

import numpy as np

from .costs import HuberCost, int_param, is_int, real_param, sq_norms, synthetic_logistic_cost
from .oracles import (
    PROBE_MIN_SAMPLES,
    AdditiveOracle,
    BatchSubsampleOracle,
    SphereNoise,
    SymmetrizedParetoNoise,
    TwoPointNoise,
    clipping_bias_probe,
    _mgf_grid_moments,
    _unit_rows,
)
from .optimizers import MAX_HORIZON, EnsembleArrays, RunConfig, simulate_runs
from .rng import run_generator
from .theory import (
    DECAY_T_MIN,
    lower_bound_exact_prob,
    rate_csgd,
    rate_csgd_generalC,
    rate_sgd,
    transform_consistency,
)

ENSEMBLE_CHUNK = 1 << 14  # most runs per chunk; bounds a chunk's pre-drawn randomness
# An ensemble of at least this many run-steps (runs x horizon_T, a few tenths
# of a second of serial work) is split into a chunk per usable worker when it
# has fewer chunks; a smaller one stays serial, since starting a pool costs
# tens of milliseconds.
_SPLIT_MIN_RUN_STEPS = 1 << 20
_WILSON_Z = 1.959963984540054  # Wilson 95% z: the float64 normal quantile ndtri(0.5 + 0.95 / 2.0), bit for bit


class InsufficientDataError(ValueError):
    """Too few estimable tail points to fit a decay rate."""


def _chunk_job(args):
    config, lo, hi, record_full = args
    return simulate_runs(config, np.arange(lo, hi), record_full=record_full)


def ensemble_chunks(config: RunConfig, N: int, workers: int = 1, record_full: bool = False):
    """The runs 0..N-1 as a generator of ensemble-array chunks in run order,
    each yielded once it and every earlier chunk have finished.

    N and workers are checked when it is called, before any chunk runs.  The
    runs are cut into chunks of at most ENSEMBLE_CHUNK.  When that gives
    fewer chunks than min(workers, CPUs) and the ensemble has at least
    _SPLIT_MIN_RUN_STEPS run-steps, it is cut evenly into one chunk per usable
    worker instead.  Streams are derived from (config.seed, run_index) only,
    so the runs are bit-identical for every chunk layout and ``workers``
    setting.  At most min(workers, chunks, CPUs) worker processes are started,
    and at most two chunks per worker, plus one, are submitted and not yet
    taken, so the caller holds O(chunk) results at a time whatever N is;
    closing the generator cancels the chunks that have not started.
    """
    if not is_int(N):
        raise ValueError("N must be a positive integer")
    if not is_int(workers):
        raise ValueError(f"workers must be a positive integer, got {workers}")
    usable = min(workers, os.cpu_count() or 1)
    bounds = [*range(0, N, ENSEMBLE_CHUNK), N]
    if len(bounds) - 1 < usable and N * config.horizon_T >= _SPLIT_MIN_RUN_STEPS:
        n_chunks = min(usable, N)
        bounds = [N * k // n_chunks for k in range(n_chunks + 1)]
    jobs = [(config, lo, hi, record_full) for lo, hi in zip(bounds, bounds[1:])]
    return _chunk_results(jobs, min(usable, len(jobs)))


def _chunk_results(jobs, workers: int):
    if workers == 1:
        for job in jobs:
            yield _chunk_job(job)
        return
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        pending = collections.deque()
        try:
            for job in jobs:
                pending.append(pool.submit(_chunk_job, job))
                # two chunks per worker keep every worker busy while the caller takes the oldest
                if len(pending) > 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def run_ensemble(config: RunConfig, N: int, workers: int = 1, record_full: bool = False) -> EnsembleArrays:
    """N independent runs with indices 0..N-1, as one set of ensemble arrays:
    the concatenation of ``ensemble_chunks(config, N, workers, record_full)``,
    bit-identical for every ``workers`` setting."""
    return EnsembleArrays.concatenate(list(ensemble_chunks(config, N, workers, record_full)))


def wilson_interval(count, n: int):
    """Wilson score 95% interval for a binomial proportion; vectorized in count."""
    count = np.asarray(count, dtype=np.float64)
    int_param("n", n)
    z = _WILSON_Z
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

    def __post_init__(self):
        # exceedance events are nested in t, so the estimates must be monotone
        if not np.all(np.diff(self.p_hat) <= 0):
            raise ValueError("tail estimates must be non-increasing in t")
        if not np.all((self.ci_low <= self.p_hat) & (self.p_hat <= self.ci_high)):
            raise ValueError("confidence intervals must contain p_hat")


def tail_from_counts(
    t_grid,
    exceed_count,
    n_runs: int,
    epsilon: float,
) -> TailEstimate:
    """Tail estimate from the number of runs, out of n_runs, with F_t > epsilon
    at each t; the only place p_hat and its Wilson 95% interval are computed.
    ValueError unless the steps pass ``check_t_grid`` up to MAX_HORIZON, n_runs
    is an integer >= 1, there is one count per step, every count lies in
    [0, n_runs] and epsilon is finite."""
    t_grid = check_t_grid(t_grid, MAX_HORIZON)
    n_runs = int_param("n_runs", n_runs)
    exceed = np.asarray(exceed_count, dtype=np.int64)
    if exceed.shape != t_grid.shape:
        raise ValueError(f"{t_grid.size} steps need as many exceedance counts, got shape {exceed.shape}")
    if np.any((exceed < 0) | (exceed > n_runs)):
        raise ValueError(f"exceedance counts must lie in [0, N = {n_runs}]")
    epsilon = real_param("epsilon", epsilon)
    lo, hi = wilson_interval(exceed, n_runs)
    return TailEstimate(
        n_runs=n_runs,
        epsilon=epsilon,
        t_grid=t_grid,
        exceed_count=exceed,
        p_hat=exceed / n_runs,
        ci_low=lo,
        ci_high=hi,
    )


def check_t_grid(t_grid, horizon_T: int) -> np.ndarray:
    """The steps of a tail grid as int64; ValueError unless they are integers
    (an array by its dtype, a list or tuple by is_int on each step: no bool),
    non-empty, strictly increasing and in [1, horizon_T], compared before the
    conversion."""
    if isinstance(t_grid, np.ndarray):
        integral = t_grid.dtype.kind in "iu"
    else:
        integral = isinstance(t_grid, (list, tuple)) and all(is_int(t, None) for t in t_grid)
    if not integral:
        raise ValueError(f"t_grid steps must be integers, got {t_grid!r}")
    steps = np.asarray(t_grid)
    increasing = steps.ndim == 1 and steps.size > 0 and not np.any(steps[1:] <= steps[:-1])
    if not (increasing and 1 <= steps[0] and steps[-1] <= horizon_T):
        raise ValueError(f"t_grid must be non-empty, strictly increasing and within [1, {horizon_T}]")
    return steps.astype(np.int64)


def tail_from_hitting_times(
    hit: np.ndarray,
    horizon_T: int,
    epsilon: float,
    t_grid,
) -> TailEstimate:
    """Tail estimate from one epsilon's hitting-time column.

    ``hit`` holds first hitting times with horizon_T + 1 (or any value > T)
    meaning "never within T"; F_t > eps iff hit > t.
    """
    t_grid = check_t_grid(t_grid, horizon_T)
    hit = np.asarray(hit)
    n = hit.size
    # number of runs with hit > t == n - (#hit <= t)
    exceed = n - np.searchsorted(np.sort(hit), t_grid, side="right")
    return tail_from_counts(t_grid, exceed, n, epsilon)


def epsilon_index(recorded, epsilon: float) -> int:
    """Position of epsilon among the recorded thresholds, equal to a relative
    1e-12; ValueError when hitting times were not recorded for it."""
    for j, e in enumerate(recorded):
        if math.isclose(e, epsilon, rel_tol=1e-12):
            return j
    raise ValueError(
        f"epsilon={epsilon!r} is not in the epsilon_grid {[float(e) for e in recorded]}; "
        "hitting times were not recorded for it"
    )


def estimate_tail(arrays: EnsembleArrays, epsilon: float, t_grid=None) -> TailEstimate:
    """P(F_t > epsilon) with Wilson 95% intervals, for one recorded epsilon."""
    j = epsilon_index(arrays.epsilon_grid, epsilon)
    T = arrays.horizon_T
    if t_grid is None:
        t_grid = np.arange(1, T + 1)
    return tail_from_hitting_times(arrays.hit[:, j], T, float(arrays.epsilon_grid[j]), t_grid)


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
    usable = (tail.exceed_count >= 30) & (tail.t_grid >= DECAY_T_MIN)
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

    In the statistical suites slack is measured in standard errors: pass iff
    empirical <= bound + 5 se (exactly empirical <= bound when se = 0, e.g.
    hard a.s. bounds).  appendix-f-enum passes on exact equality with the
    closed form, rates on an error at most its tolerance.
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


# the a.s. M-bounded noises of the MGF suites (M = 1, dimension 2) and the
# number of directions x in mgf-inner's grid
_MGF_NOISES = (TwoPointNoise(v=np.array([1.0, 0.0])), SphereNoise(radius=1.0, dim=2))
_MGF_DIRECTIONS = 8
# the clip suites' grid in dimension _CLIP_DIM: moment orders p (Pareto tail
# index p + 0.5), thresholds gamma, and each suite's ||grad f(x)||/gamma
_CLIP_P, _CLIP_GAMMAS, _CLIP_DIM = (1.2, 1.5, 2.0), (2.0, 4.0, 8.0), 2
_CLIP_BIAS_FRACS, _CLIP_SUBGAUSS_FRACS = (0.0, 0.25, 0.5), (0.0, 0.5)
# batch-bound: a synthetic logistic cost of _BATCH_M samples in dimension _BATCH_DIM
_BATCH_M, _BATCH_DIM, _BATCH_SIZES = 64, 4, (1, 8, 32)


def _suite_mgf_bounded(n_samples, seed) -> LemmaSuiteReport:
    """E[exp(||z||^2 / M^2)] <= e for a.s. M-bounded noise."""
    checks = []
    for k, noise in enumerate(_MGF_NOISES):
        M = noise.noise_constants()["M"]
        z = noise.sample_block(run_generator(seed, k), n_samples)
        vals = np.exp(sq_norms(z) / M**2)
        est = float(vals.mean())
        se = float(vals.std() / math.sqrt(n_samples))
        checks.append(_check(f"{noise.kind} M={M:g}", est, math.e, se))
    return LemmaSuiteReport("mgf-bounded", checks)


def _suite_mgf_inner(n_samples, seed) -> LemmaSuiteReport:
    """E[exp(<x, z>)] <= exp(3 M^2 ||x||^2 / 4) on a grid spanning both
    concentration regimes (||x|| below and above 4/(3M))."""
    checks = []
    for k, noise in enumerate(_MGF_NOISES):
        M = noise.noise_constants()["M"]
        rng = run_generator(seed, 1000 + k)
        dirs = _unit_rows(rng.standard_normal((_MGF_DIRECTIONS, noise.dim)))
        z = noise.sample_block(rng, n_samples)
        proj = z @ dirs.T  # (n, _MGF_DIRECTIONS)
        radii = [mult / M for mult in _MGF_NORM_MULTIPLIERS]
        means, stds = _mgf_grid_moments(proj, radii)
        for mult, r, est, std in zip(_MGF_NORM_MULTIPLIERS, radii, means, stds):
            se = std / math.sqrt(n_samples)
            worst = int(np.argmax(est - 5.0 * se))
            bound = math.exp(3.0 * M**2 * r**2 / 4.0)
            checks.append(
                _check(
                    f"{noise.kind} ||x||={mult:g}/M (worst of {_MGF_DIRECTIONS} dirs)",
                    float(est[worst]),
                    bound,
                    float(se[worst]),
                )
            )
    return LemmaSuiteReport("mgf-inner", checks)


def _clip_probe_grid(grad_fracs, n_samples, seed, **probe_options):
    """Clipped-oracle probes over (p, gamma, ||grad||/gamma) combinations.

    ``probe_options`` go to every probe; ``scale_multipliers=()`` skips its
    MGF grid and keeps only the bias fields.
    """
    probes = []
    k = 0
    for p in _CLIP_P:
        noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=p + 0.5, moment_order=p, dim=_CLIP_DIM)
        # a ball of radius 50 holds every grid point, so grad f(x) = x exactly
        oracle = AdditiveOracle(cost=HuberCost(threshold_G=50.0, dim=_CLIP_DIM), noise=noise)
        for gamma in _CLIP_GAMMAS:
            for frac in grad_fracs:
                x = np.zeros(_CLIP_DIM)
                x[0] = frac * gamma
                probe = clipping_bias_probe(
                    oracle, x, gamma, n_samples, run_generator(seed, 3000 + k), **probe_options
                )
                probes.append((p, gamma, frac, probe))
                k += 1
    return probes


def _suite_clip_bias(n_samples, seed) -> LemmaSuiteReport:
    """||E[clipped] - grad f(x)|| <= 4 sigma^p gamma^(1-p) when ||grad|| <= gamma/2."""
    checks = []
    probes = _clip_probe_grid(_CLIP_BIAS_FRACS, n_samples, seed, scale_multipliers=())
    for p, gamma, frac, probe in probes:
        checks.append(
            _check(
                f"p={p:g} gamma={gamma:g} ||grad||={frac:g}*gamma",
                probe.bias_norm_estimate,
                probe.bias_bound,
                probe.bias_se,
            )
        )
    return LemmaSuiteReport("clip-bias", checks)


def _suite_clip_subgauss(n_samples, seed) -> LemmaSuiteReport:
    """log E[exp(s <u, theta>)] <= 3 gamma^2 s^2 for the centred clipped output."""
    checks = []
    for p, gamma, frac, probe in _clip_probe_grid(_CLIP_SUBGAUSS_FRACS, n_samples, seed):
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


def _suite_batch_bound(n_queries, seed) -> LemmaSuiteReport:
    """Hard bound ||g - grad f(x)|| <= 2 G_ell for the subsample oracle."""
    cost = synthetic_logistic_cost(m=_BATCH_M, dim=_BATCH_DIM, dataset_seed=seed)
    bound = 2.0 * cost.per_sample_grad_bound
    rng = run_generator(seed, 4000)
    x_points = 2.0 * rng.standard_normal((8, _BATCH_DIM))
    per_combo = max(1, int(math.ceil(n_queries / (len(_BATCH_SIZES) * len(x_points)))))
    checks = []
    for b in _BATCH_SIZES:
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


def _suite_appendix_f_enum(n_samples, seed, t_max=20) -> LemmaSuiteReport:
    """P(x_1 = ... = x_t) of the solvable instance equals 2^(1-t) exactly, t <= t_max."""
    checks = []
    for t, prob in appendix_f_enumeration(t_max).items():
        closed = lower_bound_exact_prob(t)
        checks.append(LemmaCheck(f"t={t}", float(prob), closed, 0.0, prob == Fraction(closed)))
    return LemmaSuiteReport("appendix-f-enum", checks)


_RATE_TOLERANCE = 1e-3


def _suite_rates(n_samples, seed) -> LemmaSuiteReport:
    """Closed-form rate functions vs the numerical convex conjugate of their
    generating functions: max relative error <= 1e-3."""
    cases = [
        ("sgd (M=1, G=1)", rate_sgd(1.0, 1.0)),
        ("sgd (M=2, G=0.5)", rate_sgd(2.0, 0.5)),
        ("csgd p=1.5 (G=1)", rate_csgd(1.0, 1.5)),
        ("csgd p=2 (G=1)", rate_csgd(1.0, 2.0)),
        ("csgd general C=3 p=1.5 (G=1)", rate_csgd_generalC(1.0, 3.0, 1.5)),
        ("csgd general C=3 p=2 (G=1)", rate_csgd_generalC(1.0, 3.0, 2.0)),
    ]
    checks = []
    for label, rate in cases:
        err = transform_consistency(rate)
        checks.append(LemmaCheck(label, err, _RATE_TOLERANCE, 0.0, err <= _RATE_TOLERANCE))
    return LemmaSuiteReport("rates", checks)


# suite -> (runner, fewest samples it accepts); the only list of verify suites,
# in the order ``verify all`` runs them
_LEMMA_SUITE_RUNNERS = {
    "mgf-bounded": (_suite_mgf_bounded, 1),
    "mgf-inner": (_suite_mgf_inner, 1),
    "clip-bias": (_suite_clip_bias, PROBE_MIN_SAMPLES),
    "clip-subgauss": (_suite_clip_subgauss, PROBE_MIN_SAMPLES),
    "batch-bound": (_suite_batch_bound, 1),
    "appendix-f-enum": (_suite_appendix_f_enum, 1),
    "rates": (_suite_rates, 1),
}
LEMMA_SUITES = tuple(_LEMMA_SUITE_RUNNERS)


def verify_lemma_suite(suite: str, n_samples: int = 10**6, seed: int = 20260801, **params) -> LemmaSuiteReport:
    """Run one verification suite and report margins.

    Suites: 'mgf-bounded', 'mgf-inner' (bounded-noise MGF bounds),
    'clip-bias', 'clip-subgauss' (clipped-oracle bias bound and
    concentration), 'batch-bound' (hard subsample-noise bound),
    'appendix-f-enum' (exact stuck-at-x_1 law, parameter t_max) and 'rates'
    (closed-form rate functions vs numerical conjugates); the last two draw
    no samples.  Precondition violations raise rather than count as
    statistical failures.
    """
    if suite not in _LEMMA_SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {LEMMA_SUITES}")
    if not is_int(n_samples):
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    return _LEMMA_SUITE_RUNNERS[suite][0](n_samples, seed, **params)


def verify_request(suites, samples: int, seed: int, enum_t_max: int) -> list[tuple[str, dict]]:
    """(suite, verify_lemma_suite keyword arguments) for each suite of a
    ``verify`` request, in run order; no suites, or only 'all', means all.

    The whole request is checked before any suite runs: an unknown suite,
    --samples below a requested suite's floor (1, or PROBE_MIN_SAMPLES for
    the probe suites) and, with appendix-f-enum, --enum-t-max outside
    [1, ENUM_T_MAX] raise ValueError.
    """
    names = list(LEMMA_SUITES) if list(suites) in ([], ["all"]) else list(suites)
    for suite in names:
        if suite not in _LEMMA_SUITE_RUNNERS:
            raise ValueError(f"unknown suite {suite!r}; expected {LEMMA_SUITES} or 'all'")
        floor = _LEMMA_SUITE_RUNNERS[suite][1]
        if not is_int(samples, floor):
            raise ValueError(f"--samples must be at least {floor} for {suite}, got {samples}")
    if "appendix-f-enum" in names and not (is_int(enum_t_max) and enum_t_max <= ENUM_T_MAX):
        raise ValueError(f"--enum-t-max must lie in [1, {ENUM_T_MAX}], got {enum_t_max}")
    plan = []
    for suite in names:
        params = {"n_samples": samples, "seed": seed}
        if suite == "appendix-f-enum":
            params["t_max"] = enum_t_max
        plan.append((suite, params))
    return plan


# ---------------------------------------------------------------------------
# exact enumeration of the stuck-at-initialization event
# ---------------------------------------------------------------------------


ENUM_T_MAX = 1075  # largest t at which the closed form 2^(1-t) is exact in float64


def appendix_f_enumeration(t_max: int, x1_norm: float = 0.6, G: float = 1.0) -> dict:
    """Exact probability that every iterate equals the initialization.

    Walks the exactly solvable instance (quadratic-inside-a-ball cost with
    gradient bound G, initialization of norm x1_norm in (0, G], noise +/- x1,
    step size 1/(2 sqrt(t+1))) as a dynamic program over the states on the
    initialization's axis that have not moved yet, counting equally likely
    sign paths.  A path that has moved never counts again, so it is dropped.
    Returns {t: P(x_t = ... = x_1)} as exact dyadic Fractions for
    t = 1..t_max; the closed form is 2^(1-t).
    """
    if not (is_int(t_max) and t_max <= ENUM_T_MAX):
        raise ValueError(f"t_max must be an integer in [1, {ENUM_T_MAX}]")
    if not 0.0 < x1_norm <= G:
        raise ValueError("x1_norm must lie in (0, G]")
    ratio = G / x1_norm  # ball radius in units of ||x_1||

    # state: coordinate c along x_1 (iterate = c * x_1) of the paths whose
    # iterates all equal x_1 so far, and how many sign paths reach it
    cs = np.array([1.0])
    counts = np.array([1], dtype=np.int64)
    result = {1: Fraction(1, 1)}

    for t in range(1, int(t_max)):
        alpha = 0.5 / math.sqrt(t + 1.0)
        grad = np.where(np.abs(cs) <= ratio, cs, ratio * np.sign(cs))
        children = np.concatenate([cs - alpha * (grad + 1.0), cs - alpha * (grad - 1.0)])
        stayed = children == np.concatenate([cs, cs])
        cs, counts = children[stayed], np.concatenate([counts, counts])[stayed]
        result[t + 1] = Fraction(int(counts.sum()), 2**t)
    return result
