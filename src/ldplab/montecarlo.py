"""Ensemble execution, tail-probability estimation, and verification drivers.

Ensembles are data-parallel over run indices: ``ensemble_chunks`` yields the
per-chunk summaries in run order as they finish, ``run_ensemble`` is their
concatenation, and every run draws from its own stream, so the chunk layout,
and with it the worker count, never changes a bit of the output.  Tail probabilities P(F_t > eps) are read
off recorded hitting times (F_t > eps iff the threshold was not hit by t)
with Wilson score intervals.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import os
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from .costs import HuberCost, int_array, int_param, is_int, real_param, sq_norms, synthetic_logistic_cost
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
from .optimizers import MAX_HORIZON, EnsembleArrays, RunConfig, first_hit_counts, simulate_runs
from .rng import STREAM_KEYS, run_generator
from .theory import (
    DECAY_T_MIN,
    lower_bound_exact_prob,
    rate_csgd,
    rate_csgd_generalC,
    rate_sgd,
    transform_consistency,
)

ENSEMBLE_CHUNK = 1 << 14  # most runs per chunk
# most bytes a chunk pre-draws, counted by predraw_bytes: at long horizons
# this, not ENSEMBLE_CHUNK, bounds a worker's memory, e.g. 786 runs of a
# 4-dimensional additive-noise ensemble at T = 4000
CHUNK_PREDRAW_BYTES = 96 << 20
# An ensemble of at least this many run-steps (runs x horizon_T, a few tenths
# of a second of serial work) is split into a chunk per usable worker when it
# has fewer chunks; a smaller one stays serial, since starting a pool costs
# tens of milliseconds.
_SPLIT_MIN_RUN_STEPS = 1 << 20
_WILSON_Z = 1.959963984540054  # Wilson 95% z: the float64 normal quantile ndtri(0.5 + 0.95 / 2.0), bit for bit
_PR_SET_PDEATHSIG = 1  # prctl option from <linux/prctl.h>: the signal a process gets when its parent dies
# the signals that stop a command; a pool's workers leave them to the parent
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)


class InsufficientDataError(ValueError):
    """Too few estimable tail points to fit a decay rate."""


class WorkerDiedError(RuntimeError):
    """A worker process of ``ordered_map`` exited while its jobs ran: killed
    by a signal or by the out-of-memory killer, or ended by a job."""


def _chunk_job(args):
    config, lo, hi = args
    return simulate_runs(config, np.arange(lo, hi))


def predraw_bytes(config: RunConfig, n_runs: int) -> int:
    """Bytes that a lean ``simulate_runs`` of n_runs runs holds in proportion
    to the horizon: the block ``randomness_block`` pre-draws, n_runs x
    (horizon_T - 1) queries."""
    return n_runs * (config.horizon_T - 1) * config.oracle.query_nbytes()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` and cgroup cpusets narrow it), else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_plan(config: RunConfig, N: int, workers: int = 1) -> list:
    """The chunk bounds of ``ensemble_chunks``: chunk k is the runs
    bounds[k]..bounds[k + 1] - 1.

    A chunk holds at most ENSEMBLE_CHUNK runs and CHUNK_PREDRAW_BYTES of
    ``predraw_bytes`` (one run at least, whatever its bytes).  One chunk
    that fits is the plan, unless the ensemble has at least
    _SPLIT_MIN_RUN_STEPS run-steps.  Otherwise the runs are cut evenly into
    the fewest chunks that fit whose number is a multiple of min(workers,
    usable_cpus()), so that no worker gets an extra chunk, or into N chunks
    of one run if there are fewer runs.  N and workers are checked first.
    """
    int_param("N", N)
    int_param("workers", workers)
    usable = min(workers, usable_cpus())
    per_run = max(1, predraw_bytes(config, 1))
    most = max(1, min(ENSEMBLE_CHUNK, CHUNK_PREDRAW_BYTES // per_run))
    n_chunks = -(-N // most)
    if n_chunks > 1 or N * config.horizon_T >= _SPLIT_MIN_RUN_STEPS:
        n_chunks = min(N, -(-n_chunks // usable) * usable)
    return [N * k // n_chunks for k in range(n_chunks + 1)]


def ensemble_chunks(config: RunConfig, N: int, workers: int = 1):
    """The runs 0..N-1 as a generator of lean ensemble-array chunks in run
    order, each yielded once it and every earlier chunk have finished.

    The chunks are those of ``chunk_plan(config, N, workers)``, which checks
    N and workers when this is called, before any chunk runs.  Streams are
    derived from (config.seed, run_index) only, so the runs are
    bit-identical for every chunk layout and ``workers`` setting.  The
    chunks go through ``ordered_map`` on up to ``workers`` processes, so the
    caller holds O(chunk) results at a time whatever N is, and closing the
    generator stops the workers.
    """
    bounds = chunk_plan(config, N, workers)
    return ordered_map(_chunk_job, [(config, lo, hi) for lo, hi in zip(bounds, bounds[1:])], workers)


def _leave_signals_to_parent(parent: int):
    """A pool worker's first step: the parent handles Ctrl-C and stops its
    workers, so a worker ignores SIGINT and ends at once, with no traceback,
    on SIGTERM or SIGHUP.  It is forked with STOP_SIGNALS blocked and
    unblocks them only once it has set these, so a signal that came sooner
    is taken this way too, never by the parent's handlers it inherited.

    On Linux the kernel also sends the worker SIGKILL, which no inherited
    disposition can ignore, when the thread that forked it exits; this
    covers a parent killed by SIGKILL.  ``_forked_map`` forks its workers
    from the thread that iterates it, the main thread here.  A parent (pid
    ``parent``) that died before the worker asked for that signal shows in
    os.getppid().  A worker writes no file, so it needs no cleanup.  Should
    prctl fail, the worker is stopped by its parent only.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for sig in (signal.SIGTERM, signal.SIGHUP):
        if signal.getsignal(sig) != signal.SIG_IGN:  # one the parent ignores (nohup) stays ignored
            signal.signal(sig, signal.SIG_DFL)
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)


def ordered_map(fn, jobs, workers: int):
    """fn(job) for each job, as a generator of the results in job order, each
    yielded once it and every earlier job have finished.

    The jobs run on min(workers, usable_cpus(), len(jobs)) processes: one
    runs them here, one at a time as the results are taken; more are the
    forked workers of ``_forked_map``.  Closing the generator, or an
    exception while it waits, stops the workers and every job not done.
    """
    jobs = list(jobs)
    processes = min(workers, usable_cpus(), len(jobs))
    if processes <= 1:
        for job in jobs:
            yield fn(job)
        return
    yield from _forked_map(fn, jobs, processes)


def _forked_map(fn, jobs: list, processes: int):
    """``ordered_map`` on ``processes`` workers forked with STOP_SIGNALS
    blocked; they inherit fn and the jobs, so only results are pickled.

    An idle worker reads the next job index from one shared pipe (4-byte
    reads are atomic) and sends (index, finished, result or exception) on
    its own pipe.  At most two jobs per worker, plus one, are handed out and
    not yet taken, so the caller holds O(job) results at a time.  A job's
    exception is raised here; a worker's pipe that ends while jobs are owed
    (a worker killed, or ended by its job) raises WorkerDiedError at once.
    The workers are killed and reaped when the generator ends.
    """
    from multiprocessing.connection import Pipe, wait  # the pool's modules load only here

    todo_r, todo_w = os.pipe()
    parent, pids, readers = os.getpid(), [], []
    try:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            for _ in range(processes):
                reader, writer = Pipe(duplex=False)
                if (pid := os.fork()) == 0:
                    try:
                        os.close(todo_w)
                        _leave_signals_to_parent(parent)
                        while index := os.read(todo_r, 4):
                            k = int.from_bytes(index, "little")
                            try:
                                writer.send((k, True, fn(jobs[k])))
                            except Exception as e:  # the job's, or its result's pickling
                                writer.send((k, False, e))
                    finally:
                        os._exit(0)
                pids.append(pid)
                readers.append(reader)
                writer.close()  # the worker's copy alone is left, so its end is the pipe's
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        handed, done = 0, {}
        for k in range(len(jobs)):
            new = range(handed, min(len(jobs), k + 2 * processes + 1))
            os.write(todo_w, b"".join(i.to_bytes(4, "little") for i in new))
            handed = new.stop
            while k not in done:
                for reader in wait(readers):
                    try:
                        i, finished, value = reader.recv()
                    except (EOFError, OSError):  # OSError: the pipe ended within a message
                        raise WorkerDiedError("a worker process exited while its jobs ran") from None
                    done[i] = finished, value
            finished, value = done.pop(k)
            if not finished:
                raise value
            yield value
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (todo_r, todo_w):
            os.close(fd)
        for reader in readers:
            reader.close()


def run_ensemble(config: RunConfig, N: int, workers: int = 1) -> EnsembleArrays:
    """N independent runs with indices 0..N-1, as one set of lean ensemble
    arrays: the concatenation of ``ensemble_chunks(config, N, workers)``,
    bit-identical for every ``workers`` setting."""
    return EnsembleArrays.concatenate(list(ensemble_chunks(config, N, workers)))


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
    """The steps of a tail grid as int64; ValueError unless ``int_array`` takes them and they are
    non-empty, strictly increasing and in [1, horizon_T], compared before the conversion."""
    steps = int_array("t_grid steps", t_grid)
    increasing = steps.ndim == 1 and steps.size > 0 and not np.any(steps[1:] <= steps[:-1])
    if not (increasing and 1 <= steps[0] and steps[-1] <= horizon_T):
        raise ValueError(f"t_grid must be non-empty, strictly increasing and within [1, {horizon_T}]")
    return steps.astype(np.int64)


def tail_from_first_hits(first_hits, n_runs: int, epsilon: float, t_grid=None) -> TailEstimate:
    """Tail estimate from first-hit counts: first_hits[t - 1] of the n_runs
    runs first hit epsilon at step t = 1..T, so F_t > eps for the n_runs
    minus those hit by t.  t_grid None means every step 1..T; any other
    grid must pass ``check_t_grid`` up to T."""
    n_runs = int_param("n_runs", n_runs)
    first_hits = np.asarray(first_hits, dtype=np.int64)
    T = first_hits.size
    t_grid = check_t_grid(np.arange(1, T + 1) if t_grid is None else t_grid, T)
    exceed = n_runs - np.cumsum(first_hits)[t_grid - 1]
    return tail_from_counts(t_grid, exceed, n_runs, epsilon)


def tail_from_hitting_times(
    hit: np.ndarray,
    horizon_T: int,
    epsilon: float,
    t_grid,
) -> TailEstimate:
    """Tail estimate from one epsilon's hitting-time column.

    ``hit`` holds integer first hitting times with horizon_T + 1 (or any
    value > T) meaning "never within T"; F_t > eps iff hit > t.  The times
    are counted per step up to the grid's last, as ``first_hit_counts``
    does for steps.csv, and go through ``tail_from_first_hits``.
    """
    t_grid = check_t_grid(t_grid, horizon_T)
    hit = np.asarray(hit)
    return tail_from_first_hits(first_hit_counts(hit, int(t_grid[-1])), hit.size, epsilon, t_grid)


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

# a verify request's defaults: samples per suite, master seed, appendix-f-enum's largest t
VERIFY_SAMPLES, VERIFY_SEED, VERIFY_ENUM_T_MAX = 10**6, 20260801, 20
_MGF_NORM_MULTIPLIERS = (0.1, 1.0, 4.0 / 3.0, 2.0, 5.0)
_SE_SLACK = 5.0  # SEs by which a check may exceed its bound; a suite reports its grid point with least slack


@dataclass(frozen=True)
class LemmaCheck:
    """One empirical quantity against its asserted bound.

    In the statistical suites slack is measured in standard errors: pass iff
    empirical <= bound + _SE_SLACK * se (exactly empirical <= bound when
    se = 0, e.g. hard a.s. bounds).  appendix-f-enum passes on exact
    equality with the closed form, rates on an error at most its tolerance.
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
    ok = empirical <= bound + _SE_SLACK * se + 1e-12 * abs(bound)
    return LemmaCheck(label, float(empirical), float(bound), float(se), bool(ok))


# the a.s. M-bounded noises of the MGF suites (M = 1, dimension 2), one job
# each, and the number of directions x in mgf-inner's grid
_MGF_NOISES = (TwoPointNoise(v=np.array([1.0, 0.0])), SphereNoise(radius=1.0, dim=2))
_MGF_DIRECTIONS = 8
# the clip suites' grids in dimension _CLIP_DIM, one probe each: (moment order
# p, with Pareto tail index p + 0.5; threshold gamma; ||grad f(x)||/gamma)
_CLIP_P, _CLIP_GAMMAS, _CLIP_DIM = (1.2, 1.5, 2.0), (2.0, 4.0, 8.0), 2
_CLIP_GRIDS = {
    "clip-bias": tuple(itertools.product(_CLIP_P, _CLIP_GAMMAS, (0.0, 0.25, 0.5))),
    "clip-subgauss": tuple(itertools.product(_CLIP_P, _CLIP_GAMMAS, (0.0, 0.5))),
}
# batch-bound: a synthetic logistic cost of _BATCH_M samples in dimension _BATCH_DIM
_BATCH_M, _BATCH_DIM, _BATCH_SIZES = 64, 4, (1, 8, 32)


def _mgf_bounded_job(k, n_samples, seed) -> list:
    """E[exp(||z||^2 / M^2)] <= e for the a.s. M-bounded noise k."""
    noise = _MGF_NOISES[k]
    M = noise.noise_constants()["M"]
    # drawn chunk by chunk into the one (n,) array numpy's mean and std reduce
    vals = np.empty(n_samples)
    for lo, z in noise.sample_chunks(run_generator(seed, STREAM_KEYS["mgf-bounded"] + k), n_samples):
        vals[lo : lo + len(z)] = np.exp(sq_norms(z) / M**2)
    se = float(vals.std() / math.sqrt(n_samples))
    return [_check(f"{noise.kind} M={M:g}", float(vals.mean()), math.e, se)]


def _mgf_inner_job(k, n_samples, seed) -> list:
    """E[exp(<x, z>)] <= exp(3 M^2 ||x||^2 / 4) for the noise k on a grid
    spanning both concentration regimes (||x|| below and above 4/(3M))."""
    noise = _MGF_NOISES[k]
    M = noise.noise_constants()["M"]
    rng = run_generator(seed, STREAM_KEYS["mgf-inner"] + k)
    dirs = _unit_rows(rng.standard_normal((_MGF_DIRECTIONS, noise.dim)))
    z = np.empty((n_samples, noise.dim))
    for lo, block in noise.sample_chunks(rng, n_samples):
        z[lo : lo + len(block)] = block
    radii = [mult / M for mult in _MGF_NORM_MULTIPLIERS]
    means, stds = _mgf_grid_moments(z, dirs, radii)
    checks = []
    for mult, r, est, std in zip(_MGF_NORM_MULTIPLIERS, radii, means, stds):
        se = std / math.sqrt(n_samples)
        worst = int(np.argmax(est - _SE_SLACK * se))
        bound = math.exp(3.0 * M**2 * r**2 / 4.0)
        checks.append(
            _check(
                f"{noise.kind} ||x||={mult:g}/M (worst of {_MGF_DIRECTIONS} dirs)",
                float(est[worst]),
                bound,
                float(se[worst]),
            )
        )
    return checks


def _clip_probe(suite, k, n_samples, seed, **probe_options):
    """(label, clipped-oracle probe result) of point k of a clip suite's grid.

    ``probe_options`` go to the probe; ``scale_multipliers=()`` skips its
    MGF grid and keeps only the bias fields.
    """
    p, gamma, frac = _CLIP_GRIDS[suite][k]
    noise = SymmetrizedParetoNoise(x_m=1.0, tail_index=p + 0.5, moment_order=p, dim=_CLIP_DIM)
    # a ball of radius 50 holds every grid point, so grad f(x) = x exactly
    oracle = AdditiveOracle(cost=HuberCost(threshold_G=50.0, dim=_CLIP_DIM), noise=noise)
    x = np.zeros(_CLIP_DIM)
    x[0] = frac * gamma
    rng = run_generator(seed, STREAM_KEYS[suite] + k)
    result = clipping_bias_probe(oracle, x, gamma, n_samples, rng, **probe_options)
    return f"p={p:g} gamma={gamma:g} ||grad||={frac:g}*gamma", result


def _clip_bias_job(k, n_samples, seed) -> list:
    """||E[clipped] - grad f(x)|| <= 4 sigma^p gamma^(1-p) when ||grad|| <= gamma/2."""
    label, result = _clip_probe("clip-bias", k, n_samples, seed, scale_multipliers=())
    return [_check(label, result.bias_norm_estimate, result.bias_bound, result.bias_se)]


def _clip_subgauss_job(k, n_samples, seed) -> list:
    """log E[exp(s <u, theta>)] <= 3 gamma^2 s^2 for the centred clipped output."""
    label, result = _clip_probe("clip-subgauss", k, n_samples, seed)
    slack = result.margins - _SE_SLACK * result.margin_ses
    worst = np.unravel_index(int(np.argmax(slack)), result.margins.shape)
    return [
        _check(
            f"{label} (worst of {result.margins.size} grid points)",
            float(result.margins[worst]),
            0.0,
            float(result.margin_ses[worst]),
        )
    ]


def _batch_bound_job(k, n_samples, seed) -> list:
    """Hard bound ||g - grad f(x)|| <= 2 G_ell for the subsample oracle, over
    about n_samples queries."""
    cost = synthetic_logistic_cost(m=_BATCH_M, dim=_BATCH_DIM, dataset_seed=seed)
    bound = 2.0 * cost.per_sample_grad_bound
    rng = run_generator(seed, STREAM_KEYS["batch-bound"] + k)
    x_points = 2.0 * rng.standard_normal((8, _BATCH_DIM))
    per_combo = max(1, int(math.ceil(n_samples / (len(_BATCH_SIZES) * len(x_points)))))
    checks = []
    for b in _BATCH_SIZES:
        oracle = BatchSubsampleOracle(cost=cost, batch_size=b)
        worst = 0.0
        violations = 0
        total = 0
        for x in x_points:
            grad = cost.gradient(x)
            for _, g in oracle.output_blocks(x, rng, per_combo):
                dev = np.linalg.norm(g - grad, axis=1)
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
    return checks


def _appendix_f_enum_job(k, n_samples, seed, t_max=VERIFY_ENUM_T_MAX) -> list:
    """P(x_1 = ... = x_t) of the solvable instance equals 2^(1-t) exactly, t <= t_max."""
    checks = []
    for t, prob in appendix_f_enumeration(t_max).items():
        closed = lower_bound_exact_prob(t)
        # a Fraction and a float compare by their exact values
        checks.append(LemmaCheck(f"t={t}", float(prob), closed, 0.0, prob == closed))
    return checks


_RATE_TOLERANCE = 1e-3


def _rates_job(k, n_samples, seed) -> list:
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
    return checks


# suite -> (job runner, fewest samples it accepts, number of jobs); the only
# list of verify suites, in the order ``verify all`` runs them.  Job k of a
# suite is runner(k, n_samples, seed), with t_max for appendix-f-enum, and
# returns its own checks, which the suite's report lists in job order.  Each
# job builds fresh generators, so the jobs may run in any order and in any
# process.
_LEMMA_SUITE_RUNNERS = {
    "mgf-bounded": (_mgf_bounded_job, PROBE_MIN_SAMPLES, len(_MGF_NOISES)),
    "mgf-inner": (_mgf_inner_job, PROBE_MIN_SAMPLES, len(_MGF_NOISES)),
    "clip-bias": (_clip_bias_job, PROBE_MIN_SAMPLES, len(_CLIP_GRIDS["clip-bias"])),
    "clip-subgauss": (_clip_subgauss_job, PROBE_MIN_SAMPLES, len(_CLIP_GRIDS["clip-subgauss"])),
    # batch-bound draws every combination from one stream, so it is one job
    "batch-bound": (_batch_bound_job, 1, 1),
    "appendix-f-enum": (_appendix_f_enum_job, 1, 1),
    "rates": (_rates_job, 1, 1),
}
LEMMA_SUITES = tuple(_LEMMA_SUITE_RUNNERS)


def verify_lemma_suite(
    suite: str, n_samples: int = VERIFY_SAMPLES, seed: int = VERIFY_SEED, t_max: int = VERIFY_ENUM_T_MAX
) -> LemmaSuiteReport:
    """Run one verification suite and report margins.

    Suites: 'mgf-bounded', 'mgf-inner' (bounded-noise MGF bounds),
    'clip-bias', 'clip-subgauss' (clipped-oracle bias bound and
    concentration), 'batch-bound' (hard subsample-noise bound),
    'appendix-f-enum' (exact stuck-at-x_1 law up to t_max, which every other
    suite ignores) and 'rates' (closed-form rate functions vs numerical
    conjugates); the last two draw no samples.  Precondition violations
    raise rather than count as statistical failures.  This is the one-suite
    request of ``verify_reports``: the same checks, messages and pool.
    """
    if suite not in _LEMMA_SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; expected one of {LEMMA_SUITES}")
    ((_, report),) = verify_reports([suite], n_samples, seed, t_max)
    return report


def _verify_job(job) -> list:
    """The checks of one verify job, (suite, k, its runner's keyword
    arguments): what ``verify_reports`` runs here or in a pool worker."""
    suite, k, params = job
    return _LEMMA_SUITE_RUNNERS[suite][0](k, **params)


def verify_reports(
    suites, samples: int = VERIFY_SAMPLES, seed: int = VERIFY_SEED, enum_t_max: int = VERIFY_ENUM_T_MAX
):
    """(suite, its LemmaSuiteReport) for each suite of a ``verify`` request
    (no suites, or only 'all', means all), as a generator in run order, each
    yielded once the suite's last job is in.

    The whole request is checked when this is called: an unknown or a
    repeated suite, samples below a suite's floor (PROBE_MIN_SAMPLES for
    the MGF and clip suites, else 1), with appendix-f-enum an enum_t_max outside
    [1, ENUM_T_MAX], and a seed that is not an integer raise ValueError
    before any job runs.  The jobs then go through one ``ordered_map`` on up
    to the usable CPUs, which gives the same bits on any number of processes
    and starts none for one job; closing the generator stops the workers.
    """
    names = list(LEMMA_SUITES) if list(suites) in ([], ["all"]) else list(suites)
    for suite in names:
        if suite not in _LEMMA_SUITE_RUNNERS:
            raise ValueError(f"unknown suite {suite!r}; expected {LEMMA_SUITES} or 'all'")
        if names.count(suite) > 1:
            raise ValueError(f"suite {suite!r} is requested twice")
        floor = _LEMMA_SUITE_RUNNERS[suite][1]
        if not is_int(samples, floor):
            raise ValueError(f"--samples must be at least {floor} for {suite}, got {samples}")
    if "appendix-f-enum" in names:
        _enum_t_max_param("--enum-t-max", enum_t_max)
    params = {"n_samples": samples, "seed": int_param("seed", seed, minimum=None)}
    n_jobs = {suite: _LEMMA_SUITE_RUNNERS[suite][2] for suite in names}
    jobs = [
        (suite, k, dict(params, t_max=enum_t_max) if suite == "appendix-f-enum" else params)
        for suite in names
        for k in range(n_jobs[suite])
    ]

    def reports(checks):
        with contextlib.closing(checks):
            for suite in names:
                yield suite, LemmaSuiteReport(suite, [c for _ in range(n_jobs[suite]) for c in next(checks)])

    return reports(ordered_map(_verify_job, jobs, usable_cpus()))


# ---------------------------------------------------------------------------
# exact enumeration of the stuck-at-initialization event
# ---------------------------------------------------------------------------


ENUM_T_MAX = 1075  # largest t at which the closed form 2^(1-t) is exact in float64


def _enum_t_max_param(name: str, value) -> int:
    """The enumeration's t_max as an int in [1, ENUM_T_MAX], or a ValueError naming ``name``."""
    if not (is_int(value) and value <= ENUM_T_MAX):
        raise ValueError(f"{name} must be an integer in [1, {ENUM_T_MAX}], got {value!r}")
    return int(value)


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
    t_max = _enum_t_max_param("t_max", t_max)
    if not 0.0 < x1_norm <= G:
        raise ValueError("x1_norm must lie in (0, G]")
    from fractions import Fraction  # only the enumeration needs it

    ratio = G / x1_norm  # ball radius in units of ||x_1||

    # state: coordinate c along x_1 (iterate = c * x_1) of the paths whose
    # iterates all equal x_1 so far, and how many sign paths reach it
    cs = np.array([1.0])
    counts = np.array([1], dtype=np.int64)
    result = {1: Fraction(1, 1)}

    for t in range(1, t_max):
        alpha = 0.5 / math.sqrt(t + 1.0)
        grad = np.where(np.abs(cs) <= ratio, cs, ratio * np.sign(cs))
        children = np.concatenate([cs - alpha * (grad + 1.0), cs - alpha * (grad - 1.0)])
        stayed = children == np.concatenate([cs, cs])
        cs, counts = children[stayed], np.concatenate([counts, counts])[stayed]
        result[t + 1] = Fraction(int(counts.sum()), 2**t)
    return result
