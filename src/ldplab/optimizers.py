"""Vanilla and clipped SGD kernels, schedules, and per-run statistics.

The update rule is x_{t+1} = x_t - alpha_t Psi_t(g_t), with Psi the identity
(vanilla) or norm clipping to gamma_t (clipped).  A trajectory with horizon T
records the true gradient at the visited iterates x_1..x_T (T-1 updates,
1-based indexing: the first update uses alpha_1).

``simulate_runs`` executes any set of run indices vectorized over runs.  It
draws nothing itself: ``OracleSpec.randomness_block`` pre-draws every run's
oracle randomness from the run's own counter-based stream, so results are
independent of batching, ordering, and worker count.  Inside it the batch is
held dimension-major: iterates, gradients and a step's noise are (d, B)
arrays, one run per column, and the pre-drawn randomness is step-major,
(T-1, ..., B).
Every row norm then adds d rows of length B instead of reducing B rows of
length d, with the same bits (``costs.sq_norms``); the per-run outputs are
returned one row per run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, int_param, moment_order_param, positive_param, real_param, real_vector, sq_norms
from .oracles import OracleSpec, clip_rows

DIVERGENCE_LIMIT = 1e9

# the longest horizon EnsembleArrays.hit, int32, can record: it stores T + 1
MAX_HORIZON = 2**31 - 2

# method kind -> the schedule blocks it reads
METHODS = {"vanilla": ("step",), "clipped": ("step", "clip")}

# step kind -> the one parameter each schedule reads
STEP_KINDS = {"sgd-sqrt": ("a",), "csgd-power": ("p",), "constant": ("c",)}
# clip kind -> its parameters, the threshold's coefficient first
CLIP_KINDS = {"paper-eq5": ("G", "p"), "general-C": ("C", "p"), "constant": ("threshold",)}


@dataclass(frozen=True)
class ScheduleSpec:
    """Step-size schedule; ``value`` is the one parameter its kind reads,
    named in STEP_KINDS.

    kind 'sgd-sqrt'   : alpha_t = a / sqrt(t+1)
    kind 'csgd-power' : alpha_t = (t+1)^(-p/(3p-2))
    kind 'constant'   : alpha_t = c
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        (name,) = STEP_KINDS[self.kind]
        check = moment_order_param if self.kind == "csgd-power" else positive_param
        object.__setattr__(self, "value", check(name, real_param(name, self.value)))


@dataclass(frozen=True)
class ClipSpec:
    """Clipping-threshold schedule.

    kind 'paper-eq5' : gamma_t = 2G (t+1)^((2-p)/(6p-4)) for p in (1,2),
                       gamma_t = 2G sqrt(log(t+1)) for p = 2
    kind 'general-C' : same shapes with leading coefficient C instead of 2G
    kind 'constant'  : gamma_t = G_or_C
    """

    kind: str
    G_or_C: float
    p: float | None = None

    def __post_init__(self):
        if self.kind not in CLIP_KINDS:
            raise ValueError(f"unknown clip kind {self.kind!r}")
        coefficient, *reads_p = CLIP_KINDS[self.kind]
        object.__setattr__(self, "G_or_C", real_param(coefficient, self.G_or_C))
        positive_param(coefficient, self.G_or_C)
        if reads_p:
            object.__setattr__(self, "p", moment_order_param("p", self.p))
        elif self.p is not None:
            raise ValueError(f"{self.kind} clip schedule does not read p")

    @property
    def coefficient(self) -> float:
        """Leading coefficient of the growing threshold."""
        if self.kind == "paper-eq5":
            return 2.0 * self.G_or_C
        return self.G_or_C


def step_size(schedule: ScheduleSpec, t) -> float:
    """alpha_t for iteration t >= 1."""
    if not t >= 1:
        raise ValueError("step index t must be >= 1")
    t = np.float64(t)
    if schedule.kind == "sgd-sqrt":
        return float(schedule.value / np.sqrt(t + 1.0))
    if schedule.kind == "csgd-power":
        return float((t + 1.0) ** (-schedule.value / (3.0 * schedule.value - 2.0)))
    return float(schedule.value)


def clip_threshold(clip: ClipSpec, t) -> float:
    """gamma_t for iteration t >= 1; natural logarithm."""
    if not t >= 1:
        raise ValueError("step index t must be >= 1")
    t = np.float64(t)
    if clip.kind == "constant":
        return float(clip.G_or_C)
    if clip.p == 2.0:
        return float(clip.coefficient * np.sqrt(np.log(t + 1.0)))
    return float(clip.coefficient * (t + 1.0) ** ((2.0 - clip.p) / (6.0 * clip.p - 4.0)))


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Full specification of one optimizer run.

    init_x1 is deterministic per config; epsilon_grid lists the thresholds
    for which first hitting times of ||grad f(x_t)||^2 <= eps are recorded.
    The run is clipped SGD exactly when clip_schedule is set.
    """

    cost: CostSpec
    oracle: OracleSpec
    init_x1: np.ndarray
    horizon_T: int
    step_schedule: ScheduleSpec
    clip_schedule: ClipSpec | None
    seed: int
    epsilon_grid: np.ndarray

    def __post_init__(self):
        if self.oracle.cost is not self.cost:
            raise ValueError("oracle must be built on the config's cost")
        x1 = real_vector("init_x1", self.init_x1)
        if x1.shape != (self.cost.dim,):
            raise ValueError(f"init_x1 must be a finite vector of length {self.cost.dim}")
        object.__setattr__(self, "init_x1", x1)
        if int_param("horizon_T", self.horizon_T) > MAX_HORIZON:
            raise ValueError(f"horizon_T must be at most {MAX_HORIZON}, got {self.horizon_T}")
        int_param("seed", self.seed, minimum=None)
        eps = real_vector("epsilon_grid", self.epsilon_grid)
        if np.any(eps <= 0) or np.any(np.diff(eps) <= 0):
            raise ValueError("epsilon_grid must be sorted, strictly increasing and positive")
        object.__setattr__(self, "epsilon_grid", eps)
        if self.step_schedule.kind == "sgd-sqrt":
            limit = 1.0 / self.cost.smoothness_L
            if self.step_schedule.value > limit * (1.0 + 1e-12):
                raise ValueError(
                    f"sgd-sqrt coefficient a = {self.step_schedule.value:.6g} exceeds "
                    f"1/L = {limit:.6g} for this cost"
                )

    def certified_constants(self) -> dict:
        """Constants echoed into output headers for provenance."""
        return {
            "G": self.cost.grad_bound_G,
            "L": self.cost.smoothness_L,
            "f_star": self.cost.lower_bound_fstar,
            **self.oracle.noise_constants(),
        }


@dataclass(frozen=True, eq=False)
class EnsembleArrays:
    """Per-run summaries, the record ``trajsummary.csv`` holds, two per-step
    counts over the runs, and every step's ||grad f(x_t)||^2 in full mode.
    One run is one row: ``simulate_runs(config, [i], record_full=True)`` is
    run i's whole record."""

    run_indices: np.ndarray  # (B,) int64
    epsilon_grid: np.ndarray
    horizon_T: int
    diverged: np.ndarray  # (B,) bool
    clip_events: np.ndarray  # (B,) int64
    hit: np.ndarray  # (B, n_eps) int32; horizon_T + 1 means "never within T"
    diverged_steps: np.ndarray  # (T,) int64: runs newly flagged diverged at step t = 1..T
    clipped_steps: np.ndarray  # (T,) int64: runs whose update at step t was clipped; 0 at t = T
    grad_norm_sq: np.ndarray | None = None  # (B, T) in full mode

    # the fields with one row per run; the first four are trajsummary.csv's columns
    PER_RUN = ("run_indices", "diverged", "clip_events", "hit", "grad_norm_sq")
    # the fields with one entry per step, summed over the parts of an ensemble
    PER_STEP = ("diverged_steps", "clipped_steps")

    @classmethod
    def concatenate(cls, parts) -> EnsembleArrays:
        """The runs of parts of one ensemble, in order, and their per-step
        counts summed in int64."""
        rows = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in cls.PER_RUN
            if getattr(parts[0], name) is not None
        }
        steps = {name: np.sum([getattr(p, name) for p in parts], axis=0, dtype=np.int64) for name in cls.PER_STEP}
        return dataclasses.replace(parts[0], **rows, **steps)

    @property
    def n_runs(self) -> int:
        return self.run_indices.size

    @property
    def diverged_count(self) -> int:
        return int(self.diverged.sum())

    def step_table(self) -> np.ndarray:
        """The (T, 2 + n_eps) int64 per-step table that ``steps.csv`` holds:
        row t - 1 counts the runs newly diverged at t, the runs whose update
        at t was clipped, and, for each epsilon, the runs whose first hit of
        it is t (a diverged run hits none)."""
        T = self.horizon_T
        first_hits = [first_hit_counts(self.hit[:, j], T) for j in range(self.epsilon_grid.size)]
        return np.column_stack([self.diverged_steps, self.clipped_steps, *first_hits])

    def _full(self) -> np.ndarray:
        if self.grad_norm_sq is None:
            raise ValueError("lean ensemble arrays hold no per-step records; re-run with record_full=True")
        return self.grad_norm_sq

    @property
    def running_min(self) -> np.ndarray:
        """(B, T) prefix minimum of grad_norm_sq, F_t of each run; full mode only."""
        return np.minimum.accumulate(self._full(), axis=1)

    @property
    def running_avg(self) -> np.ndarray:
        """(B, T) prefix mean of grad_norm_sq; full mode only."""
        gns = self._full()
        # a sequential sum, divided by t: the same bits as a running sum per step
        return np.cumsum(gns, axis=1) / np.arange(1, gns.shape[1] + 1)


def first_hit_counts(hit, horizon_T: int) -> np.ndarray:
    """(horizon_T,) int64: how many of the hitting times ``hit`` are each step
    t = 1..horizon_T.  A time after horizon_T ("never within T") is counted
    at no step, and one below 1 at step 1."""
    hit = np.clip(np.asarray(hit, dtype=np.int64), 1, horizon_T + 1)
    return np.bincount(hit, minlength=horizon_T + 2)[1 : horizon_T + 1]


def simulate_runs(config: RunConfig, run_indices, record_full: bool = False) -> EnsembleArrays:
    """Execute the given run indices, vectorized over runs.

    Every run's oracle randomness is pre-drawn by the oracle's
    ``randomness_block`` (the randomness is state-independent), after which
    the recursion is deterministic.  Diverged runs (an iterate exceeding
    DIVERGENCE_LIMIT in norm, or going non-finite) are frozen, flagged, and
    reported as never hitting any threshold; while no run has diverged, the
    step loop skips their masks and updates in place.  The result's
    invariants are checked before it is returned.
    """
    idx = np.asarray(run_indices, dtype=np.int64)
    B = idx.size
    T = config.horizon_T
    eps = config.epsilon_grid
    n_eps = eps.size
    clipped_method = config.clip_schedule is not None

    randomness = config.oracle.randomness_block(config.seed, idx, T - 1)  # (T-1, ..., B)
    # the schedules, hoisted out of the step loop
    alphas = [step_size(config.step_schedule, t) for t in range(1, T)]
    gammas = [clip_threshold(config.clip_schedule, t) for t in range(1, T)] if clipped_method else None

    x0 = config.init_x1[:, None]
    x = np.repeat(x0, B, axis=1)  # (d, B)
    diverged = np.zeros(B, dtype=bool)
    any_diverged = False  # while no run has diverged, the masks below are skipped
    clip_events = np.zeros(B, dtype=np.int64)
    diverged_steps = np.zeros(T, dtype=np.int64)
    clipped_steps = np.zeros(T, dtype=np.int64)
    hit = np.full((n_eps, B), T + 1, dtype=np.int32)
    eps_col = eps[:, None]
    gns_steps = np.empty((B, T)) if record_full else None  # filled a column per step, so never transposed

    # a norm that overflows to inf is handled (divergence check, clipping), not warned of
    with np.errstate(over="ignore"):
        for t in range(1, T + 1):
            # one compare: a NaN or infinite norm is not <= the limit either
            newly_bad = ~(sq_norms(x, axis=0) <= DIVERGENCE_LIMIT**2)
            if any_diverged:
                newly_bad &= ~diverged
            n_bad = np.count_nonzero(newly_bad)
            if n_bad:
                diverged_steps[t - 1] = n_bad
                diverged |= newly_bad
                any_diverged = True
                x[:, newly_bad] = x0  # frozen placeholder, excluded below

            grad = config.cost.gradient(x, axis=0)
            gns = sq_norms(grad, axis=0)
            if any_diverged:
                gns[diverged] = np.inf
            if record_full:
                gns_steps[:, t - 1] = gns
            newly_hit = (hit == T + 1) & (gns <= eps_col)
            hit[newly_hit] = t

            if t < T:
                g = config.oracle.gradients(x, randomness[t - 1], grad)
                if clipped_method:
                    g, over = clip_rows(g, gammas[t - 1], axis=0)
                    if any_diverged:
                        over &= ~diverged
                    n_over = np.count_nonzero(over)
                    if n_over:
                        clip_events += over
                        clipped_steps[t - 1] = n_over
                if any_diverged:
                    x = np.where(diverged, x, x - alphas[t - 1] * g)
                else:  # g is this step's own array, so it is scaled in place
                    g *= alphas[t - 1]
                    x -= g

    del randomness  # freed before the invariant check, which holds a running minimum in full mode
    hit[:, diverged] = T + 1  # diverged runs count as exceeding every threshold

    out = EnsembleArrays(
        run_indices=idx,
        epsilon_grid=eps,
        horizon_T=T,
        diverged=diverged,
        clip_events=clip_events,
        hit=np.ascontiguousarray(hit.T),
        diverged_steps=diverged_steps,
        clipped_steps=clipped_steps,
        grad_norm_sq=gns_steps,
    )
    _assert_invariants(out)
    return out


def _assert_invariants(arrays: EnsembleArrays) -> None:
    """Hard checks, kept under python -O: every clip count lies in
    [0, horizon_T - 1], one per update at most; every hitting time lies in
    [1, horizon_T + 1], is no later for a larger epsilon and is horizon_T + 1
    for a diverged run; the per-step counts sum to the diverged runs and to
    the clip events; in full mode the running minimum exceeds epsilon
    exactly before the hitting time.  Raises ValueError on the first violation."""

    def require(ok, message):
        if not ok:
            raise ValueError(f"ensemble invariant violated: {message}")

    T = arrays.horizon_T
    clips = arrays.clip_events
    require(np.all((clips >= 0) & (clips <= T - 1)), "clip count outside [0, horizon_T - 1]")
    hit = arrays.hit
    require(np.all((hit >= 1) & (hit <= T + 1)), "hitting time outside [1, horizon_T + 1]")
    require(np.all(np.diff(hit, axis=1) <= 0), "a larger epsilon was hit later")
    require(np.all(hit[arrays.diverged] == T + 1), "a diverged run hit a threshold")
    diverged_sum_ok = arrays.diverged_steps.sum() == arrays.diverged_count
    require(diverged_sum_ok, "per-step diverged counts do not sum to the diverged runs")
    require(arrays.clipped_steps.sum() == clips.sum(), "per-step clip counts do not sum to the clip events")
    if arrays.grad_norm_sq is not None:
        # one (B, T) running minimum: diverged runs are dropped from the
        # boolean result, so no float copy of its rows is made
        ok = ~arrays.diverged
        rmin = arrays.running_min
        t_axis = np.arange(1, T + 1)
        for j, e in enumerate(arrays.epsilon_grid):
            disagree = (hit[:, j][:, None] > t_axis[None, :]) != (rmin > e)
            require(not disagree[ok].any(), "hitting time and exceedance disagree")
