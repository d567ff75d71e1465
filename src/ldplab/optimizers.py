"""Vanilla and clipped SGD kernels, schedules, and per-run statistics.

The update rule is x_{t+1} = x_t - alpha_t Psi_t(g_t), with Psi the identity
(vanilla) or norm clipping to gamma_t (clipped).  A trajectory with horizon T
records the true gradient at the visited iterates x_1..x_T (T-1 updates,
1-based indexing: the first update uses alpha_1).

``simulate_runs`` executes any set of run indices vectorized over runs; each
run consumes its own counter-based stream, so results are independent of
batching, ordering, and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec
from .oracles import OracleSpec, clip_rows
from .rng import StreamPool

DIVERGENCE_LIMIT = 1e9

_STEP_KINDS = ("sgd-sqrt", "csgd-power", "constant")
_CLIP_KINDS = ("paper-eq5", "general-C", "constant")


@dataclass(frozen=True)
class ScheduleSpec:
    """Step-size schedule.

    kind 'sgd-sqrt'   : alpha_t = a / sqrt(t+1)
    kind 'csgd-power' : alpha_t = (t+1)^(-p/(3p-2))
    kind 'constant'   : alpha_t = c
    """

    kind: str
    a: float | None = None
    p: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in _STEP_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "sgd-sqrt" and not (self.a is not None and self.a > 0):
            raise ValueError("sgd-sqrt schedule requires a > 0")
        if self.kind == "csgd-power" and not (self.p is not None and 1.0 < self.p <= 2.0):
            raise ValueError("csgd-power schedule requires p in (1, 2]")
        if self.kind == "constant" and not (self.c is not None and self.c > 0):
            raise ValueError("constant schedule requires c > 0")


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
        if self.kind not in _CLIP_KINDS:
            raise ValueError(f"unknown clip kind {self.kind!r}")
        if not self.G_or_C > 0:
            raise ValueError("clip coefficient must be positive")
        if self.kind in ("paper-eq5", "general-C") and not (
            self.p is not None and 1.0 < self.p <= 2.0
        ):
            raise ValueError(f"{self.kind} clip schedule requires p in (1, 2]")

    @property
    def coefficient(self) -> float:
        """Leading coefficient of the growing threshold."""
        if self.kind == "paper-eq5":
            return 2.0 * self.G_or_C
        return self.G_or_C


def step_size(schedule: ScheduleSpec, t):
    """alpha_t for iteration t >= 1 (scalar or array)."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 1):
        raise ValueError("step index t must be >= 1")
    if schedule.kind == "sgd-sqrt":
        out = schedule.a / np.sqrt(t + 1.0)
    elif schedule.kind == "csgd-power":
        out = (t + 1.0) ** (-schedule.p / (3.0 * schedule.p - 2.0))
    else:
        out = np.full_like(t, schedule.c)
    return float(out) if out.ndim == 0 else out


def clip_threshold(clip: ClipSpec, t):
    """gamma_t for iteration t >= 1 (scalar or array); natural logarithm."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 1):
        raise ValueError("step index t must be >= 1")
    if clip.kind == "constant":
        out = np.full_like(t, clip.G_or_C)
    elif clip.p == 2.0:
        out = clip.coefficient * np.sqrt(np.log(t + 1.0))
    else:
        exponent = (2.0 - clip.p) / (6.0 * clip.p - 4.0)
        out = clip.coefficient * (t + 1.0) ** exponent
    return float(out) if out.ndim == 0 else out


def clip_bias_onset(clip: ClipSpec, grad_bound_G: float) -> float:
    """First t at which the threshold guarantees gamma_t >= 2G.

    From then on the clipped-mean bias bound 4 sigma^p gamma_t^(1-p) applies
    at every iterate of a cost with gradient bound G.  For the 2G-coefficient
    schedule this is t = 1 when p < 2; for a general coefficient C it is
    (2G/C)^((6p-4)/(2-p)) when p in (1,2) and 2^(4G^2/C^2) - 1 when p = 2.
    """
    if clip.kind == "constant":
        return 1.0 if clip.G_or_C >= 2.0 * grad_bound_G else math.inf
    c = clip.coefficient
    if clip.p == 2.0:
        return 2.0 ** (4.0 * grad_bound_G**2 / c**2) - 1.0
    return (2.0 * grad_bound_G / c) ** ((6.0 * clip.p - 4.0) / (2.0 - clip.p))


def clip_vector(g, gamma: float) -> np.ndarray:
    """min(1, gamma/||g||) g; ties at ||g|| = gamma are left unclipped."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    g = np.asarray(g, dtype=np.float64)
    return clip_rows(g[None, :], gamma)[0]


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Full specification of one optimizer run.

    init_x1 is deterministic per config; epsilon_grid lists the thresholds
    for which first hitting times of ||grad f(x_t)||^2 <= eps are recorded.
    """

    method: str
    cost: CostSpec
    oracle: OracleSpec
    init_x1: np.ndarray
    horizon_T: int
    step_schedule: ScheduleSpec
    clip_schedule: ClipSpec | None
    seed: int
    epsilon_grid: np.ndarray

    def __post_init__(self):
        if self.method not in ("vanilla", "clipped"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "vanilla" and self.clip_schedule is not None:
            raise ValueError("vanilla method must not carry a clip schedule")
        if self.method == "clipped" and self.clip_schedule is None:
            raise ValueError("clipped method requires a clip schedule")
        if self.oracle.cost is not self.cost:
            raise ValueError("oracle must be built on the config's cost")
        x1 = np.asarray(self.init_x1, dtype=np.float64)
        if x1.shape != (self.cost.dim,) or not np.all(np.isfinite(x1)):
            raise ValueError(f"init_x1 must be a finite vector of length {self.cost.dim}")
        object.__setattr__(self, "init_x1", x1)
        if not (isinstance(self.horizon_T, int) and self.horizon_T >= 1):
            raise ValueError("horizon_T must be a positive integer")
        eps = np.asarray(self.epsilon_grid, dtype=np.float64)
        if eps.ndim != 1 or eps.size == 0 or np.any(eps <= 0) or np.any(np.diff(eps) <= 0):
            raise ValueError("epsilon_grid must be sorted, strictly increasing and positive")
        object.__setattr__(self, "epsilon_grid", eps)
        if self.step_schedule.kind == "sgd-sqrt":
            limit = 1.0 / self.cost.smoothness_L
            if self.step_schedule.a > limit * (1.0 + 1e-12):
                raise ValueError(
                    f"sgd-sqrt coefficient a = {self.step_schedule.a:.6g} exceeds "
                    f"1/L = {limit:.6g} for this cost"
                )

    def certified_constants(self) -> dict:
        """Constants echoed into output headers for provenance."""
        out = {
            "G": self.cost.grad_bound_G,
            "L": self.cost.smoothness_L,
            "f_star": self.cost.lower_bound_fstar,
        }
        tag_payload = getattr(self.oracle, "noise", None)
        if tag_payload is not None:
            tag, payload = tag_payload.certificate()
            if tag == "as-bound":
                out["M"] = payload
            else:
                out["p"], out["sigma_p"] = payload
        elif hasattr(self.oracle, "noise_bound"):
            out["M"] = self.oracle.noise_bound()
            out["G_ell"] = self.oracle.cost.per_sample_grad_bound
        return out


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Recorded statistics of one run.

    grad_norm_sq[t-1] is ||grad f(x_t)||^2; running_min and running_avg are
    its prefix minimum and prefix mean; hitting_time maps each epsilon to the
    first t with grad_norm_sq <= epsilon (math.inf if never within T).
    """

    run_index: int
    grad_norm_sq: np.ndarray
    running_min: np.ndarray
    running_avg: np.ndarray
    clip_event_count: int
    hitting_time: dict
    diverged: bool


@dataclass(frozen=True, eq=False)
class EnsembleArrays:
    """Vectorized per-run summaries; full-mode arrays are optional."""

    run_indices: np.ndarray
    epsilon_grid: np.ndarray
    horizon_T: int
    diverged: np.ndarray  # (B,) bool
    clip_events: np.ndarray  # (B,) int64
    hit: np.ndarray  # (B, n_eps) int32; horizon_T + 1 means "never within T"
    final_min: np.ndarray  # (B,)
    final_avg: np.ndarray  # (B,)
    grad_norm_sq: np.ndarray | None = None  # (B, T) in full mode
    running_min: np.ndarray | None = None
    running_avg: np.ndarray | None = None

    @property
    def n_runs(self) -> int:
        return self.run_indices.size

    def record(self, i: int) -> TrajectoryRecord:
        """Row i as a TrajectoryRecord; needs the full-mode arrays."""
        T = self.horizon_T
        hitting = {}
        for j, e in enumerate(self.epsilon_grid):
            t = int(self.hit[i, j])
            hitting[float(e)] = float(t) if t <= T else math.inf
        return TrajectoryRecord(
            run_index=int(self.run_indices[i]),
            grad_norm_sq=self.grad_norm_sq[i],
            running_min=self.running_min[i],
            running_avg=self.running_avg[i],
            clip_event_count=int(self.clip_events[i]),
            hitting_time=hitting,
            diverged=bool(self.diverged[i]),
        )


def simulate_runs(
    config: RunConfig,
    run_indices,
    record_full: bool = False,
    check_invariants: bool = False,
) -> EnsembleArrays:
    """Execute the given run indices, vectorized over runs.

    Each run's oracle randomness is pre-drawn from its private stream (the
    randomness is state-independent), after which the recursion is
    deterministic.  Diverged runs (an iterate exceeding DIVERGENCE_LIMIT in
    norm, or going non-finite) are frozen, flagged, and reported as never
    hitting any threshold.
    """
    idx = np.asarray(run_indices, dtype=np.int64)
    B = idx.size
    T = config.horizon_T
    d = config.cost.dim
    eps = config.epsilon_grid
    n_eps = eps.size
    clipped_method = config.method == "clipped"

    n_steps = T - 1
    randomness = None
    if n_steps > 0 and B > 0:
        pool = StreamPool(config.seed)
        first = config.oracle.randomness_block(pool.reset(int(idx[0])), n_steps)
        randomness = np.empty((B,) + first.shape, dtype=first.dtype)
        randomness[0] = first
        for i in range(1, B):
            randomness[i] = config.oracle.randomness_block(pool.reset(int(idx[i])), n_steps)

    x = np.broadcast_to(config.init_x1, (B, d)).copy()
    diverged = np.zeros(B, dtype=bool)
    clip_events = np.zeros(B, dtype=np.int64)
    hit = np.full((B, n_eps), T + 1, dtype=np.int32)
    fmin = np.full(B, np.inf)
    fsum = np.zeros(B)
    if record_full:
        gns_full = np.empty((B, T))
        fmin_full = np.empty((B, T))
        favg_full = np.empty((B, T))

    for t in range(1, T + 1):
        norms_sq = np.sum(x * x, axis=1)
        newly_bad = ~np.isfinite(norms_sq) | (norms_sq > DIVERGENCE_LIMIT**2)
        newly_bad &= ~diverged
        if np.any(newly_bad):
            diverged |= newly_bad
            x[newly_bad] = config.init_x1  # frozen placeholder, excluded below

        grad = config.cost.gradient(x)
        gns = np.sum(grad * grad, axis=1)
        gns[diverged] = np.inf

        fmin = np.minimum(fmin, gns)
        fsum += gns
        favg = fsum / t
        if record_full:
            gns_full[:, t - 1] = gns
            fmin_full[:, t - 1] = fmin
            favg_full[:, t - 1] = favg
        newly_hit = (hit == T + 1) & (gns[:, None] <= eps[None, :])
        hit[newly_hit] = t

        if t < T:
            alpha = step_size(config.step_schedule, t)
            g = config.oracle.gradients(x, randomness[:, t - 1])
            if clipped_method:
                gamma = clip_threshold(config.clip_schedule, t)
                g_norms = np.sqrt(np.sum(g * g, axis=1))
                over = g_norms > gamma
                clip_events += over & ~diverged
                scale = np.ones(B)
                scale[over] = gamma / g_norms[over]
                g = g * scale[:, None]
            x_new = x - alpha * g
            x = np.where(diverged[:, None], x, x_new)

    hit[diverged] = T + 1  # diverged runs count as exceeding every threshold

    out = EnsembleArrays(
        run_indices=idx,
        epsilon_grid=eps,
        horizon_T=T,
        diverged=diverged,
        clip_events=clip_events,
        hit=hit,
        final_min=fmin,
        final_avg=favg if T >= 1 else np.full(B, np.nan),
        grad_norm_sq=gns_full if record_full else None,
        running_min=fmin_full if record_full else None,
        running_avg=favg_full if record_full else None,
    )
    if check_invariants:
        _assert_invariants(out)
    return out


def _assert_invariants(arrays: EnsembleArrays) -> None:
    """Hard checks, kept under python -O: prefix-min monotone, min <= avg,
    hit <=> exceedance.  Raises ValueError on the first violation."""

    def require(ok, message):
        if not ok:
            raise ValueError(f"ensemble invariant violated: {message}")

    ok = ~arrays.diverged
    if arrays.running_min is not None:
        rmin = arrays.running_min[ok]
        ravg = arrays.running_avg[ok]
        if rmin.size:
            require(np.all(np.diff(rmin, axis=1) <= 0), "running minimum increased")
            tol = 1e-9 * np.maximum(1.0, np.abs(ravg))
            require(np.all(ravg >= rmin - tol), "running average dipped below running minimum")
            T = arrays.horizon_T
            t_axis = np.arange(1, T + 1)
            for j, e in enumerate(arrays.epsilon_grid):
                exceeded = rmin > e  # (n_ok, T)
                ht = arrays.hit[ok, j][:, None]  # (n_ok, 1)
                require(
                    np.array_equal(ht > t_axis[None, :], exceeded),
                    "hitting time and exceedance disagree",
                )
    require(
        np.all(arrays.hit >= 1) and np.all(arrays.hit <= arrays.horizon_T + 1),
        "hitting time outside [1, horizon_T + 1]",
    )


def run_trajectory(config: RunConfig, run_index: int) -> TrajectoryRecord:
    """One run's full record; identical to the matching ensemble row."""
    return simulate_runs(config, [run_index], record_full=True).record(0)
