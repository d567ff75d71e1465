"""Differentiable test costs with certified constants.

Every cost exposes an analytic gradient together with exact values for the
smoothness constant L, the global gradient bound G and a lower bound on the
cost.  Tail experiments rely on these constants being certified in closed
form rather than estimated.

``value`` and ``gradient`` accept a single point of shape ``(dim,)`` or a
batch of shape ``(n, dim)`` and vectorize over the leading axis.
``gradient(x, axis=0)`` takes a batch held dimension-major, one point per
column of a ``(dim, n)`` array, and returns the gradients in that layout with
the same bits as the row layout.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .rng import run_generator


# numpy adds a contiguous run of fewer terms than this in order, longer runs pairwise
_SEQUENTIAL_SUM_TERMS = 8


def real_param(name: str, value) -> float:
    """``value`` as a float, or a ValueError naming ``name`` unless it is a
    finite real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def is_int(value, minimum: int | None = 1) -> bool:
    """Whether ``value`` is an integer other than a bool, at least ``minimum``
    unless that is None: the rule of every count the library takes."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and (minimum is None or value >= minimum)


def int_param(name: str, value, minimum: int | None = 1) -> int:
    """``value`` as an int, or a ValueError naming ``name`` unless ``is_int``."""
    if not is_int(value, minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    return int(value)


def real_vector(name: str, value) -> np.ndarray:
    """``value`` as a float64 vector, or a ValueError naming ``name`` unless it
    is a non-empty list, tuple or 1-D array of real_param numbers."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        value = list(value)
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty vector of finite numbers, got {value!r}")
    return np.array([real_param(name, v) for v in value])


def _as_points(x, dim: int, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[axis] != dim:
        raise ValueError(f"point has dimension {x.shape[axis]}, cost expects {dim}")
    return x


def sq_norms(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Squared Euclidean norms of points held as rows (axis=-1, shape (..., dim))
    or as columns (axis=0, shape (dim, ...)).

    Both layouts give the bits of ``np.sum(x * x, axis=-1)`` over rows.  numpy
    adds a row of fewer than ``_SEQUENTIAL_SUM_TERMS`` terms in order, at the
    cost of one inner loop per row, so for such points the squares are added
    one coordinate at a time over strided views of either layout.  Longer rows
    are summed pairwise, so for those, columns are transposed to rows.
    """
    if axis not in (-1, 0):
        raise ValueError(f"coordinate axis must be -1 or 0, got {axis}")
    sq = x * x
    coords = sq if axis == 0 else np.moveaxis(sq, -1, 0)
    if not 0 < len(coords) < _SEQUENTIAL_SUM_TERMS:
        return np.sum(sq if axis == -1 else np.ascontiguousarray(np.moveaxis(sq, 0, -1)), axis=-1)
    return sum(coords[1:], coords[0])  # in order, from the first coordinate on


class CostSpec:
    """Interface shared by all test costs.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    smoothness_L : float
        Gradient Lipschitz constant (an exact upper bound).
    grad_bound_G : float
        Global bound on the gradient norm.
    lower_bound_fstar : float
        Certified lower bound on the cost value: 0 for every cost here.
    """

    name: str = "abstract"
    dim: int
    smoothness_L: float
    grad_bound_G: float
    lower_bound_fstar = 0.0

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x, axis: int = -1) -> np.ndarray:
        """Gradient at points whose coordinates lie along ``axis``: -1 for
        (dim,) or (n, dim), 0 for columns of a (dim, n) array."""
        raise NotImplementedError


@dataclass(frozen=True)
class HuberCost(CostSpec):
    """Quadratic inside a ball of radius G, linear with slope G outside.

    The gradient is x inside the ball and G*x/||x|| outside, hence globally
    bounded by G and continuous across the boundary.  L = 2 is a certified
    (non-tight) smoothness constant.
    """

    threshold_G: float
    dim: int

    name = "huber"

    def __post_init__(self):
        object.__setattr__(self, "threshold_G", real_param("threshold_G", self.threshold_G))
        if not self.threshold_G > 0:
            raise ValueError("huber threshold must be positive")
        int_param("dim", self.dim)

    @property
    def smoothness_L(self) -> float:
        return 2.0

    @property
    def grad_bound_G(self) -> float:
        return self.threshold_G

    def value(self, x):
        x = _as_points(x, self.dim)
        g = self.threshold_G
        r = np.sqrt(sq_norms(x))
        return np.where(r <= g, 0.5 * r * r, g * r - 0.5 * g * g)

    def gradient(self, x, axis=-1):
        x = _as_points(x, self.dim, axis)
        g = self.threshold_G
        r = np.expand_dims(np.sqrt(sq_norms(x, axis)), axis)
        # avoid 0/0 at the origin; the inner branch is selected there anyway
        safe_r = np.where(r > 0, r, 1.0)
        return np.where(r <= g, x, g * x / safe_r)


@dataclass(frozen=True)
class PseudoHuberCost(CostSpec):
    """Smooth coordinate-separable cost: sum_i s^2 (sqrt(1+(x_i/s)^2) - 1).

    Each gradient component x_i / sqrt(1 + (x_i/s)^2) has magnitude < s, so
    ||grad|| < s*sqrt(dim); the per-coordinate curvature is at most 1, so
    L = 1.
    """

    scale: float
    dim: int

    name = "pseudo-huber"

    def __post_init__(self):
        object.__setattr__(self, "scale", real_param("scale", self.scale))
        if not self.scale > 0:
            raise ValueError("pseudo-huber scale must be positive")
        int_param("dim", self.dim)

    @property
    def smoothness_L(self) -> float:
        return 1.0

    @property
    def grad_bound_G(self) -> float:
        return self.scale * np.sqrt(self.dim)

    def value(self, x):
        x = _as_points(x, self.dim)
        s = self.scale
        return np.sum(s * s * (np.sqrt(1.0 + (x / s) ** 2) - 1.0), axis=-1)

    def gradient(self, x, axis=-1):
        x = _as_points(x, self.dim, axis)
        return x / np.sqrt(1.0 + (x / self.scale) ** 2)


@dataclass(frozen=True, eq=False)
class LogisticBatchCost(CostSpec):
    """Finite-sum logistic loss f(x) = (1/m) sum_i log(1 + exp(-y_i <phi_i, x>)).

    Labels are +/-1.  Each per-sample gradient is bounded by ||phi_i||, so
    the certified per-sample bound is G_ell = max_i ||phi_i||; the full
    gradient inherits the same bound.
    """

    features: np.ndarray
    labels: np.ndarray

    name = "batch-logistic"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a non-empty (m, dim) matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labs.shape != (feats.shape[0],) or not np.all(np.abs(labs) == 1.0):
            raise ValueError("labels must be +/-1, one per sample")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def per_sample_grad_bound(self) -> float:
        """G_ell: bound on every per-sample gradient norm."""
        return float(np.max(np.linalg.norm(self.features, axis=1)))

    @property
    def grad_bound_G(self) -> float:
        return self.per_sample_grad_bound

    @property
    def smoothness_L(self) -> float:
        # logistic curvature is at most ||phi||^2 / 4 per sample
        return float(np.max(np.sum(self.features**2, axis=1)) / 4.0)

    def value(self, x):
        x = _as_points(x, self.dim)
        margins = x @ self.features.T * self.labels  # (..., m)
        return np.mean(np.logaddexp(0.0, -margins), axis=-1)

    def gradient(self, x, axis=-1):
        x = _as_points(x, self.dim, axis)
        if axis == 0 and x.ndim == 2:  # the row layout's products, transposed back
            return np.ascontiguousarray(self.gradient(np.ascontiguousarray(x.T)).T)
        margins = x @ self.features.T * self.labels
        w = -self.labels * _sigmoid(-margins)  # (..., m)
        return w @ self.features / self.n_samples

    def per_sample_gradients(self, x) -> np.ndarray:
        """Gradients of every sample's loss at a single point; shape (m, dim)."""
        x = _as_points(x, self.dim)
        if x.ndim != 1:
            raise ValueError("per_sample_gradients expects a single point")
        margins = self.features @ x * self.labels
        w = -self.labels * _sigmoid(-margins)
        return w[:, None] * self.features

    def subset_mean_gradients(self, x_batch: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Mean per-sample gradient over a sample subset, one subset per row.

        x_batch: (n, dim) points; idx: (n, b) sample indices.  Returns (n, dim).
        """
        x_batch = _as_points(x_batch, self.dim)
        margins = x_batch @ self.features.T * self.labels  # (n, m)
        w = -self.labels * _sigmoid(-margins)
        w_sub = np.take_along_axis(w, idx, axis=1)  # (n, b)
        return np.einsum("nb,nbd->nd", w_sub, self.features[idx]) / idx.shape[1]


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def huber_cost(threshold_G: float, dim: int) -> HuberCost:
    """Huber cost with ball radius (= gradient bound) threshold_G."""
    return HuberCost(threshold_G=threshold_G, dim=dim)


def pseudo_huber_cost(scale: float, dim: int) -> PseudoHuberCost:
    """Pseudo-Huber cost with per-coordinate scale."""
    return PseudoHuberCost(scale=scale, dim=dim)


def synthetic_logistic_cost(m: int, dim: int, dataset_seed: int) -> LogisticBatchCost:
    """Deterministic synthetic classification dataset for batch-oracle runs.

    Features are standard normal, labels are the sign of a noisy linear
    score, so the problem is neither separable nor degenerate.
    """
    int_param("m", m)
    int_param("dim", dim)
    rng = run_generator(int_param("dataset_seed", dataset_seed, minimum=None), 0)
    features = rng.standard_normal((m, dim))
    direction = rng.standard_normal(dim)
    score = features @ direction + 0.5 * rng.standard_normal(m)
    labels = np.where(score >= 0, 1.0, -1.0)
    return LogisticBatchCost(features=features, labels=labels)


# cost name -> (factory, the names of its parameters)
COSTS = {
    HuberCost.name: (huber_cost, ("threshold_G", "dim")),
    PseudoHuberCost.name: (pseudo_huber_cost, ("scale", "dim")),
    LogisticBatchCost.name: (synthetic_logistic_cost, ("m", "dim", "dataset_seed")),
}


def finite_difference_gradient(cost: CostSpec, x) -> np.ndarray:
    """Central finite differences of cost.value at a single point.

    Step h = 1e-5 * max(1, ||x||), the usual truncation/round-off balance
    at double precision.  Used to audit analytic gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    h = 1e-5 * max(1.0, float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (cost.value(x + e) - cost.value(x - e)) / (2.0 * h)
    return grad
