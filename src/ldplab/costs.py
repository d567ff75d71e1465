"""Differentiable test costs with certified constants.

Every cost exposes an analytic gradient together with exact values for the
smoothness constant L, the global gradient bound G and a lower bound on the
cost.  Tail experiments rely on these constants being certified in closed
form rather than estimated.

``value`` and ``gradient`` accept a single point of shape ``(dim,)`` or a
batch of shape ``(n, dim)`` and vectorize over the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import run_generator


def _as_points(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, cost expects {dim}")
    return x


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=-1))


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
        Certified lower bound on the cost value.
    """

    name: str = "abstract"
    dim: int
    smoothness_L: float
    grad_bound_G: float
    lower_bound_fstar: float

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
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
        if not self.threshold_G > 0:
            raise ValueError("huber threshold must be positive")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError("dim must be a positive integer")

    @property
    def smoothness_L(self) -> float:
        return 2.0

    @property
    def grad_bound_G(self) -> float:
        return self.threshold_G

    @property
    def lower_bound_fstar(self) -> float:
        return 0.0

    def value(self, x):
        x = _as_points(x, self.dim)
        g = self.threshold_G
        r = _norms(x)
        return np.where(r <= g, 0.5 * r * r, g * r - 0.5 * g * g)

    def gradient(self, x):
        x = _as_points(x, self.dim)
        g = self.threshold_G
        r = _norms(x)[..., None]
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
        if not self.scale > 0:
            raise ValueError("pseudo-huber scale must be positive")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError("dim must be a positive integer")

    @property
    def smoothness_L(self) -> float:
        return 1.0

    @property
    def grad_bound_G(self) -> float:
        return self.scale * np.sqrt(self.dim)

    @property
    def lower_bound_fstar(self) -> float:
        return 0.0

    def value(self, x):
        x = _as_points(x, self.dim)
        s = self.scale
        return np.sum(s * s * (np.sqrt(1.0 + (x / s) ** 2) - 1.0), axis=-1)

    def gradient(self, x):
        x = _as_points(x, self.dim)
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

    @property
    def lower_bound_fstar(self) -> float:
        return 0.0

    def value(self, x):
        x = _as_points(x, self.dim)
        margins = x @ self.features.T * self.labels  # (..., m)
        return np.mean(np.logaddexp(0.0, -margins), axis=-1)

    def gradient(self, x):
        x = _as_points(x, self.dim)
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
    return HuberCost(threshold_G=float(threshold_G), dim=int(dim))


def pseudo_huber_cost(scale: float, dim: int) -> PseudoHuberCost:
    """Pseudo-Huber cost with per-coordinate scale."""
    return PseudoHuberCost(scale=float(scale), dim=int(dim))


def batch_loss_cost(dataset, loss_kind: str = "lipschitz-logistic") -> LogisticBatchCost:
    """Finite-sum cost from (features, label) records.

    Only globally Lipschitz losses are admitted; currently that means the
    logistic loss with labels in {-1, +1}.
    """
    if loss_kind != "lipschitz-logistic":
        raise ValueError(f"unsupported loss_kind: {loss_kind!r}")
    records = list(dataset)
    if not records:
        raise ValueError("dataset must be non-empty")
    features = np.asarray([np.asarray(phi, dtype=np.float64) for phi, _ in records])
    labels = np.asarray([float(y) for _, y in records])
    return LogisticBatchCost(features=features, labels=labels)


def synthetic_logistic_cost(m: int, dim: int, seed: int) -> LogisticBatchCost:
    """Deterministic synthetic classification dataset for batch-oracle runs.

    Features are standard normal, labels are the sign of a noisy linear
    score, so the problem is neither separable nor degenerate.
    """
    if not (m >= 1 and dim >= 1):
        raise ValueError("m and dim must be positive")
    rng = run_generator(seed, 0)
    features = rng.standard_normal((m, dim))
    direction = rng.standard_normal(dim)
    score = features @ direction + 0.5 * rng.standard_normal(m)
    labels = np.where(score >= 0, 1.0, -1.0)
    return LogisticBatchCost(features=features, labels=labels)


def finite_difference_gradient(cost: CostSpec, x, rel_step: float = 1e-5) -> np.ndarray:
    """Central finite differences of cost.value at a single point.

    Step h = rel_step * max(1, ||x||), the usual truncation/round-off balance
    at double precision.  Used to audit analytic gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    h = rel_step * max(1.0, float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (cost.value(x + e) - cost.value(x - e)) / (2.0 * h)
    return grad
