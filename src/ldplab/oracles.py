"""Stochastic first-order oracles and gradient-noise generators.

Two oracle modes are provided:

* additive-noise: returns grad f(x) + z with z drawn from a zero-mean
  NoiseModel (spherically bounded, two-point, symmetrized Pareto, or
  Gaussian);
* batch-subsample: for a finite-sum cost, returns the mean per-sample
  gradient over a uniformly random index subset of fixed size.

Every model carries a certified statistical property: an almost-sure norm
bound M, or a closed-form bound sigma^p on the p-th moment.  The noise draw
for one step consumes a fixed pattern of values from its stream, so a block
of T steps can be drawn in one call and trajectories replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, LogisticBatchCost

_PROBE_CHUNK = 1 << 16


class PreconditionViolation(ValueError):
    """A probe was called outside the regime where its bound applies."""


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Normalize rows to unit norm; an (unreachable) zero row maps to e_1."""
    norms = np.sqrt(np.sum(z * z, axis=-1, keepdims=True))
    out = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0)
    zero = norms[..., 0] == 0
    if np.any(zero):
        out[zero, 0] = 1.0
    return out


class NoiseModel:
    """Zero-mean noise with a certified bound (a.s. or moment)."""

    kind: str = "abstract"
    dim: int

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n iid noise vectors; shape (n, dim).

        The draw pattern is fixed for each kind, so the same size taken from
        the same stream position gives the same block.  Blocks of different
        sizes need not share a prefix: symmetrized-pareto draws all n normals
        before the n uniforms.
        """
        raise NotImplementedError

    def certificate(self) -> tuple:
        """('as-bound', M) or ('moment', (p, sigma_p))."""
        raise NotImplementedError

    def moment_bound(self, p: float) -> float:
        """Exact closed-form p-th moment E||z||^p."""
        raise NotImplementedError


@dataclass(frozen=True)
class SphereNoise(NoiseModel):
    """Fixed radius times a uniformly random direction; ||z|| = radius a.s."""

    radius: float
    dim: int

    kind = "sphere-bounded"

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("sphere radius must be non-negative")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError("dim must be a positive integer")

    def sample_block(self, rng, n):
        z = rng.standard_normal((n, self.dim))
        return self.radius * _unit_rows(z)

    def certificate(self):
        return ("as-bound", self.radius)

    def moment_bound(self, p):
        return self.radius**p


@dataclass(frozen=True, eq=False)
class TwoPointNoise(NoiseModel):
    """+v or -v, each with probability 1/2; ||z|| = ||v|| a.s."""

    v: np.ndarray

    kind = "two-point"

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("two-point atom must be a finite vector")
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.v.size

    def sample_block(self, rng, n):
        u = rng.random(n)
        signs = np.where(u < 0.5, 1.0, -1.0)
        return signs[:, None] * self.v

    def certificate(self):
        return ("as-bound", float(np.linalg.norm(self.v)))

    def moment_bound(self, p):
        return float(np.linalg.norm(self.v)) ** p


@dataclass(frozen=True)
class SymmetrizedParetoNoise(NoiseModel):
    """Uniform direction times a Pareto(x_m, tail_index) radius.

    Heavy-tailed but unbiased by symmetry.  The p-th moment is finite iff
    tail_index > p, with E||z||^p = tail_index * x_m^p / (tail_index - p);
    the model is certified at its declared moment_order.
    """

    x_m: float
    tail_index: float
    moment_order: float
    dim: int

    kind = "symmetrized-pareto"

    def __post_init__(self):
        if not self.x_m > 0:
            raise ValueError("pareto scale x_m must be positive")
        if not 1.0 < self.moment_order <= 2.0:
            raise ValueError("moment_order must lie in (1, 2]")
        if not self.tail_index > self.moment_order:
            raise ValueError(
                f"pareto tail index {self.tail_index} <= moment order "
                f"{self.moment_order}: the certified moment would be infinite"
            )
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError("dim must be a positive integer")

    def sample_block(self, rng, n):
        z = rng.standard_normal((n, self.dim))
        u = rng.random(n)
        radii = self.x_m * (1.0 - u) ** (-1.0 / self.tail_index)
        return radii[:, None] * _unit_rows(z)

    def certificate(self):
        return ("moment", (self.moment_order, self.moment_bound(self.moment_order)))

    def moment_bound(self, p):
        if not self.tail_index > p:
            raise ValueError(f"moment of order {p} is infinite for tail index {self.tail_index}")
        return self.tail_index * self.x_m**p / (self.tail_index - p)


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """Isotropic Gaussian with per-coordinate standard deviation scale."""

    scale: float
    dim: int

    kind = "gaussian"

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("gaussian scale must be non-negative")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError("dim must be a positive integer")

    def sample_block(self, rng, n):
        return self.scale * rng.standard_normal((n, self.dim))

    def certificate(self):
        return ("moment", (2.0, self.moment_bound(2.0)))

    def moment_bound(self, p):
        # chi-distribution moment: E||z||^p = scale^p 2^{p/2} Gamma((d+p)/2)/Gamma(d/2)
        log_m = (p / 2.0) * math.log(2.0) + math.lgamma((self.dim + p) / 2.0) - math.lgamma(self.dim / 2.0)
        return self.scale**p * math.exp(log_m)


_NOISE_KINDS = {
    "sphere-bounded": SphereNoise,
    "two-point": TwoPointNoise,
    "symmetrized-pareto": SymmetrizedParetoNoise,
    "gaussian": GaussianNoise,
}


def make_noise(kind: str, **params) -> NoiseModel:
    """Construct a noise model by kind name (config-file entry point)."""
    if kind not in _NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {sorted(_NOISE_KINDS)}")
    return _NOISE_KINDS[kind](**params)


class OracleSpec:
    """Stochastic first-order oracle: unbiased estimates of grad f(x)."""

    mode: str = "abstract"
    cost: CostSpec

    def randomness_block(self, rng: np.random.Generator, n_steps: int) -> np.ndarray:
        """Pre-draw the randomness for n_steps queries (state-independent)."""
        raise NotImplementedError

    def gradients(self, x_batch: np.ndarray, randomness: np.ndarray) -> np.ndarray:
        """Apply one step of pre-drawn randomness to a batch of points."""
        raise NotImplementedError

    def query_block(self, x, rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent oracle outputs at a fixed point; shape (n, dim)."""
        raise NotImplementedError

    def moment_certificate(self) -> tuple:
        """(p, sigma_p) usable in the clipped-mean bias bound.

        An a.s. bound M certifies the second moment: E||z||^2 <= M^2.
        """
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class AdditiveOracle(OracleSpec):
    """grad f(x) plus independent noise from a NoiseModel."""

    cost: CostSpec
    noise: NoiseModel

    mode = "additive-noise"

    def __post_init__(self):
        if self.noise.dim != self.cost.dim:
            raise ValueError(
                f"noise dimension {self.noise.dim} does not match cost dimension {self.cost.dim}"
            )

    def randomness_block(self, rng, n_steps):
        return self.noise.sample_block(rng, n_steps)

    def gradients(self, x_batch, randomness):
        return self.cost.gradient(x_batch) + randomness

    def query_block(self, x, rng, n):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cost.dim,):
            raise ValueError(f"query point must have shape ({self.cost.dim},)")
        return self.cost.gradient(x) + self.noise.sample_block(rng, n)

    def moment_certificate(self):
        tag, payload = self.noise.certificate()
        if tag == "as-bound":
            return (2.0, payload**2)
        return payload


@dataclass(frozen=True, eq=False)
class BatchSubsampleOracle(OracleSpec):
    """Mean per-sample gradient over a uniform random subset of fixed size.

    The deviation from the full gradient is bounded by twice the per-sample
    gradient bound; that bound is a hard (almost sure) certificate.
    """

    cost: LogisticBatchCost
    batch_size: int

    mode = "batch-subsample"

    def __post_init__(self):
        m = self.cost.n_samples
        if not (isinstance(self.batch_size, int) and 1 <= self.batch_size < m):
            raise ValueError(f"batch_size must satisfy 1 <= batch_size < {m}")

    def randomness_block(self, rng, n_steps):
        # argsort of iid uniforms = uniform random permutation; keeping the
        # first batch_size entries gives a uniform subset, at a fixed
        # consumption of m uniforms per step
        u = rng.random((n_steps, self.cost.n_samples))
        return np.argsort(u, axis=1)[:, : self.batch_size]

    def gradients(self, x_batch, randomness):
        return self.cost.subset_mean_gradients(x_batch, randomness)

    def query_block(self, x, rng, n):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cost.dim,):
            raise ValueError(f"query point must have shape ({self.cost.dim},)")
        grads = self.cost.per_sample_gradients(x)  # (m, dim)
        out = np.empty((n, self.cost.dim))
        for lo in range(0, n, _PROBE_CHUNK):
            hi = min(lo + _PROBE_CHUNK, n)
            idx = self.randomness_block(rng, hi - lo)
            out[lo:hi] = grads[idx].mean(axis=1)
        return out

    def noise_bound(self) -> float:
        """Hard a.s. bound on ||g - grad f(x)||: twice the per-sample bound."""
        return 2.0 * self.cost.per_sample_grad_bound

    def moment_certificate(self):
        return (2.0, self.noise_bound() ** 2)


def clip_rows(g: np.ndarray, gamma: float) -> np.ndarray:
    """Row-wise norm clipping: min(1, gamma/||g||) g."""
    norms = np.sqrt(np.sum(g * g, axis=-1))
    scale = np.ones_like(norms)
    over = norms > gamma
    scale[over] = gamma / norms[over]
    return g * scale[..., None]


_SCALE_MULTIPLIERS = (0.1, 0.5, 1.0, 4.0 / 3.0, 2.0, 5.0)


@dataclass(frozen=True, eq=False)
class ClippingBiasProbe:
    """Monte Carlo audit of the clipped oracle's mean bias and concentration.

    bias_norm_estimate : ||mean clipped output - grad f(x)||
    bias_bound         : 4 sigma^p gamma^(1-p) from the moment certificate
    bias_se            : standard error of the mean-vector norm
    margins            : log empirical MGF of <u, theta> minus 3 gamma^2 s^2,
                         per (direction, scale) grid point
    margin_ses         : delta-method standard errors of the log-MGF estimates
    """

    bias_norm_estimate: float
    bias_bound: float
    bias_se: float
    margins: np.ndarray
    margin_ses: np.ndarray
    subgaussian_margin: float
    n_samples: int
    gamma: float


def clipping_bias_probe(
    oracle: OracleSpec,
    x,
    gamma: float,
    num_samples: int,
    rng: np.random.Generator,
    n_directions: int = 8,
    scale_multipliers=_SCALE_MULTIPLIERS,
) -> ClippingBiasProbe:
    """Estimate the bias and sub-Gaussian margin of the gamma-clipped oracle.

    Requires ||grad f(x)|| <= gamma/2 (the regime where the bias bound
    4 sigma^p gamma^(1-p) applies) and at least 10^5 samples.  Directions for
    the MGF grid are drawn from the stream before the samples; scales are
    multipliers of 1/(2 gamma), spanning both concentration regimes of the
    clipped deviation theta (which satisfies ||theta|| <= 2 gamma a.s.).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if num_samples < 10**5:
        raise ValueError("num_samples must be at least 10^5 for a meaningful probe")
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(oracle.cost.gradient(x), dtype=np.float64)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm > gamma / 2.0 * (1.0 + 1e-12):
        raise PreconditionViolation(
            f"||grad f(x)|| = {grad_norm:.6g} exceeds gamma/2 = {gamma / 2.0:.6g}; "
            "the bias bound does not apply here"
        )
    p, sigma_p = oracle.moment_certificate()
    bias_bound = 4.0 * sigma_p * gamma ** (1.0 - p)

    dim = oracle.cost.dim
    dirs = _unit_rows(rng.standard_normal((n_directions, dim)))
    scales = np.asarray(scale_multipliers, dtype=np.float64) / (2.0 * gamma)

    clipped = np.empty((num_samples, dim))
    for lo in range(0, num_samples, _PROBE_CHUNK):
        hi = min(lo + _PROBE_CHUNK, num_samples)
        clipped[lo:hi] = clip_rows(oracle.query_block(x, rng, hi - lo), gamma)

    mean_clipped = clipped.mean(axis=0)
    bias_vec = mean_clipped - grad
    bias_norm = float(np.linalg.norm(bias_vec))
    bias_se = float(np.sqrt(np.sum(clipped.var(axis=0)) / num_samples))

    theta = clipped - mean_clipped
    proj = theta @ dirs.T  # (n, n_directions)
    margins = np.empty((n_directions, scales.size))
    margin_ses = np.empty_like(margins)
    for j, s in enumerate(scales):
        vals = np.exp(s * proj)
        est = vals.mean(axis=0)
        rel_se = vals.std(axis=0) / (est * np.sqrt(num_samples))
        margins[:, j] = np.log(est) - 3.0 * gamma**2 * s**2
        margin_ses[:, j] = rel_se

    return ClippingBiasProbe(
        bias_norm_estimate=bias_norm,
        bias_bound=float(bias_bound),
        bias_se=bias_se,
        margins=margins,
        margin_ses=margin_ses,
        subgaussian_margin=float(margins.max()),
        n_samples=num_samples,
        gamma=float(gamma),
    )
