"""Stochastic first-order oracles and gradient-noise generators.

Two oracle modes are provided:

* additive-noise: returns grad f(x) + z with z drawn from a zero-mean
  NoiseModel (spherically bounded, two-point, symmetrized Pareto, or
  Gaussian);
* batch-subsample: for a finite-sum cost, returns the mean per-sample
  gradient over a uniformly random index subset of fixed size.

Every model carries a certified statistical property: an almost-sure norm
bound M, or a closed-form bound sigma^p on the p-th moment.

Drawing is split in two.  The *raw draw* fills float64 buffers from a
stream, always in the same order: every standard normal of the block first,
then every uniform on [0, 1).  ``raw_widths`` says how many of each one
query consumes.  The *transform* (unit rows, signs, Pareto radii, argsort)
is a pure function of those buffers and works over any leading shape, so a
slab of many runs, each filled from its own stream, is transformed in one
call with the same bytes as transforming each run alone.  ``sample_block``
(probes) and ``OracleSpec.randomness_block`` (ensembles) are both a
transform of a raw draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, LogisticBatchCost, int_param, real_param, real_vector, sq_norms
from .rng import StreamPool

_PROBE_CHUNK = 1 << 16
_MGF_BLOCK_ROWS = 2048  # rows of the MGF grid per block: (2048, 6, 8) float64 is 768 KiB
PROBE_MIN_SAMPLES = 10**5  # fewest samples clipping_bias_probe accepts
_PROBE_DIRECTIONS = 8  # directions of clipping_bias_probe's MGF grid


class PreconditionViolation(ValueError):
    """A probe was called outside the regime where its bound applies."""


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Normalize rows to unit norm; an (unreachable) zero row maps to e_1."""
    norms = np.sqrt(sq_norms(z))[..., None]
    out = np.divide(z, norms, out=np.zeros_like(z), where=norms > 0)
    zero = norms[..., 0] == 0
    if np.any(zero):
        out[zero, 0] = 1.0
    return out


def _raw_draw(rng: np.random.Generator, widths: tuple[int, int], n: int):
    """(normals, uniforms) of n queries from one stream; shapes (n, widths[0]), (n, widths[1]).

    Every normal is drawn before every uniform.
    """
    return rng.standard_normal((n, widths[0])), rng.random((n, widths[1]))


class NoiseModel:
    """Zero-mean noise with a certified bound (a.s. or moment)."""

    kind: str = "abstract"
    dim: int

    def raw_widths(self) -> tuple[int, int]:
        """(normals, uniforms) one noise vector consumes from its stream."""
        raise NotImplementedError

    def transform(self, normals: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Noise vectors from raw buffers of shapes (..., normals) and
        (..., uniforms) as sized by raw_widths; shape (..., dim)."""
        raise NotImplementedError

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n iid noise vectors; shape (n, dim).

        The draw pattern is fixed for each kind, so the same size taken from
        the same stream position gives the same block.  Blocks of different
        sizes need not share a prefix: symmetrized-pareto draws all n normals
        before the n uniforms.
        """
        return self.transform(*_raw_draw(rng, self.raw_widths(), n))

    def noise_constants(self) -> dict:
        """The certified constants: {'M': a.s. bound on ||z||} or
        {'p': moment order, 'sigma_p': bound on E||z||^p}."""
        raise NotImplementedError

    def moment_bound(self, p: float) -> float:
        """Exact closed-form p-th moment E||z||^p."""
        raise NotImplementedError

    def _check_certificate(self) -> None:
        """A ValueError unless every certified constant is a finite number: a
        bound that overflows certifies nothing."""
        try:
            with np.errstate(over="ignore"):  # a numpy constant that overflows is inf, rejected below
                constants = self.noise_constants()
        except OverflowError as e:
            raise ValueError(f"the certified constants of {self.kind} noise overflow") from e
        for name, value in constants.items():
            real_param(name, value)


@dataclass(frozen=True)
class SphereNoise(NoiseModel):
    """Fixed radius times a uniformly random direction; ||z|| = radius a.s."""

    radius: float
    dim: int

    kind = "sphere-bounded"

    def __post_init__(self):
        object.__setattr__(self, "radius", real_param("radius", self.radius))
        if self.radius < 0:
            raise ValueError("sphere radius must be non-negative")
        int_param("dim", self.dim)

    def raw_widths(self):
        return (self.dim, 0)

    def transform(self, normals, uniforms):
        return self.radius * _unit_rows(normals)

    def noise_constants(self):
        return {"M": self.radius}

    def moment_bound(self, p):
        return self.radius**p


@dataclass(frozen=True, eq=False)
class TwoPointNoise(NoiseModel):
    """+v or -v, each with probability 1/2; ||z|| = ||v|| a.s."""

    v: np.ndarray

    kind = "two-point"

    def __post_init__(self):
        object.__setattr__(self, "v", real_vector("v", self.v))
        self._check_certificate()

    @property
    def dim(self) -> int:
        return self.v.size

    def raw_widths(self):
        return (0, 1)

    def transform(self, normals, uniforms):
        signs = np.where(uniforms[..., 0] < 0.5, 1.0, -1.0)
        return signs[..., None] * self.v

    def noise_constants(self):
        return {"M": float(np.linalg.norm(self.v))}

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
        for name in ("x_m", "tail_index", "moment_order"):
            object.__setattr__(self, name, real_param(name, getattr(self, name)))
        if not self.x_m > 0:
            raise ValueError("pareto scale x_m must be positive")
        if not 1.0 < self.moment_order <= 2.0:
            raise ValueError("moment_order must lie in (1, 2]")
        if not self.tail_index > self.moment_order:
            raise ValueError(
                f"pareto tail index {self.tail_index} <= moment order "
                f"{self.moment_order}: the certified moment would be infinite"
            )
        int_param("dim", self.dim)
        self._check_certificate()

    def raw_widths(self):
        return (self.dim, 1)

    def transform(self, normals, uniforms):
        radii = self.x_m * (1.0 - uniforms[..., 0]) ** (-1.0 / self.tail_index)
        return radii[..., None] * _unit_rows(normals)

    def noise_constants(self):
        return {"p": self.moment_order, "sigma_p": self.moment_bound(self.moment_order)}

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
        object.__setattr__(self, "scale", real_param("scale", self.scale))
        if self.scale < 0:
            raise ValueError("gaussian scale must be non-negative")
        int_param("dim", self.dim)
        self._check_certificate()

    def raw_widths(self):
        return (self.dim, 0)

    def transform(self, normals, uniforms):
        return self.scale * normals

    def noise_constants(self):
        return {"p": 2.0, "sigma_p": self.moment_bound(2.0)}

    def moment_bound(self, p):
        # chi-distribution moment: E||z||^p = scale^p 2^{p/2} Gamma((d+p)/2)/Gamma(d/2)
        log_m = (p / 2.0) * math.log(2.0) + math.lgamma((self.dim + p) / 2.0) - math.lgamma(self.dim / 2.0)
        return self.scale**p * math.exp(log_m)


# noise kind -> model; a kind's parameters are its dataclass fields
_NOISE_KINDS = {cls.kind: cls for cls in (SphereNoise, TwoPointNoise, SymmetrizedParetoNoise, GaussianNoise)}


class OracleSpec:
    """Stochastic first-order oracle: unbiased estimates of grad f(x)."""

    mode: str = "abstract"
    cost: CostSpec

    def raw_widths(self) -> tuple[int, int]:
        """(normals, uniforms) one query consumes from its stream."""
        raise NotImplementedError

    def transform(self, normals: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """A query's randomness from raw buffers, over any leading shape."""
        raise NotImplementedError

    def randomness_block(self, pool: StreamPool, run_indices, n_steps: int) -> np.ndarray:
        """Pre-draw n_steps queries for each run of a slab; shape (runs, n_steps, ...).

        The randomness is state-independent.  The pool is reset once per run
        and fills that run's rows of raw buffers shared by the slab; the slab
        is then transformed in one call.  Row i is therefore exactly what
        run_indices[i] draws alone, whatever the slab.
        """
        n_normals, n_uniforms = self.raw_widths()
        run_indices = np.asarray(run_indices, dtype=np.int64)
        normals = np.empty((run_indices.size, n_steps, n_normals))
        uniforms = np.empty((run_indices.size, n_steps, n_uniforms))
        for i, rng in enumerate(pool.streams(run_indices)):
            if n_normals:  # the order of _raw_draw: normals, then uniforms
                rng.standard_normal(out=normals[i])
            if n_uniforms:
                rng.random(out=uniforms[i])
        return self.transform(normals, uniforms)

    def gradients(self, x: np.ndarray, randomness: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One step's oracle outputs at points held dimension-major, shape (dim, n).

        ``randomness`` is that step's pre-drawn randomness with the run axis
        last, shape (..., n); ``grad`` is ``cost.gradient(x, axis=0)``, which
        the caller has already computed.
        """
        raise NotImplementedError

    def query_block(self, x, rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent oracle outputs at a fixed point; shape (n, dim)."""
        raise NotImplementedError

    def noise_constants(self) -> dict:
        """The certified noise constants: {'M': a.s. bound on ||g - grad f(x)||}
        or {'p': moment order, 'sigma_p': moment bound}, plus any constant
        the bound rests on."""
        raise NotImplementedError

    def moment_certificate(self) -> tuple:
        """(p, sigma_p) usable in the clipped-mean bias bound.

        An a.s. bound M certifies the second moment: E||z||^2 <= M^2.
        """
        c = self.noise_constants()
        if "M" in c:
            return (2.0, c["M"] ** 2)
        return (c["p"], c["sigma_p"])


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

    def raw_widths(self):
        return self.noise.raw_widths()

    def transform(self, normals, uniforms):
        return self.noise.transform(normals, uniforms)

    def gradients(self, x, randomness, grad):
        return grad + randomness

    def query_block(self, x, rng, n):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cost.dim,):
            raise ValueError(f"query point must have shape ({self.cost.dim},)")
        return self.cost.gradient(x) + self.noise.sample_block(rng, n)

    def noise_constants(self):
        return self.noise.noise_constants()


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
        if not isinstance(self.cost, LogisticBatchCost):
            raise ValueError(f"batch subsampling needs a finite-sum cost, not {self.cost.name!r}")
        m = self.cost.n_samples
        if not int_param("batch_size", self.batch_size) < m:
            raise ValueError(f"batch_size must satisfy 1 <= batch_size < {m}")

    def raw_widths(self):
        # a fixed consumption of m uniforms per step
        return (0, self.cost.n_samples)

    def transform(self, normals, uniforms):
        # argsort of iid uniforms = uniform random permutation; keeping the
        # first batch_size entries gives a uniform subset
        return np.argsort(uniforms, axis=-1)[..., : self.batch_size]

    def gradients(self, x, randomness, grad):
        # the row layout's products, transposed back
        rows = self.cost.subset_mean_gradients(np.ascontiguousarray(x.T), np.ascontiguousarray(randomness.T))
        return np.ascontiguousarray(rows.T)

    def query_block(self, x, rng, n):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cost.dim,):
            raise ValueError(f"query point must have shape ({self.cost.dim},)")
        grads = self.cost.per_sample_gradients(x)  # (m, dim)
        out = np.empty((n, self.cost.dim))
        for lo in range(0, n, _PROBE_CHUNK):
            hi = min(lo + _PROBE_CHUNK, n)
            idx = self.transform(*_raw_draw(rng, self.raw_widths(), hi - lo))
            out[lo:hi] = grads[idx].mean(axis=1)
        return out

    def noise_constants(self):
        # M: the hard a.s. bound on ||g - grad f(x)||, twice the per-sample bound
        return {"M": 2.0 * self.cost.per_sample_grad_bound, "G_ell": self.cost.per_sample_grad_bound}


# oracle mode -> class; a mode's parameters are its dataclass fields besides the cost
ORACLE_MODES = {cls.mode: cls for cls in (AdditiveOracle, BatchSubsampleOracle)}


def clip_rows(g: np.ndarray, gamma: float, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise norm clipping min(1, gamma/||g||) g, and the mask of the rows
    it scaled (||g|| > gamma; ties at ||g|| = gamma are left unclipped).

    ``axis=0`` clips the columns of a dimension-major (dim, n) array instead,
    with the same bits.
    """
    norms = np.sqrt(sq_norms(g, axis))
    scale = np.ones_like(norms)
    over = norms > gamma
    scale[over] = gamma / norms[over]
    return g * np.expand_dims(scale, axis), over


_SCALE_MULTIPLIERS = (0.1, 0.5, 1.0, 4.0 / 3.0, 2.0, 5.0)


def _mgf_grid_moments(proj: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation over the rows of exp(s * proj), per scale s.

    ``proj`` has shape (n, d); both results have shape (len(scales), d), and
    row j equals ``np.exp(scales[j] * proj).mean(axis=0)`` and ``.std(axis=0)``
    bit for bit.  numpy reduces axis 0 of a C-contiguous array by adding its
    rows in order, so row blocks streamed through one cache-sized buffer,
    with the running sum carried in the buffer's row 0, add the same numbers
    in the same order.  The second pass recomputes exp to sum the squared
    deviations from the mean, as numpy's var does, instead of storing the
    (n, scales, d) grid.
    """
    n, d = proj.shape
    scales = np.asarray(scales, dtype=np.float64)
    buf = np.empty((min(n, _MGF_BLOCK_ROWS) + 1, scales.size, d))

    def column_mean(center=None):
        buf[0] = 0.0
        for lo in range(0, n, _MGF_BLOCK_ROWS):
            m = min(_MGF_BLOCK_ROWS, n - lo)
            block = buf[1 : m + 1]
            for j, s in enumerate(scales):  # one (m, d) product per scale beats a 3-D broadcast
                np.multiply(proj[lo : lo + m], s, out=block[:, j])
            np.exp(block, out=block)
            if center is not None:
                np.subtract(block, center, out=block)
                np.multiply(block, block, out=block)
            buf[0] = buf[: m + 1].sum(axis=0)
        return buf[0] / n

    mean = column_mean()
    return mean, np.sqrt(column_mean(mean))


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
    scale_multipliers=_SCALE_MULTIPLIERS,
) -> ClippingBiasProbe:
    """Estimate the bias and sub-Gaussian margin of the gamma-clipped oracle.

    Requires ||grad f(x)|| <= gamma/2 (the regime where the bias bound
    4 sigma^p gamma^(1-p) applies) and at least PROBE_MIN_SAMPLES samples.
    Directions for the MGF grid are drawn from the stream before the samples;
    scales are multipliers of 1/(2 gamma), spanning both concentration regimes
    of the clipped deviation theta (which satisfies ||theta|| <= 2 gamma a.s.).
    An empty ``scale_multipliers`` skips the grid but still draws the
    directions, so the bias fields equal the full probe's on the same stream;
    ``margins`` then has shape (_PROBE_DIRECTIONS, 0) and ``subgaussian_margin``
    is -inf.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if num_samples < PROBE_MIN_SAMPLES:
        raise ValueError(
            f"num_samples must be at least {PROBE_MIN_SAMPLES} for a meaningful probe"
        )
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
    dirs = _unit_rows(rng.standard_normal((_PROBE_DIRECTIONS, dim)))
    scales = np.asarray(scale_multipliers, dtype=np.float64) / (2.0 * gamma)

    clipped = np.empty((num_samples, dim))
    for lo in range(0, num_samples, _PROBE_CHUNK):
        hi = min(lo + _PROBE_CHUNK, num_samples)
        clipped[lo:hi] = clip_rows(oracle.query_block(x, rng, hi - lo), gamma)[0]

    mean_clipped = clipped.mean(axis=0)
    bias_vec = mean_clipped - grad
    bias_norm = float(np.linalg.norm(bias_vec))
    bias_se = float(np.sqrt(np.sum(clipped.var(axis=0)) / num_samples))

    margins = np.empty((_PROBE_DIRECTIONS, scales.size))
    margin_ses = np.empty_like(margins)
    if scales.size:
        theta = clipped - mean_clipped
        proj = theta @ dirs.T  # (n, _PROBE_DIRECTIONS)
        est, std = _mgf_grid_moments(proj, scales)
        for j, s in enumerate(scales):
            margins[:, j] = np.log(est[j]) - 3.0 * gamma**2 * s**2
            margin_ses[:, j] = std[j] / (est[j] * np.sqrt(num_samples))

    return ClippingBiasProbe(
        bias_norm_estimate=bias_norm,
        bias_bound=float(bias_bound),
        bias_se=bias_se,
        margins=margins,
        margin_ses=margin_ses,
        subgaussian_margin=float(margins.max(initial=-np.inf)),
        n_samples=num_samples,
        gamma=float(gamma),
    )
