"""Stochastic first-order oracles and gradient-noise generators.

Two oracle modes are provided:

* additive-noise: returns grad f(x) + z with z drawn from a zero-mean
  NoiseModel (spherically bounded, two-point, symmetrized Pareto, or
  Gaussian);
* batch-subsample: for a finite-sum cost, returns the mean per-sample
  gradient over a uniformly random index subset of fixed size.

Every model carries a certified statistical property: an almost-sure norm
bound M, or a closed-form bound sigma^p on the p-th moment.

``OracleSpec`` draws every query: ``randomness_block`` an ensemble's, each
run from its own stream, and ``output_blocks`` n at one point, block by
block of ``_raw_blocks``, for the probes; a mode only sizes, transforms and
applies them.  ``randomness_block`` draws a slab's short uniform-only buffers
by one ``rng.philox_random``, and any other by a stream reset per run.
A draw is split in two.  The *raw draw* fills float64 buffers from a
stream, always in the same order: every standard normal of the block
first, then every uniform on [0, 1).  ``raw_widths`` says how many of each
one query consumes.  The *transform* (unit rows, signs, Pareto radii,
argsort) is a pure function of those buffers and works over any leading
shape, so a slab of many runs, each filled from its own stream, is
transformed in one call with the same bytes as transforming each run
alone.  ``NoiseModel.sample_block`` is the same split in one draw, demos/01's
draw and the reference for ``randomness_block``'s columns and for
``sample_chunks``, through which the suites audit a noise model alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostSpec,
    LogisticBatchCost,
    int_array,
    int_param,
    moment_order_param,
    positive_param,
    real_param,
    real_vector,
    sq_norms,
)
from .rng import PHILOX_SLAB_WORDS, StreamPool, philox_random

_PROBE_CHUNK = 1 << 16  # queries per draw of _raw_blocks, unless the draw is _splittable
# raw variate bytes per row block of _raw_blocks: bounds a block's transform's
# and outputs' temporaries, such as the batch oracle's argsort and gather
_OUTPUT_BLOCK_BYTES = 1 << 20
# raw variate bytes per slab of runs in randomness_block: bounds the slab's
# buffers and its transform's temporaries, not the block it returns;
# philox_random's scratch is bounded apart, by its own blocks of runs
_SLAB_RAW_BYTES = 1 << 22
_SUM_BLOCK_ROWS = 1 << 14  # rows per block of _row_sums
# rows per block of _mgf_grid_moments: its (2048, 6, 8) float64 grid is 768 KiB,
# and OpenBLAS runs a (2048, 8) projection on one thread, where the whole (n, 8)
# product woke a second thread that spun for about as long as the first worked
_MGF_BLOCK_ROWS = 2048
PROBE_MIN_SAMPLES = 10**5  # fewest samples of a check judged in SEs: on a handful the SE is near 0
_PROBE_DIRECTIONS = 8  # directions of clipping_bias_probe's MGF grid


class PreconditionViolation(ValueError):
    """A probe was called outside the regime where its bound applies."""


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Normalize rows to unit norm; an (unreachable) zero row maps to e_1."""
    norms = np.sqrt(sq_norms(z))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # a masked np.divide takes twice as long
        out = z / norms
    out[norms[..., 0] == 0] = np.eye(z.shape[-1])[0]
    return out


def _raw_draw(rng: np.random.Generator, widths: tuple[int, int], n: int):
    """(normals, uniforms) of n queries from one stream; shapes (n, widths[0]), (n, widths[1]).

    Every normal is drawn before every uniform.
    """
    return rng.standard_normal((n, widths[0])), rng.random((n, widths[1]))


def _splittable(widths: tuple[int, int]) -> bool:
    """Whether a ``_raw_draw`` of these widths may be split into consecutive
    draws with the same bits: only one that draws one kind of variate, since
    a stream continues across draws but one draw takes every normal first."""
    return min(widths) == 0


def _raw_blocks(rng: np.random.Generator, widths: tuple[int, int], n: int):
    """The one chunker of a probe draw: n queries' raw variates from ``rng``
    as (lo, (normals, uniforms)) row blocks of queries lo.., in order, each
    about _OUTPUT_BLOCK_BYTES.  Each chunk of _PROBE_CHUNK queries is one
    ``_raw_draw``, cut into blocks; a ``_splittable`` draw is drawn one
    block at a time, with the same bits.  Every transform is row-wise, so
    its bits do not depend on the blocks."""
    rows = max(1, _OUTPUT_BLOCK_BYTES // (8 * sum(widths)))
    draw = rows if _splittable(widths) else _PROBE_CHUNK
    for lo in range(0, n, draw):
        normals, uniforms = _raw_draw(rng, widths, min(draw, n - lo))
        for a in range(0, len(normals), rows):
            yield lo + a, (normals[a : a + rows], uniforms[a : a + rows])


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
        """Draw n iid noise vectors; shape (n, dim).  One ``_raw_draw``: blocks
        of different sizes need not share a prefix, since symmetrized-pareto
        draws all n normals before the n uniforms."""
        return self.transform(*_raw_draw(rng, self.raw_widths(), n))

    def sample_chunks(self, rng: np.random.Generator, n: int):
        """``sample_block(rng, n)`` as (lo, block) pairs in order, each block
        rows lo.. of it, one block of ``_raw_blocks`` each, bit for bit.  The
        stream continues across draws, so only a noise that draws one kind of
        variate can be split: ValueError for one that draws both normals and
        uniforms, whose one draw takes every normal before any uniform."""
        if not _splittable(self.raw_widths()):
            raise ValueError(f"{self.kind} noise draws normals and uniforms, so its draw cannot be split")
        return ((lo, self.transform(*raw)) for lo, raw in _raw_blocks(rng, self.raw_widths(), n))

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
        positive_param("radius", self.radius, strict=False)
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
        positive_param("x_m", self.x_m)
        moment_order_param("moment_order", self.moment_order)
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
        positive_param("scale", self.scale, strict=False)
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

    def randomness_block(self, seed: int, run_indices, n_steps: int) -> np.ndarray:
        """n_steps queries for each run, shape (n_steps, ..., runs): steps
        first and runs last, as ``gradients`` reads them.

        Column i is what ``run_generator(seed, run_indices[i])`` draws alone:
        a slab's raw buffers are filled by one ``philox_random`` if a query
        draws only uniforms, at most PHILOX_SLAB_WORDS of them per run, and
        else by one pool reset per run.  Each slab is transformed in one call.
        """
        idx = int_array("run_indices", run_indices, np.int64)
        n_normals, n_uniforms = self.raw_widths()
        slab = max(1, _SLAB_RAW_BYTES // (8 * max(1, n_steps * (n_normals + n_uniforms))))
        whole_slab = not n_normals and n_steps * n_uniforms <= PHILOX_SLAB_WORDS
        pool = StreamPool(seed)
        # raw buffers reused by every slab: allocating them per slab made the draw ~30% slower
        normals = np.empty((min(slab, idx.size), n_steps, n_normals))
        uniforms = np.empty((min(slab, idx.size), n_steps, n_uniforms))
        out = None
        # one slab at least: with no runs, an empty slab still sets the shape
        for lo in range(0, max(idx.size, 1), slab):
            runs = idx[lo : lo + slab]
            if whole_slab:
                philox_random(seed, runs, uniforms[: runs.size])
            elif n_steps:  # with no steps nothing is drawn, so no stream is reset
                for i, key_word in enumerate(pool.key_words(runs)):
                    rng = pool.reset(key_word)
                    if n_normals:  # the order of _raw_draw: normals, then uniforms
                        rng.standard_normal(out=normals[i])
                    if n_uniforms:
                        rng.random(out=uniforms[i])
            block = np.moveaxis(self.transform(normals[: runs.size], uniforms[: runs.size]), 0, -1)
            if out is None:
                out = np.empty(block.shape[:-1] + (idx.size,), dtype=block.dtype)
            out[..., lo : lo + slab] = block
        return out

    def query_nbytes(self) -> int:
        """Bytes of one query's randomness: ``randomness_block`` holds n_steps
        of them per run."""
        n_normals, n_uniforms = self.raw_widths()
        return self.transform(np.zeros((1, n_normals)), np.zeros((1, n_uniforms))).nbytes

    def gradients(self, x: np.ndarray, randomness: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One step's oracle outputs at points held dimension-major, shape (dim, n).

        ``randomness`` is that step's slice of ``randomness_block``, shape
        (..., n); ``grad`` is ``cost.gradient(x, axis=0)``, which the caller
        has already computed.
        """
        raise NotImplementedError

    def output_blocks(self, x, rng: np.random.Generator, n: int):
        """n independent oracle outputs at a fixed point, as (lo, block) pairs
        in order: block holds outputs lo.., shape (rows, dim), the outputs of
        one block of ``_raw_blocks(rng, raw_widths(), n)``.  The point is
        checked when this is called."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cost.dim,):
            raise ValueError(f"query point must have shape ({self.cost.dim},)")
        return ((lo, self.outputs_at(x, self.transform(*raw))) for lo, raw in _raw_blocks(rng, self.raw_widths(), n))

    def outputs_at(self, x: np.ndarray, randomness: np.ndarray) -> np.ndarray:
        """Oracle outputs at the point x from rows of transformed randomness."""
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

    def outputs_at(self, x, randomness):
        return self.cost.gradient(x) + randomness

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

    def outputs_at(self, x, randomness):
        return self.cost.per_sample_gradients(x)[randomness].mean(axis=1)

    def noise_constants(self):
        # M: the hard a.s. bound on ||g - grad f(x)||, twice the per-sample bound
        return {"M": 2.0 * self.cost.per_sample_grad_bound, "G_ell": self.cost.per_sample_grad_bound}


# oracle mode -> class; a mode's parameters are its dataclass fields besides the cost
ORACLE_MODES = {cls.mode: cls for cls in (AdditiveOracle, BatchSubsampleOracle)}


def clip_rows(g: np.ndarray, gamma: float, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise norm clipping min(1, gamma/||g||) g, and the mask of the rows
    it scaled (||g|| > gamma; ties at ||g|| = gamma are left unclipped).

    ``axis=0`` clips the columns of a dimension-major (dim, n) array instead,
    with the same bits.  A row of infinite norm comes out with norm gamma too:
    a finite one is divided by its largest magnitude first, and one with
    infinite entries points along their signs.  A row with a NaN is left as is.
    """
    # a norm that overflows, and its scale gamma / inf, are set by the fix-up below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = np.sqrt(sq_norms(g, axis))
        over = norms > gamma
        if not np.count_nonzero(over):
            return g.copy(), over
        # the rows not clipped are multiplied by 1.0, which keeps their bits
        scale = np.where(over, gamma / norms, 1.0)
        out = g * (scale[None] if axis == 0 else scale[..., None])
    huge = np.isinf(norms)
    if np.count_nonzero(huge):
        rows = np.moveaxis(g, axis, -1)[huge]  # one row per infinite norm
        rows = np.where(np.isinf(rows).any(axis=-1, keepdims=True), np.sign(rows) * np.isinf(rows), rows)
        unit = rows / np.abs(rows).max(axis=-1, keepdims=True)
        np.moveaxis(out, axis, -1)[huge] = unit * (gamma / np.sqrt(sq_norms(unit)))[:, None]
    return out, over


_SCALE_MULTIPLIERS = (0.1, 0.5, 1.0, 4.0 / 3.0, 2.0, 5.0)


def _row_sums(rows: np.ndarray, square: bool = False) -> np.ndarray:
    """``rows.sum(axis=0)`` (``square``: of ``rows * rows``) of an (n, d) array, bit
    for bit.  numpy adds a C-contiguous array's rows in order, one inner loop per
    row; here one np.add.accumulate per block adds each column on from column 0."""
    buf = np.zeros((rows.shape[1], min(len(rows), _SUM_BLOCK_ROWS) + 1))
    for lo in range(0, len(rows), _SUM_BLOCK_ROWS):
        block = rows[lo : lo + _SUM_BLOCK_ROWS].T
        acc = buf[:, : block.shape[1] + 1]
        np.multiply(block, block if square else 1.0, out=acc[:, 1:])  # x * 1.0 is x, bit for bit
        np.add.accumulate(acc, axis=1, out=acc)
        buf[:, 0] = acc[:, -1]
    return buf[:, 0].copy()


def _mgf_grid_moments(rows: np.ndarray, dirs: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation over the rows of exp(s * rows @ dirs.T), per scale s.

    ``rows`` has shape (n, dim) and ``dirs`` (k, dim); both results have
    shape (len(scales), k), and row j equals
    ``np.exp(scales[j] * (rows @ dirs.T)).mean(axis=0)`` and ``.std(axis=0)``
    bit for bit.  Each pass projects and reduces one block of
    _MGF_BLOCK_ROWS rows at a time, so no (n, k) array is held.  No block
    has a single row unless n is 1: a one-row product takes BLAS's
    matrix-vector path, whose bits differ from the rows of a matrix product,
    so a last block of one row joins the block before it.  A block's grid
    fills one cache-sized buffer, with the running sum carried in its row 0,
    and its rows are added in order, as numpy adds rows.  The second pass
    recomputes exp to sum the squared deviations from the mean, as numpy's
    var does, instead of storing the (n, scales, k) grid.
    """
    n = len(rows)
    scales = np.asarray(scales, dtype=np.float64)
    bounds = list(range(0, n, _MGF_BLOCK_ROWS)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    buf = np.empty((min(n, _MGF_BLOCK_ROWS + 1) + 1, scales.size, len(dirs)))

    def column_mean(center=None):
        buf[0] = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            proj = rows[lo:hi] @ dirs.T
            block = buf[1 : hi - lo + 1]
            for j, s in enumerate(scales):  # one (m, k) product per scale beats a 3-D broadcast
                np.multiply(proj, s, out=block[:, j])
            np.exp(block, out=block)
            if center is not None:
                np.subtract(block, center, out=block)
                np.multiply(block, block, out=block)
            buf[0] = buf[: hi - lo + 1].sum(axis=0)
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
    ``margins`` then has shape (_PROBE_DIRECTIONS, 0).  The mean and variance
    of the clipped outputs are those of numpy's ``mean``/``var(axis=0)``, bit
    for bit, summed by ``_row_sums``.  The probe holds one (num_samples, dim)
    array: each block of ``output_blocks`` is clipped into it, and it is
    centred in place.
    """
    positive_param("gamma", gamma)
    int_param("num_samples", num_samples, minimum=PROBE_MIN_SAMPLES)
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

    dirs = _unit_rows(rng.standard_normal((_PROBE_DIRECTIONS, oracle.cost.dim)))
    scales = np.asarray(scale_multipliers, dtype=np.float64) / (2.0 * gamma)

    theta = np.empty((num_samples, oracle.cost.dim))
    for lo, block in oracle.output_blocks(x, rng, num_samples):
        theta[lo : lo + len(block)] = clip_rows(block, gamma)[0]
    mean_clipped = _row_sums(theta) / num_samples
    theta -= mean_clipped  # the centred outputs, with the bits of clipped - mean_clipped
    bias_norm = float(np.linalg.norm(mean_clipped - grad))
    bias_se = float(np.sqrt(np.sum(_row_sums(theta, square=True) / num_samples) / num_samples))

    margins = np.empty((_PROBE_DIRECTIONS, scales.size))
    margin_ses = np.empty_like(margins)
    if scales.size:
        est, std = _mgf_grid_moments(theta, dirs, scales)
        for j, s in enumerate(scales):
            margins[:, j] = np.log(est[j]) - 3.0 * gamma**2 * s**2
            margin_ses[:, j] = std[j] / (est[j] * np.sqrt(num_samples))

    return ClippingBiasProbe(
        bias_norm_estimate=bias_norm,
        bias_bound=float(bias_bound),
        bias_se=bias_se,
        margins=margins,
        margin_ses=margin_ses,
    )
