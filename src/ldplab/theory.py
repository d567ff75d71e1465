"""Closed-form tail decay rates, rate functions, and comparison curves.

A RateSpec pairs a decay-rate sequence n_t with a rate function I so that
tails are summarized as P(F_t > eps) ~ exp(-n_t I(eps)) for large t.  The
numerical convex conjugate (Fenchel-Legendre transform) cross-checks each
closed-form rate function against the quadratic that generates it.

Decay sequences involve log(t) and are meant for t >= 3, where log(t) > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def beta_exponent(p: float) -> float:
    """Power-law exponent 4(p-1)/(3p-2) of the heavy-tail decay rate."""
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    return 4.0 * (p - 1.0) / (3.0 * p - 2.0)


def _as_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 1):
        raise ValueError("decay rates are defined for t > 1 (intended for t >= 3)")
    return t


def _scalar_out(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _nt_sqrt(t):
    return _scalar_out(np.sqrt(_as_t(t)))


def _nt_t_over_log(t):
    t = _as_t(t)
    return _scalar_out(t / np.log(t))


def _nt_t_over_log2(t):
    t = _as_t(t)
    return _scalar_out(t / np.log(t) ** 2)


def _nt_linear(t):
    return _scalar_out(_as_t(t))


def _nt_power_over_log(beta: float) -> Callable:
    def nt(t):
        t = _as_t(t)
        return _scalar_out(t**beta / np.log(t))

    return nt


def _nt_power_over_logpow(beta_half: float, log_pow: float) -> Callable:
    def nt(t):
        t = _as_t(t)
        return _scalar_out(t**beta_half / np.log(t) ** log_pow)

    return nt


def _quadratic_rate(denominator: float) -> Callable:
    """x^2/denominator on x >= 0, +infinity on x < 0."""

    def rate(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.where(x < 0, np.inf, x * x / denominator)
        return _scalar_out(out)

    return rate


@dataclass(frozen=True, eq=False)
class RateSpec:
    """Decay-rate sequence plus closed-form rate function.

    rate_function_I is None for bare decay families used only as fit
    candidates.
    """

    name: str
    decay_rate_nt: Callable
    rate_function_I: Callable | None
    params: dict = field(default_factory=dict)


_FAMILY_KINDS = ("sqrt-t", "t-over-log", "power-over-log", "t-over-log2", "linear-t")


def decay_family(kind: str, p: float | None = None) -> RateSpec:
    """Bare decay-rate family by name; 'power-over-log' needs the moment p."""
    if kind == "sqrt-t":
        return RateSpec(kind, _nt_sqrt, None)
    if kind == "t-over-log":
        return RateSpec(kind, _nt_t_over_log, None)
    if kind == "t-over-log2":
        return RateSpec(kind, _nt_t_over_log2, None)
    if kind == "linear-t":
        return RateSpec(kind, _nt_linear, None)
    if kind == "power-over-log":
        if p is None:
            raise ValueError("power-over-log family requires the moment order p")
        beta = beta_exponent(p)
        return RateSpec(kind, _nt_power_over_log(beta), None, params={"p": p, "beta": beta})
    raise ValueError(f"unknown decay family {kind!r}; expected one of {_FAMILY_KINDS}")


def rate_sgd(M: float, G: float) -> RateSpec:
    """Vanilla-SGD tail law under an a.s. noise bound M: n_t = t/log t,
    I(x) = x^2 / (24 M^2 G^2)."""
    if not (M > 0 and G > 0):
        raise ValueError("M and G must be positive")
    return RateSpec(
        name="sgd",
        decay_rate_nt=_nt_t_over_log,
        rate_function_I=_quadratic_rate(24.0 * M**2 * G**2),
        params={"M": M, "G": G},
    )


def rate_csgd(G: float, p: float) -> RateSpec:
    """Clipped-SGD tail law with the 2G-coefficient threshold schedule.

    p in (1,2): n_t = t^beta_p/log t with I(x) = x^2/(768 G^4);
    p = 2:      n_t = t/log^2 t  with I(x) = x^2/(384 G^4).
    """
    if not G > 0:
        raise ValueError("G must be positive")
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    if p == 2.0:
        nt = _nt_t_over_log2
        denom = 384.0 * G**4
    else:
        nt = _nt_power_over_log(beta_exponent(p))
        denom = 768.0 * G**4
    return RateSpec(
        name="csgd",
        decay_rate_nt=nt,
        rate_function_I=_quadratic_rate(denom),
        params={"G": G, "p": p},
    )


def rate_csgd_generalC(G: float, C: float, p: float) -> RateSpec:
    """Clipped-SGD tail law with an arbitrary threshold coefficient C.

    Same decay rates as rate_csgd; I(x) = x^2/(192 C^2 G^2) for p in (1,2)
    and x^2/(96 C^2 G^2) for p = 2.  With C = 2G these coincide with
    rate_csgd exactly.
    """
    if not (G > 0 and C > 0):
        raise ValueError("G and C must be positive")
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    if p == 2.0:
        nt = _nt_t_over_log2
        denom = 96.0 * C**2 * G**2
    else:
        nt = _nt_power_over_log(beta_exponent(p))
        denom = 192.0 * C**2 * G**2
    return RateSpec(
        name="csgd-generalC",
        decay_rate_nt=nt,
        rate_function_I=_quadratic_rate(denom),
        params={"G": G, "C": C, "p": p},
    )


def _half_quadratic_phi(coefficient: float) -> Callable:
    """phi(lam) = coefficient * lam^2 on lam >= 0, zero on lam < 0."""

    def phi(lam):
        lam = np.asarray(lam, dtype=np.float64)
        out = np.where(lam < 0, 0.0, coefficient * lam * lam)
        return _scalar_out(out)

    return phi


def generating_phi(rate: RateSpec) -> Callable:
    """The limiting scaled log-MGF whose convex conjugate is rate.rate_function_I.

    Every closed-form rate function here is x^2/denom with denom = 4c, where
    phi(lam) = c lam^2 on lam >= 0.
    """
    if rate.rate_function_I is None:
        raise ValueError("bare decay families have no generating function")
    denom = 1.0 / rate.rate_function_I(1.0)
    return _half_quadratic_phi(denom / 4.0)


def _golden_max(f: Callable, lo: float, hi: float, iters: int = 90) -> float:
    """Golden-section maximum of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
    return max(fc, fd)


def fenchel_legendre(phi: Callable, x_grid, lambda_grid) -> np.ndarray:
    """Numerical convex conjugate: sup over lambda of x*lam - phi(lam).

    The supremum is taken over lambda_grid and then refined by a
    golden-section search between the grid neighbours of the argmax; phi is
    assumed finite on the grid.  Returns one value per x_grid entry.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)
    lam = np.asarray(lambda_grid, dtype=np.float64)
    if x_grid.size == 0 or lam.size == 0:
        raise ValueError("x_grid and lambda_grid must be non-empty")
    if np.any(np.diff(lam) <= 0):
        raise ValueError("lambda_grid must be strictly increasing")
    phi_vals = np.asarray(phi(lam), dtype=np.float64)
    if phi_vals.shape != lam.shape:
        phi_vals = np.asarray([float(phi(l)) for l in lam])
    if not np.all(np.isfinite(phi_vals)):
        raise ValueError("phi must be finite on lambda_grid")

    out = np.empty_like(x_grid)
    for k, x in enumerate(x_grid):
        vals = x * lam - phi_vals
        i = int(np.argmax(vals))
        lo = lam[max(i - 1, 0)]
        hi = lam[min(i + 1, lam.size - 1)]
        if hi > lo:
            out[k] = _golden_max(lambda l: x * l - float(phi(l)), lo, hi)
        else:
            out[k] = vals[i]
    return out


def conjugate_lambda_grid(rate: RateSpec, x_max: float, resolution: float = 1e-4) -> np.ndarray:
    """Lambda grid covering the conjugate maximizers for x in [0, x_max].

    For phi = c lam^2 the maximizer at x is x/(2c); the grid extends 50%
    beyond it at the requested resolution.
    """
    denom = 1.0 / rate.rate_function_I(1.0)
    lam_star = x_max / (denom / 2.0)
    hi = 1.5 * lam_star
    n = max(int(math.ceil(hi / resolution)), 64)
    return np.linspace(0.0, hi, n + 1)


def transform_consistency(rate: RateSpec, x_grid=None, resolution: float = 1e-4) -> float:
    """Max relative error between the numerical conjugate of the generating
    function and the closed-form rate function on x_grid (default [0, 10])."""
    if x_grid is None:
        x_grid = np.linspace(0.0, 10.0, 201)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    lam = conjugate_lambda_grid(rate, float(x_grid.max()), resolution)
    numeric = fenchel_legendre(generating_phi(rate), x_grid, lam)
    closed = np.asarray(rate.rate_function_I(x_grid))
    denom = np.maximum(np.abs(closed), 1e-12)
    return float(np.max(np.abs(numeric - closed) / denom))


def lower_bound_exact_prob(t: int) -> float:
    """Probability 2^(1-t) that the exactly solvable instance has not moved
    from its initialization through time t."""
    if not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError("t must be a positive integer")
    return 2.0 ** (1 - int(t))


@dataclass(frozen=True, eq=False)
class SotaCurve:
    """Comparison curve: decay-rate sequence and asymptotic log-tail slope."""

    name: str
    decay_rate_nt: Callable
    asymptotic_slope: Callable  # eps -> limsup n_t^-1 log P(F_t > eps) bound
    params: dict


def sota_curves(kind: str, **params) -> SotaCurve:
    """Published long-run tail baselines for overlay plots.

    'liu-sgd'      (B):                n_t = sqrt(t),        slope -eps/(12 B^2)
    'nguyen-csgd'  (sigma, delta, L, p): n_t = t^(beta_p/2)/log^(2p/(3p-2)) t,
                                         slope -eps/(720 sigma sqrt(delta L))
    'armacki-nsgd' (C, L):             n_t = sqrt(t)/log t,  slope -min(eps, sqrt(eps))/(16 C^4 L^2)
    """

    def need(*names):
        missing = [n for n in names if n not in params]
        if missing:
            raise ValueError(f"sota curve {kind!r} requires parameters {missing}")
        return [float(params[n]) for n in names]

    if kind == "liu-sgd":
        (B,) = need("B")
        return SotaCurve(kind, _nt_sqrt, lambda eps: -eps / (12.0 * B**2), {"B": B})
    if kind == "nguyen-csgd":
        sigma, delta, L, p = need("sigma", "delta", "L", "p")
        if not 1.0 < p <= 2.0:
            raise ValueError("p must lie in (1, 2]")
        beta_half = beta_exponent(p) / 2.0
        log_pow = 2.0 * p / (3.0 * p - 2.0)
        coeff = 720.0 * sigma * math.sqrt(delta * L)
        return SotaCurve(
            kind,
            _nt_power_over_logpow(beta_half, log_pow),
            lambda eps: -eps / coeff,
            {"sigma": sigma, "delta": delta, "L": L, "p": p},
        )
    if kind == "armacki-nsgd":
        C, L = need("C", "L")
        return SotaCurve(
            kind,
            _nt_power_over_logpow(0.5, 1.0),
            lambda eps: -min(eps, math.sqrt(eps)) / (16.0 * C**4 * L**2),
            {"C": C, "L": L},
        )
    raise ValueError(f"unknown sota curve kind {kind!r}")
