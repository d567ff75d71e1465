"""Closed-form tail laws, rate functions, and the numerical conjugate.

Every curve the lab fits or draws is one RateSpec: a tail law
P(F_t > eps) ~ exp(-n_t I(eps)) with n_t = t^a / log(t)^b.  The paper's laws
(sgd, csgd, csgd-generalC), the published baselines they are compared with
(sota_curves) and the bare fit families (decay_family) differ only in a, b
and, where there is a rate function, I.  The numerical convex conjugate
(Fenchel-Legendre transform) cross-checks each quadratic rate function
against the limiting log-MGF that generates it.

Decay sequences involve log(t) and are meant for t >= 3, where log(t) > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .costs import int_param, moment_order_param, positive_param, real_param

DECAY_T_MIN = 3  # the first step t the decay sequences are meant for


def beta_exponent(p: float) -> float:
    """Power-law exponent 4(p-1)/(3p-2) of the heavy-tail decay rate."""
    p = moment_order_param("p", p)
    return 4.0 * (p - 1.0) / (3.0 * p - 2.0)


def _as_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 1):
        raise ValueError("decay rates are defined for t > 1 (intended for t >= 3)")
    return t


def _scalar_out(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _pow(x: float, n: int) -> float:
    """x**n as Python computes it, or +inf where that overflows."""
    try:
        return x**n
    except OverflowError:
        return math.inf


# shapes of I(x) = shape(x)/denominator: the paper's laws are quadratic, the
# baselines linear or min(x, sqrt x)
_SHAPES = ("x^2", "x", "min(x,sqrt x)")


@dataclass(frozen=True, eq=False)
class RateSpec:
    """A tail law P(F_t > eps) ~ exp(-n_t I(eps)).

    n_t = t^power / log(t)^log_power, and I(x) = shape(x)/denominator on
    x >= 0, +infinity on x < 0.  Bare decay families, fit candidates only,
    have no denominator and no rate function; any other denominator must be
    a finite positive number.
    """

    name: str
    power: float
    log_power: float
    denominator: float | None = None
    shape: str = "x^2"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown rate shape {self.shape!r}; expected one of {_SHAPES}")
        if self.denominator is not None and not 0.0 < self.denominator < math.inf:
            values = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
            raise ValueError(
                f"{self.name} law: rate denominator {self.denominator!r} is not a finite positive number ({values})"
            )

    def decay_rate_nt(self, t):
        t = _as_t(t)
        return _scalar_out(t**self.power / np.log(t) ** self.log_power)

    def rate_function_I(self, x):
        if self.denominator is None:
            raise ValueError(f"decay family {self.name!r} has no rate function")
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):  # an I(x) beyond the float range is +inf
            if self.shape == "x^2":
                shape = x * x
            elif self.shape == "x":
                shape = x
            else:
                shape = np.minimum(x, np.sqrt(np.maximum(x, 0.0)))
            return _scalar_out(np.where(x < 0, np.inf, shape / self.denominator))


def _checked(**values) -> dict:
    """values as floats, in order: p through moment_order_param, the others through real_param, then positive_param."""
    return {k: moment_order_param(k, v) if k == "p" else positive_param(k, real_param(k, v)) for k, v in values.items()}


# family -> (power, log power) of n_t; power-over-log's power is beta_exponent(p)
_FAMILY_POWERS = {
    "sqrt-t": (0.5, 0.0),
    "t-over-log": (1.0, 1.0),
    "power-over-log": (None, 1.0),
    "t-over-log2": (1.0, 2.0),
    "linear-t": (1.0, 0.0),
}
DECAY_FAMILIES = tuple(_FAMILY_POWERS)


def decay_family(kind: str, p: float | None = None) -> RateSpec:
    """Bare decay-rate family by name; 'power-over-log' needs the moment p."""
    if kind not in _FAMILY_POWERS:
        raise ValueError(f"unknown decay family {kind!r}; expected one of {DECAY_FAMILIES}")
    power, log_pow = _FAMILY_POWERS[kind]
    params = {}
    if power is None:
        if p is None:
            raise ValueError("power-over-log family requires the moment order p")
        power = beta_exponent(p)
        params = {"p": p, "beta": power}
    return RateSpec(kind, power, log_pow, params=params)


def decay_families(names, p: float | None = None) -> tuple:
    """``decay_family`` of each of a list of distinct names; ValueError on a repeated one."""
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"decay family {name!r} is listed twice")
    return tuple(decay_family(name, p=p) for name in names)


def rate_sgd(M: float, G: float) -> RateSpec:
    """Vanilla-SGD tail law under an a.s. noise bound M: n_t = t/log t,
    I(x) = x^2 / (24 M^2 G^2)."""
    params = _checked(M=M, G=G)
    M, G = params.values()
    return RateSpec("sgd", 1.0, 1.0, 24.0 * _pow(M, 2) * _pow(G, 2), params=params)


def _clipped_rate(name: str, denominator: float, params: dict) -> RateSpec:
    """A clipped-SGD tail law: n_t = t^beta_p/log t for p in (1,2), t/log^2 t
    at p = 2, and I(x) = x^2/denominator."""
    p = params["p"]
    power, log_power = (1.0, 2.0) if p == 2.0 else (beta_exponent(p), 1.0)
    return RateSpec(name, power, log_power, denominator, params=params)


def rate_csgd(G: float, p: float) -> RateSpec:
    """Clipped-SGD tail law with the 2G-coefficient threshold schedule.

    p in (1,2): n_t = t^beta_p/log t with I(x) = x^2/(768 G^4);
    p = 2:      n_t = t/log^2 t  with I(x) = x^2/(384 G^4).
    """
    params = _checked(G=G, p=p)
    G, p = params.values()
    return _clipped_rate("csgd", 384.0 * _pow(G, 4) if p == 2.0 else 768.0 * _pow(G, 4), params)


def rate_csgd_generalC(G: float, C: float, p: float) -> RateSpec:
    """Clipped-SGD tail law with an arbitrary threshold coefficient C.

    Same decay rates as rate_csgd; I(x) = x^2/(192 C^2 G^2) for p in (1,2)
    and x^2/(96 C^2 G^2) for p = 2.  With C = 2G these coincide with
    rate_csgd exactly.
    """
    params = _checked(G=G, C=C, p=p)
    G, C, p = params.values()
    denominator = 96.0 * _pow(C, 2) * _pow(G, 2) if p == 2.0 else 192.0 * _pow(C, 2) * _pow(G, 2)
    return _clipped_rate("csgd-generalC", denominator, params)


def generating_phi(rate: RateSpec) -> Callable:
    """The limiting scaled log-MGF whose convex conjugate is rate.rate_function_I.

    Every quadratic rate function here is x^2/denominator with
    denominator = 4c, where phi(lam) = c lam^2 on lam >= 0 and zero below.
    phi takes one float, as ``fenchel_legendre`` calls it.
    """
    if rate.denominator is None or rate.shape != "x^2":
        raise ValueError(f"{rate.name!r} has no quadratic rate function, so no generating function")
    coefficient = rate.denominator / 4.0

    def phi(lam: float) -> float:
        return 0.0 if lam < 0 else coefficient * lam * lam

    return phi


def _golden_max(f: Callable, lo: float, hi: float) -> float:
    """Golden-section maximum of a unimodal f on [lo, hi], in at most 90 steps."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
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
    assumed finite on the grid and is only ever called on one float, so a phi
    of floats alone will do.  Returns one value per x_grid entry.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)
    lam = np.asarray(lambda_grid, dtype=np.float64)
    if x_grid.size == 0 or lam.size == 0:
        raise ValueError("x_grid and lambda_grid must be non-empty")
    if np.any(np.diff(lam) <= 0):
        raise ValueError("lambda_grid must be strictly increasing")
    phi_vals = np.array([float(phi(l)) for l in lam.tolist()])
    if not np.all(np.isfinite(phi_vals)):
        raise ValueError("phi must be finite on lambda_grid")

    out = np.empty_like(x_grid)
    for k, x in enumerate(x_grid.tolist()):  # Python floats: numpy's IEEE operations, without its per-call cost
        i = int(np.argmax(x * lam - phi_vals))
        lo, hi = float(lam[max(i - 1, 0)]), float(lam[min(i + 1, lam.size - 1)])
        out[k] = _golden_max(lambda l: x * l - float(phi(l)), lo, hi)  # a one-point grid gives its one value
    return out


def transform_consistency(rate: RateSpec) -> float:
    """Max relative error between the numerical conjugate of the generating
    function and the closed-form rate function on 201 points of [0, 10].

    For phi = c lam^2 the conjugate's maximizer at x is x/(2c); the lambda
    grid extends 50% beyond the one at x = 10, at a resolution of 1e-4.
    """
    x_grid = np.linspace(0.0, 10.0, 201)
    phi = generating_phi(rate)
    hi = 1.5 * (10.0 / (rate.denominator / 2.0))
    lam = np.linspace(0.0, hi, max(int(math.ceil(hi / 1e-4)), 64) + 1)
    numeric = fenchel_legendre(phi, x_grid, lam)
    closed = np.asarray(rate.rate_function_I(x_grid))
    denom = np.maximum(np.abs(closed), 1e-12)
    return float(np.max(np.abs(numeric - closed) / denom))


def lower_bound_exact_prob(t: int) -> float:
    """Probability 2^(1-t) that the exactly solvable instance has not moved
    from its initialization through time t."""
    return 2.0 ** (1 - int_param("t", t))


# sota kind -> its parameters; the first is the one only that kind takes
SOTA_KINDS = {"liu-sgd": ("B",), "nguyen-csgd": ("sigma", "delta", "L", "p"), "armacki-nsgd": ("C", "L")}


def sota_curves(kind: str, **params) -> RateSpec:
    """Published long-run tail baselines for overlay plots; each kind takes
    exactly its SOTA_KINDS parameters, all positive but p.

    'liu-sgd'      (B):                n_t = sqrt(t),        I(x) = x/(12 B^2)
    'nguyen-csgd'  (sigma, delta, L, p): n_t = t^(beta_p/2)/log^(2p/(3p-2)) t,
                                         I(x) = x/(720 sigma sqrt(delta L))
    'armacki-nsgd' (C, L):             n_t = sqrt(t)/log t,  I(x) = min(x, sqrt x)/(16 C^4 L^2)
    """
    if not isinstance(kind, str) or kind not in SOTA_KINDS:
        raise ValueError(f"unknown sota curve kind {kind!r}; expected one of {tuple(SOTA_KINDS)}")
    names = SOTA_KINDS[kind]
    missing = [n for n in names if n not in params]
    if missing:
        raise ValueError(f"sota curve {kind!r} requires parameters {missing}")
    unused = sorted(set(params) - set(names))
    if unused:
        raise ValueError(f"sota curve {kind!r} does not take parameters {unused}")
    v = _checked(**{n: params[n] for n in names})

    if kind == "liu-sgd":
        return RateSpec(kind, 0.5, 0.0, 12.0 * _pow(v["B"], 2), "x", v)
    if kind == "nguyen-csgd":
        p = v["p"]
        denominator = 720.0 * v["sigma"] * math.sqrt(v["delta"] * v["L"])
        return RateSpec(kind, beta_exponent(p) / 2.0, 2.0 * p / (3.0 * p - 2.0), denominator, "x", v)
    return RateSpec(kind, 0.5, 1.0, 16.0 * _pow(v["C"], 4) * _pow(v["L"], 2), "min(x,sqrt x)", v)
