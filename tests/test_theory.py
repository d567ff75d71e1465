import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab.theory import (
    beta_exponent,
    decay_family,
    fenchel_legendre,
    generating_phi,
    lower_bound_exact_prob,
    rate_csgd,
    rate_csgd_generalC,
    rate_sgd,
    sota_curves,
    transform_consistency,
)


class TestRateFunctions:
    def test_sgd_closed_form(self):
        rate = rate_sgd(1.0, 1.0)
        assert rate.rate_function_I(1.0) == pytest.approx(1.0 / 24.0)
        assert rate.rate_function_I(0.0) == 0.0
        assert rate_sgd(2.0, 3.0).rate_function_I(-0.1) == math.inf

    def test_csgd_branches(self):
        assert rate_csgd(1.0, 2.0).rate_function_I(1.0) == pytest.approx(1.0 / 384.0)
        assert rate_csgd(1.0, 1.5).rate_function_I(1.0) == pytest.approx(1.0 / 768.0)

    def test_beta_exponent(self):
        assert beta_exponent(1.5) == pytest.approx(0.8)
        assert beta_exponent(2.0) == pytest.approx(1.0)

    def test_generalC_values(self):
        # C = 2G reproduces the 2G-coefficient law exactly
        assert rate_csgd_generalC(1.0, 2.0, 1.5).rate_function_I(1.0) == pytest.approx(1.0 / 768.0)
        assert rate_csgd_generalC(1.0, 4.0, 2.0).rate_function_I(2.0) == pytest.approx(
            4.0 / (96.0 * 16.0)
        )

    def test_generalC_consistency_pointwise(self):
        x = np.linspace(0.0, 10.0, 501)
        for p in (1.5, 2.0):
            a = rate_csgd(1.3, p).rate_function_I(x)
            b = rate_csgd_generalC(1.3, 2.0 * 1.3, p).rate_function_I(x)
            np.testing.assert_allclose(a, b, rtol=1e-15)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            rate_csgd(1.0, 2.5)
        with pytest.raises(ValueError):
            rate_csgd(1.0, 1.0)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_rate_shape_nonneg_monotone(self, x1, x2):
        rate = rate_sgd(1.0, 2.0)
        lo, hi = min(x1, x2), max(x1, x2)
        assert 0.0 <= rate.rate_function_I(lo) <= rate.rate_function_I(hi)

    def test_negative_axis_infinite(self):
        for rate in (rate_sgd(1, 1), rate_csgd(1, 1.5), rate_csgd_generalC(1, 3, 2.0)):
            assert rate.rate_function_I(-1e-9) == math.inf


class TestDecayFamilies:
    def test_values(self):
        assert decay_family("sqrt-t").decay_rate_nt(100.0) == pytest.approx(10.0)
        assert decay_family("t-over-log").decay_rate_nt(math.e**2) == pytest.approx(math.e**2 / 2)
        assert decay_family("linear-t").decay_rate_nt(7.0) == 7.0
        beta = beta_exponent(1.5)
        fam = decay_family("power-over-log", p=1.5)
        assert fam.decay_rate_nt(1000.0) == pytest.approx(1000.0**beta / math.log(1000.0))

    def test_power_requires_p(self):
        with pytest.raises(ValueError):
            decay_family("power-over-log")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            decay_family("exp-t")

    def test_diverges_on_large_t_grid(self):
        ts = np.logspace(3, 9, 7)
        for name, p in (("sqrt-t", None), ("t-over-log", None), ("t-over-log2", None),
                        ("linear-t", None), ("power-over-log", 1.5)):
            nt = decay_family(name, p=p).decay_rate_nt(ts)
            assert np.all(np.diff(nt) > 0)
            assert nt[-1] > 1e3

    def test_new_rates_dominate_baselines(self):
        # the sharpened decay rates strictly dominate the published ones
        ts = np.logspace(3, 9, 13)
        sgd = rate_sgd(1.0, 1.0).decay_rate_nt(ts)
        liu = sota_curves("liu-sgd", B=1.0).decay_rate_nt(ts)
        assert np.all(sgd > liu)
        for p in (1.2, 1.5, 2.0):
            ours = rate_csgd(1.0, p).decay_rate_nt(ts)
            nguyen = sota_curves("nguyen-csgd", sigma=1.0, delta=1.0, L=1.0, p=p).decay_rate_nt(ts)
            assert np.all(ours > nguyen)
        armacki = sota_curves("armacki-nsgd", C=1.0, L=1.0).decay_rate_nt(ts)
        assert np.all(rate_csgd(1.0, 1.5).decay_rate_nt(ts) > armacki)


class TestFenchelLegendre:
    def test_quadratic_reproduces_closed_form(self):
        phi = generating_phi(rate_sgd(1.0, 1.0))
        lam = np.linspace(0.0, 1.0, 10001)
        out = fenchel_legendre(phi, np.array([1.0]), lam)
        assert out[0] == pytest.approx(1.0 / 24.0, rel=1e-6)

    def test_zero_at_origin(self):
        phi = generating_phi(rate_csgd(1.0, 1.5))
        out = fenchel_legendre(phi, np.array([0.0]), np.linspace(0.0, 0.1, 101))
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_heavy_branch_value(self):
        phi = generating_phi(rate_csgd(1.0, 1.5))  # 192 lam^2
        lam = np.linspace(0.0, 0.05, 2001)
        out = fenchel_legendre(phi, np.array([1.0]), lam)
        assert out[0] == pytest.approx(1.0 / 768.0, rel=1e-6)

    def test_scalar_only_phi_matches_closed_form(self):
        # fenchel_legendre calls phi on floats only, so a phi that takes no arrays will do
        seen = []

        def phi(lam):
            seen.append(type(lam))
            return 6.0 * lam * lam if lam >= 0 else 0.0  # rate_sgd(1, 1)'s, for floats only

        x = np.linspace(0.0, 2.0, 21)
        out = fenchel_legendre(phi, x, np.linspace(0.0, 0.5, 2001))
        np.testing.assert_allclose(out, rate_sgd(1.0, 1.0).rate_function_I(x), rtol=1e-6, atol=1e-15)
        assert set(seen) == {float}

    def test_one_point_grid_gives_its_value(self):
        phi = generating_phi(rate_sgd(1.0, 1.0))  # 6 lam^2
        out = fenchel_legendre(phi, np.array([0.5, 2.0]), np.array([0.25]))
        assert out.tobytes() == (np.array([0.5, 2.0]) * 0.25 - 6.0 * 0.25 * 0.25).tobytes()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fenchel_legendre(lambda l: l * l, np.array([]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "rate",
        [
            rate_sgd(1.0, 1.0),
            rate_sgd(2.0, 0.5),
            rate_csgd(1.0, 1.5),
            rate_csgd(1.0, 2.0),
            rate_csgd_generalC(1.0, 3.0, 1.5),
            rate_csgd_generalC(1.0, 3.0, 2.0),
        ],
        ids=lambda r: f"{r.name}-{r.params}",
    )
    def test_transform_consistency_below_tolerance(self, rate):
        assert transform_consistency(rate) <= 1e-3


class TestLowerBoundProb:
    def test_values(self):
        assert lower_bound_exact_prob(1) == 1.0
        assert lower_bound_exact_prob(3) == 0.25
        assert lower_bound_exact_prob(11) == pytest.approx(9.765625e-4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            lower_bound_exact_prob(0)


class TestSotaCurves:
    def test_liu_slope(self):
        assert -sota_curves("liu-sgd", B=1.0).rate_function_I(1.0) == pytest.approx(-1.0 / 12.0)

    def test_armacki_min_structure(self):
        curve = sota_curves("armacki-nsgd", C=1.0, L=1.0)
        assert -curve.rate_function_I(1.0) == pytest.approx(-1.0 / 16.0)
        # below 1 the sqrt branch is active
        assert -curve.rate_function_I(0.25) == pytest.approx(-0.25 / 16.0)
        assert -curve.rate_function_I(4.0) == pytest.approx(-2.0 / 16.0)

    def test_nguyen_slope(self):
        curve = sota_curves("nguyen-csgd", sigma=1.0, delta=1.0, L=1.0, p=1.5)
        assert -curve.rate_function_I(2.0) == pytest.approx(-1.0 / 360.0)

    def test_missing_params(self):
        with pytest.raises(ValueError):
            sota_curves("liu-sgd")
        with pytest.raises(ValueError):
            sota_curves("unknown-method", B=1.0)
    def test_generating_phi_needs_a_quadratic_law(self):
        for law in (sota_curves("liu-sgd", B=1.0), decay_family("sqrt-t")):
            with pytest.raises(ValueError, match="no quadratic rate function"):
                generating_phi(law)


# (law, decay sequence, slope at eps) of every law kind: the sequence and the
# slope -I(eps) written out as the expressions the CSV and SVG outputs were
# first produced with, in the same operation order
_T = np.unique(np.round(np.logspace(np.log10(3), 6, 61)))
_M, _G, _C, _B, _SIGMA, _DELTA, _L = 1.3, 0.9, 3.0, 0.6, 1.26, 1.55, 0.7
_REFERENCE_LAWS = {
    "sgd": (rate_sgd(_M, _G), lambda t: t**1.0 / np.log(t) ** 1.0,
            lambda e: -(e * e / (24.0 * _M**2 * _G**2))),
    "csgd-p1.5": (rate_csgd(_G, 1.5), lambda t: t**0.8 / np.log(t) ** 1.0,
                  lambda e: -(e * e / (768.0 * _G**4))),
    "csgd-p2": (rate_csgd(_G, 2.0), lambda t: t**1.0 / np.log(t) ** 2.0,
                lambda e: -(e * e / (384.0 * _G**4))),
    "general-C-p1.5": (rate_csgd_generalC(_G, _C, 1.5), lambda t: t**0.8 / np.log(t) ** 1.0,
                       lambda e: -(e * e / (192.0 * _C**2 * _G**2))),
    "general-C-p2": (rate_csgd_generalC(_G, _C, 2.0), lambda t: t**1.0 / np.log(t) ** 2.0,
                     lambda e: -(e * e / (96.0 * _C**2 * _G**2))),
    "liu-sgd": (sota_curves("liu-sgd", B=_B), lambda t: t**0.5 / np.log(t) ** 0.0,
                lambda e: -e / (12.0 * _B**2)),
    "nguyen-csgd": (sota_curves("nguyen-csgd", sigma=_SIGMA, delta=_DELTA, L=_L, p=1.5),
                    lambda t: t ** (0.8 / 2.0) / np.log(t) ** (2.0 * 1.5 / (3.0 * 1.5 - 2.0)),
                    lambda e: -e / (720.0 * _SIGMA * math.sqrt(_DELTA * _L))),
    "armacki-nsgd": (sota_curves("armacki-nsgd", C=_C, L=_L), lambda t: t**0.5 / np.log(t) ** 1.0,
                     lambda e: -min(e, math.sqrt(e)) / (16.0 * _C**4 * _L**2)),
    **{name: (decay_family(name, p=1.5 if name == "power-over-log" else None),
              lambda t, a=a, b=b: t**a / np.log(t) ** b, None)
       for name, (a, b) in {"sqrt-t": (0.5, 0.0), "t-over-log": (1.0, 1.0), "power-over-log": (0.8, 1.0),
                            "t-over-log2": (1.0, 2.0), "linear-t": (1.0, 0.0)}.items()},
}


@pytest.mark.parametrize("kind", list(_REFERENCE_LAWS))
def test_laws_reproduce_the_reference_expressions_bit_for_bit(kind):
    law, nt, slope = _REFERENCE_LAWS[kind]
    assert 4.0 * (1.5 - 1.0) / (3.0 * 1.5 - 2.0) == 0.8  # beta_exponent(1.5), as written above
    # the array path (tail.svg overlays) and the scalar path (rates.csv, sota.csv)
    assert np.array_equal(law.decay_rate_nt(_T), nt(_T))
    assert [law.decay_rate_nt(float(t)) for t in _T] == [float(nt(np.asarray(t))) for t in _T]
    if slope is None:
        with pytest.raises(ValueError, match="no rate function"):
            law.rate_function_I(1.0)
        return
    for eps in (0.02, 0.09, 0.3, 0.7, 1.0, 4.0):
        assert -law.rate_function_I(eps) == slope(eps), eps


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: rate_sgd(1e300, 1.0), "sgd law: rate denominator inf"),
        (lambda: rate_sgd(1e-300, 1.0), "sgd law: rate denominator 0.0"),
        (lambda: rate_sgd(math.inf, 1.0), "M must be a finite number"),
        (lambda: rate_csgd(1e300, 1.5), "csgd law: rate denominator inf"),
        (lambda: rate_csgd_generalC(1.0, 1e200, 2.0), "csgd-generalC law: rate denominator inf"),
        (lambda: sota_curves("liu-sgd", B=1e300), "liu-sgd law: rate denominator inf"),
        (lambda: sota_curves("liu-sgd", B=1e-300), "liu-sgd law: rate denominator 0.0"),
        (lambda: sota_curves("nguyen-csgd", sigma=1.0, delta=1e-300, L=1e-300, p=1.5),
         "nguyen-csgd law: rate denominator 0.0"),
        (lambda: sota_curves("armacki-nsgd", C=1e100, L=1.0), "armacki-nsgd law: rate denominator inf"),
        (lambda: rate_csgd(0.0, 1.5), r"^G must be positive, got 0\.0$"),
        (lambda: rate_csgd(1.0, "1.5"), "p must be a finite number"),
    ],
    ids=["sgd-M-overflows", "sgd-M-underflows", "sgd-M-inf", "csgd-G-overflows", "general-C-C-overflows",
         "liu-B-overflows", "liu-B-underflows", "nguyen-delta-L-underflow", "armacki-C-overflows",
         "csgd-G-zero", "csgd-p-string"],
)
def test_law_that_cannot_be_formed_is_a_value_error_naming_it(build, named):
    with pytest.raises(ValueError, match=named):
        build()
