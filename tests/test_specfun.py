import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from trank.specfun import (
    IntegralParams,
    bernoulli_half,
    bernoulli_number,
    bessel_i,
    bessel_i_series,
    bessel_integral,
    bessel_integrals,
    gauss_error,
    kappa,
    kappa_h,
    kappa_h_support,
    kappa_support,
    mordell_h,
    script_h,
    taylor_identity_check,
)

from helpers import rel_err


def bessel_series_mp(order: Fraction, x: float, dps: int = 40) -> float:
    """The power-series oracle summed at high precision (no cancellation)."""
    with mp.workdps(dps):
        nu = mp.mpf(order.numerator) / order.denominator
        half_sq = (mp.mpf(x) / 2) ** 2
        term = (mp.mpf(x) / 2) ** nu / mp.gamma(nu + 1)
        acc = term
        for m in range(1, 2000):
            term = term * half_sq / (m * (m + nu))
            acc += term
            if abs(term) < mp.mpf(10) ** (-dps + 3) * abs(acc):
                break
        return float(acc)


BESSEL_GRID_X = (0.1, 0.3, 1.0, 1.7, 3.0, 5.0, 12.0, 20.0, 31.0, 50.0)
BESSEL_ORDERS = [Fraction(two, 2) for two in range(-31, 32, 2)]


class TestBesselI:
    def test_half_order_closed_values(self):
        assert rel_err(bessel_i(Fraction(1, 2), 1.0),
                       math.sqrt(2 / math.pi) * math.sinh(1.0)) < 1e-14
        for x in (0.5, 2.0, 10.0):
            expect = math.sqrt(2 / (math.pi * x)) * math.cosh(x)
            assert rel_err(bessel_i(Fraction(-1, 2), x), expect) < 1e-13

    def test_against_series_oracle_across_band(self):
        for order in BESSEL_ORDERS:
            for x in BESSEL_GRID_X:
                ref = bessel_series_mp(order, x)
                assert rel_err(bessel_i(order, x), ref) < 1e-10, (order, x)

    def test_float_series_consistency(self):
        for order in (Fraction(1, 2), Fraction(-3, 2), Fraction(9, 2)):
            for x in (0.2, 2.0, 8.0):
                assert rel_err(bessel_i(order, x), bessel_i_series(order, x)) < 1e-9

    def test_three_term_recurrence(self):
        for two in range(-27, 28, 2):
            nu = Fraction(two, 2)
            for x in (0.3, 2.2, 9.0, 33.0, 120.0):
                lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
                rhs = 2.0 * float(nu) / x * bessel_i(nu, x)
                assert rel_err(lhs, rhs) < 1e-9, (nu, x)

    def test_leading_asymptotic_ratio(self):
        for nu in (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)):
            previous = None
            for y in (50.0, 100.0, 200.0):
                ratio = bessel_i(nu, y) * math.sqrt(2 * math.pi * y) * math.exp(-y)
                if previous is not None:
                    assert abs(ratio - 1) <= abs(previous - 1) + 1e-12
                previous = ratio
            assert 0.99 <= previous <= 1.01

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 4.0])
        vals = bessel_i(Fraction(7, 2), xs)
        for x, v in zip(xs, vals):
            assert rel_err(v, bessel_i(Fraction(7, 2), float(x))) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i(Fraction(1, 2), -1.0)
        with pytest.raises(ValueError):
            bessel_i(1, 1.0)  # integer order unsupported
        with pytest.raises(ValueError):
            bessel_i(Fraction(61, 2), 1.0)


class TestBernoulli:
    def test_numbers(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_half_values(self):
        assert bernoulli_half(0) == 1
        assert bernoulli_half(2) == Fraction(-1, 12)
        # B_j(1/2) via the polynomial symmetry oracle B_j(1-x) = (-1)^j B_j(x):
        # at x = 1/2 every odd value must vanish
        for j in range(1, 16, 2):
            assert bernoulli_half(j) == 0


class TestCoefficientFamilies:
    def test_values(self):
        assert kappa(0, 0, 1) == (Fraction(1, 12), 0)
        assert kappa_h(0, 0, 0) == (Fraction(-1, 2), 0)
        assert kappa(-1, 0, 1).is_zero
        assert kappa_h(0, -2, 1).is_zero

    def test_kappa_top_coefficient_is_bernoulli(self):
        for r in range(0, 13, 2):
            expect = (-1) ** (r // 2) * bernoulli_half(r)
            assert kappa(0, 0, r // 2).rational == expect
            assert kappa(0, 0, r // 2).pi_exponent == 0

    def test_supports(self):
        assert kappa_support(3) == []
        assert set(kappa_support(4)) == {(0, 0, 2), (0, 1, 1), (0, 2, 0),
                                         (1, 0, 1), (1, 1, 0), (2, 0, 0)}
        assert all(2 * a + 2 * b + 1 + c == 7 for a, b, c in kappa_h_support(7))

    def test_taylor_identities(self):
        rng = random.Random(6)
        for _ in range(5):
            nu = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            z = complex(rng.uniform(0.4, 1.0), rng.uniform(-0.3, 0.3))
            lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            assert taylor_identity_check("kappa", nu, z, 0.0, 8) < 1e-9
            assert taylor_identity_check("kappa_h", nu, z, lam, 8) < 1e-9


class TestGaussError:
    def test_values(self):
        assert gauss_error(0.0) == 0.0
        assert abs(gauss_error(10.0) - 1.0) < 1e-12
        rng = random.Random(2)
        for _ in range(20):
            x = rng.uniform(-3, 3)
            assert abs(gauss_error(-x) + gauss_error(x)) < 1e-15

    def test_against_quadrature(self):
        # E(x) = 2 int_0^x e^(-pi u^2) du by plain Simpson refinement
        for x in (0.3, 0.9, 2.0):
            m = 4001
            us = np.linspace(0.0, x, m)
            w = np.ones(m)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            simpson = 2.0 * np.sum(w * np.exp(-math.pi * us**2)) * (x / (m - 1)) / 3.0
            assert abs(gauss_error(x) - simpson) < 1e-10


class TestMordellH:
    def test_even_in_w(self):
        rng = random.Random(11)
        for _ in range(8):
            w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
            z = complex(rng.uniform(-0.5, 0.5), -rng.uniform(0.8, 2.5))
            assert abs(mordell_h(w, z) - mordell_h(-w, z)) < 1e-11

    def test_tolerance_refinement(self):
        w, z = 0.3 + 0.2j, 0.4 - 1.5j
        coarse = mordell_h(w, z, tol=1e-8)
        fine = mordell_h(w, z, tol=1e-12)
        assert abs(coarse - fine) < 1e-8

    def test_known_gaussian_limit(self):
        # for w = 0 and z = -i s the integrand is positive; compare to mpmath quad
        val = mordell_h(0.0, -1.2j)
        with mp.workdps(30):
            ref = mp.quad(lambda x: mp.e ** (-1.2 * mp.pi * x**2) / mp.cosh(mp.pi * x),
                          [-mp.inf, mp.inf])
        assert rel_err(val, float(ref)) < 1e-11

    def test_rejects_nondecaying(self):
        with pytest.raises(ValueError):
            mordell_h(0.0, 1.0 + 1.0j)


class TestScriptH:
    def test_odd_integrand_vanishes(self):
        assert abs(script_h(1, 5, 0.0, 5, 0.0, 1, 0.3 + 0.1j)) < 1e-11
        assert abs(script_h(3, 3, 0.0, 1, 0.0, 2, 0.5)) < 1e-11

    def test_reduces_to_mordell(self):
        rng = random.Random(5)
        for _ in range(8):
            T = rng.choice([1, 3, 5, 7])
            gamma = rng.choice([1, T])
            k = rng.randrange(1, 5)
            alpha = rng.uniform(-0.45, 0.45)
            z = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
            a = script_h(0, T, alpha, gamma, 0.0, k, z)
            b = mordell_h(-alpha, -1j * T / (gamma * gamma * k * z))
            assert rel_err(a, b) < 1e-9

    def test_bounded_on_parameter_sweep(self):
        # |script_h| stays O(1) over admissible alpha, rho with Re(1/z) >= k/2
        rng = random.Random(7)
        for _ in range(100):
            T = rng.choice(range(1, 24, 2))
            k = rng.randrange(1, 6)
            gamma = T // math.gcd(T, k)
            alpha = rng.uniform(-0.49, 0.49)
            rho = rng.uniform(-0.45, 0.45)
            z = complex(rng.uniform(0.1, 1.9 / k), rng.uniform(-0.1, 0.1))
            if (1 / z).real < k / 2:
                continue
            val = script_h(rng.choice([0, 1, 2]), T, alpha, gamma, rho, k, z)
            assert abs(val) < 60.0

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            script_h(0, 5, 0.0, 5, 0.5, 1, 0.4)
        with pytest.raises(ValueError):
            script_h(0, 5, 0.0, 5, 0.0, 1, -0.4)


def _params(**kw):
    base = dict(T=5, alpha=Fraction(-1, 5), beta=Fraction(1, 30),
                delta=Fraction(-1, 12), varrho=Fraction(2, 5), c=1,
                d=Fraction(-3, 2), k=1, n=100)
    base.update(kw)
    return IntegralParams(**base)


class TestBesselIntegral:
    def test_odd_symmetry_zero(self):
        val = bessel_integral(_params(alpha=Fraction(0), varrho=Fraction(0)))
        assert abs(val) < 1e-7  # roundoff floor of a cancelling integrand

    def test_node_doubling_agreement(self):
        rng = random.Random(19)
        for _ in range(20):
            T = rng.choice([5, 7, 11])
            half = (T - 1) // 2
            rho = rng.randrange(-half, half + 1)
            gate = Fraction(1, 12) - Fraction(1, T**3) * (
                Fraction(rho * rho) + Fraction(T * T, 4) - abs(rho) * T)
            if gate <= 0:
                continue
            p = _params(T=T, beta=gate, varrho=Fraction(rho, T),
                        alpha=Fraction(rng.randrange(-2, 3), T),
                        c=rng.choice([1, 3]),
                        d=Fraction(-3, 2) - rng.choice([0, 1]),
                        k=rng.randrange(1, 4), n=rng.choice([100, 400]))
            a = bessel_integral(p, tol=1e-9)
            b = bessel_integral(p, tol=1e-11)
            assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)

    def test_growth_envelope(self):
        # |integral| <= C n^(d/2 + 1/4) e^(2 pi sqrt(2 beta n) / k) with one
        # C fitted at the smallest n and reused
        p100 = _params(n=100)
        beta = float(p100.beta)
        d = float(p100.d)

        def envelope(n):
            return n ** (d / 2 + 0.25) * math.exp(2 * math.pi * math.sqrt(2 * beta * n))

        c_fit = abs(bessel_integral(p100)) / envelope(100)
        for n in (400, 1600):
            assert abs(bessel_integral(_params(n=n))) <= 4.0 * c_fit * envelope(n)

    def test_shared_grid_matches_one_alpha_calls(self, monkeypatch):
        # a group's values do not depend on the other alphas in it, nor on
        # their order; here the outer alphas converge at 4 panels and the
        # inner ones at 8, and the group evaluates each panel's Bessel
        # factor once: 2 + 4 + 8 calls
        p = _params(T=7, beta=Fraction(1, 12) - Fraction(1, 4 * 343), varrho=Fraction(3, 7),
                    c=1, d=Fraction(-7, 2), k=1, n=40)
        alphas = [Fraction(s, 20) for s in range(-9, 10, 3)]
        alone = [bessel_integral(dataclasses.replace(p, alpha=a)) for a in alphas]
        assert bessel_integrals(p, alphas[::-1]) == alone[::-1]
        calls = []
        original = bessel_i

        def counting(order, y):
            calls.append(len(y))
            return original(order, y)

        monkeypatch.setattr("trank.specfun.bessel_i", counting)
        assert bessel_integrals(p, alphas) == alone
        assert len(calls) == 2 + 4 + 8
        assert bessel_integrals(p, []) == []

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # the Gauss-Legendre nodes are built on first use, not at import
        code = "import sys, trank; print('numpy.polynomial' in sys.modules)"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "False"

    def test_validation(self):
        with pytest.raises(ValueError):
            _params(beta=Fraction(-1, 30))
        with pytest.raises(ValueError):
            _params(varrho=Fraction(1, 2))
        with pytest.raises(ValueError):
            _params(d=Fraction(1, 2))
        with pytest.raises(ValueError):
            _params(d=Fraction(-1))
