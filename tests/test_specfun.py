import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from trank.errors import ConvergenceError
from trank.specfun import (
    IntegralParams,
    _trapezoid_real_line,
    bernoulli_half,
    bernoulli_number,
    bessel_i,
    bessel_i_series,
    bessel_integral,
    bessel_integrals,
    kappa,
    kappa_h,
    kappa_h_support,
    kappa_support,
    mordell_h,
    script_h,
)

from helpers import gauss_error, rel_err


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


BESSEL_ORDERS = [Fraction(two, 2) for two in range(-3, 32, 2)]
# the orders -31/2 ... 31/2 that the per-order tests run on: those below the
# band (-3/2) check that every call raises instead
BESSEL_CASES = [Fraction(two, 2) for two in range(-31, 32, 2)]


def assert_below_band(order, *xs):
    for x in xs:
        with pytest.raises(ValueError, match="outside supported band"):
            bessel_i(order, x)


class TestBesselI:
    def test_half_order_closed_values(self):
        assert rel_err(bessel_i(Fraction(1, 2), 1.0),
                       math.sqrt(2 / math.pi) * math.sinh(1.0)) < 1e-14
        for x in (0.5, 2.0, 10.0):
            expect = math.sqrt(2 / (math.pi * x)) * math.cosh(x)
            assert rel_err(bessel_i(Fraction(-1, 2), x), expect) < 1e-13

    def test_float_series_consistency(self):
        for order in (Fraction(1, 2), Fraction(-3, 2), Fraction(9, 2)):
            for x in (0.2, 2.0, 8.0):
                assert rel_err(bessel_i(order, x), bessel_i_series(order, x)) < 1e-9

    def test_three_term_recurrence(self):
        for two in range(-1, 28, 2):
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
        with pytest.raises(ValueError):
            bessel_i(Fraction(-5, 2), 1.0)

    @pytest.mark.parametrize("order", BESSEL_CASES)
    def test_rows_equal_their_own_calls(self, order):
        # a 2-D argument whose rows have different maxima: every row is bit
        # for bit its own 1-D call, and a scalar call its one-element row,
        # on the closed/series path (order <= 5/2, the series below
        # x = |order|) and on the Miller path alike
        rng = np.random.default_rng(abs(order.numerator))
        xs = np.array([np.sort(rng.uniform(0.01, top, 24))
                       for top in (0.4, 2.2, 7.0, 40.0, 180.0, 650.0)])
        if order not in BESSEL_ORDERS:
            assert_below_band(order, xs, xs[0], float(xs[0, 0]))
            return
        rows = bessel_i(order, xs)
        assert rows.shape == xs.shape
        for x, row in zip(xs, rows):
            assert np.array_equal(row, bessel_i(order, x))
        for v in xs[:2].ravel().tolist():  # below 5/2, where the series runs
            assert bessel_i(order, v) == bessel_i(order, np.array([v]))[0]

    @pytest.mark.parametrize("order", BESSEL_CASES)
    def test_large_argument_against_mpmath(self, order):
        # the main term reaches x = 243 at n = 9000; up to 700 every value,
        # alone or in one array spanning the whole range, is within 1e-15
        # of 40-digit mpmath (4e-16 seen)
        xs = (201.5, 243.0, 300.0, 450.0, 600.0, 700.0)
        if order not in BESSEL_ORDERS:
            assert_below_band(order, np.array(xs), *xs)
            return
        together = bessel_i(order, np.array(xs))
        with mp.workdps(40):
            for x, joint in zip(xs, together):
                ref = mp.besseli(mp.mpf(order.numerator) / order.denominator, x)
                assert rel_err(bessel_i(order, x), ref) < 1e-15, x
                assert rel_err(joint, ref) < 1e-15, x

    def test_wide_miller_array_does_not_overflow(self):
        # one call at 210 and 700 starts both from the depth 700 needs, so
        # the unnormalized I_(7/2)(210) times sinh(210) once passed double
        # range, though each scalar call is finite
        vals = bessel_i(Fraction(7, 2), np.array([210.0, 700.0]))
        with mp.workdps(40):
            for x, v in zip((210.0, 700.0), vals):
                assert rel_err(v, mp.besseli(mp.mpf(7) / 2, x)) < 1e-15

    @pytest.mark.parametrize("order", [Fraction(1, 2), Fraction(-3, 2),
                                       Fraction(9, 2), Fraction(51, 2)])
    def test_overflow_raises(self, order):
        # both paths (closed form, Miller up to the top of the band) past
        # double range raise instead of returning inf or nan, and numpy
        # stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(bessel_i(order, 700.0))
            with pytest.raises(ValueError, match="overflows double range"):
                bessel_i(order, np.array([5.0, 800.0]))


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

    @pytest.mark.parametrize("w, z", [(40.0, -0.01j), (1e17, -1e40j)])
    def test_unreducible_w_raises(self, w, z):
        # a shift term e^(pi 39.5^2 / 0.01) past double range, and an Re w
        # so large that w - 1 == w in floating point
        with pytest.raises(ValueError):
            mordell_h(w, z)

    # |Re w| in (1/2, 3/2] and decay pi |Im z| in [0.05, 0.3], where the
    # unreduced integrand peaks far above |H|.  The first two are the l = 0
    # integrals of `verify` prop_4_2 at seed 12 (trial 32) and seed 10
    # (trial 6), which a quadrature of the unreduced integrand left at
    # 1.4e-13 and 1.2e-14.
    FAR_STRIP = [
        (0.8564577243143674 - 0.6232051373923185j,
         0.01862615687691127 - 0.06879538603574381j),
        (0.7787837951201662 + 0.7454597083215068j,
         -0.029623809308079316 - 0.08354124739624888j),
        (-0.9 - 0.2j, -0.05 - 0.02j),
        (1.05 + 0.25j, 0.12 - 0.04j),
        (-1.45 - 0.3j, -0.1 - 0.09j),
    ]

    @pytest.mark.parametrize("w, z", FAR_STRIP)
    def test_far_strip_against_mpmath(self, w, z):
        # 30-digit quadrature of the unreduced integrand, truncated where
        # its envelope 2 e^(-decay x^2 + (2 pi |Re w| - pi)|x|) is below e^(-82)
        decay = -math.pi * z.imag
        growth = 2.0 * math.pi * abs(w.real) - math.pi
        cut = (growth + math.sqrt(growth * growth + 4.0 * decay * 82.0)) / (2.0 * decay)
        with mp.workdps(30):
            wm, zm = mp.mpc(w), mp.mpc(z)
            ref = complex(mp.quad(
                lambda x: mp.exp(-1j * mp.pi * x * x * zm - 2 * mp.pi * wm * x)
                / mp.cosh(mp.pi * x),
                mp.linspace(-cut, cut, int(cut / 2.0) + 2)))
        assert rel_err(mordell_h(w, z, tol=1e-12), ref) <= 1e-14

    # Nodes each FAR_STRIP point takes at tol=1e-12 with the strip-bound
    # step; the oscillation-rate step took 19,014, 22,658, 12,734, 11,984
    # and 16,452.
    FAR_STRIP_NODES = [786, 792, 1034, 828, 894]

    @pytest.mark.parametrize("point, nodes", zip(FAR_STRIP, FAR_STRIP_NODES))
    def test_far_strip_node_count(self, point, nodes, monkeypatch):
        seen = _spy_trapezoid(monkeypatch)
        mordell_h(*point, tol=1e-12)
        assert seen["nodes"] <= nodes

    # Chirped points, |Re z| >= 5 |Im z|, where e^(-pi i x^2 z) oscillates
    # many times across the envelope and grows by e^(pi y^2 |z|^2 / |Im z|)
    # off the axis; five of the eight need the shift to |Re w| <= 1/2.
    # A `verify` round only reaches |Re z| <= 2 |Im z|, so the last three
    # are its calls with the largest such growth, the largest |Im w| and
    # the largest |Re z| / |Im z| (prop_4_2 seed 12 trial 17, seed 3 trial
    # 19 and seed 4 trial 1).
    CHIRPED = [
        (-1.3 + 0.05j, 3.0 - 0.5j),
        (0.8 - 0.4j, -0.6 - 0.06j),
        (0.3 + 0.2j, 0.5 - 0.1j),
        (-0.45 - 0.1j, -1.2 - 0.2j),
        (0.1 + 0.6j, 2.0 - 0.3j),
        (-2.13223994534995 + 1.4710343400578576j, 1.6105328496356652 - 4.1086787763834405j),
        (1.6018511791598566 + 3.0020754593300216j, -1.4305569557693076 - 1.9061888434823677j),
        (0.5837392682367941 + 0.34136501484565085j, -0.05000755633956216 - 0.02663026268725473j),
    ]

    @pytest.mark.parametrize("w, z", CHIRPED)
    def test_chirped_against_mpmath(self, w, z):
        # 30-digit quadrature of the unreduced integrand on panels that
        # each span about 15 radians of its fastest phase
        decay = -math.pi * z.imag
        growth = 2.0 * math.pi * abs(w.real) - math.pi
        cut = (growth + math.sqrt(growth * growth + 4.0 * decay * 82.0)) / (2.0 * decay)
        phase = 2.0 * math.pi * (abs(z.real) * cut + abs(w.imag)) * cut
        with mp.workdps(30):
            wm, zm = mp.mpc(w), mp.mpc(z)
            ref = complex(mp.quad(
                lambda x: mp.exp(-1j * mp.pi * x * x * zm - 2 * mp.pi * wm * x)
                / mp.cosh(mp.pi * x),
                mp.linspace(-cut, cut, int(phase / 15.0) + 2)))
        err = abs(mordell_h(w, z, tol=1e-12) - ref)
        if abs(ref) >= 1e-2:
            assert err <= 1e-14 * abs(ref)
        else:
            assert err <= 1e-16


def _spy_trapezoid(monkeypatch):
    """Count the nodes at which `_trapezoid_real_line` evaluates its
    integrands, and the farthest |x| among them."""
    seen = {"nodes": 0, "reach": 0.0}

    def spy(f, *args, **kwargs):
        def counted(xs):
            seen["nodes"] += len(xs)
            seen["reach"] = max(seen["reach"], float(np.abs(xs).max()))
            return f(xs)
        return _trapezoid_real_line(counted, *args, **kwargs)

    monkeypatch.setattr("trank.specfun._trapezoid_real_line", spy)
    return seen


class TestScriptH:
    # The 1/cosh(pi (x + i rho)) factor decays like e^(-pi |x|) / cos(pi rho):
    # bounded at that rate the envelope reaches e^-50 at 4.8 and 5.9, where
    # a bound that made it grow like e^(pi |x|) cut at 6.7 and 8.5.
    ENVELOPE_CUTS = [
        ((0, 5, 0.3, 5, 0.2, 1, 0.3 + 0.1j), 5.0),
        ((2, 13, -0.4, 13, 0.1, 3, 0.05 + 0.02j), 6.0),
    ]

    @pytest.mark.parametrize("args, reach", ENVELOPE_CUTS)
    def test_envelope_cut_against_mpmath(self, args, reach, monkeypatch):
        c, T, alpha, gamma, rho, k, z = args
        with mp.workdps(30):
            rate = mp.pi * T / (gamma * gamma * k)
            ref = complex(mp.quad(
                lambda x: x**c * mp.exp(-rate / mp.mpc(z) * x * x + 2 * mp.pi * alpha * x)
                / mp.cosh(mp.pi * (x + 1j * rho)),
                mp.linspace(-12, 12, 49)))
        seen = _spy_trapezoid(monkeypatch)
        assert rel_err(script_h(*args, tol=1e-12), ref) <= 1e-14
        assert seen["reach"] < reach

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
        # inner ones at 8, and the group evaluates the Bessel factor once
        # per panel count, all panels in one call: 3 calls of one group's
        # 2, 4 and 8 panels
        p = _params(T=7, beta=Fraction(1, 12) - Fraction(1, 4 * 343), varrho=Fraction(3, 7),
                    c=1, d=Fraction(-7, 2), k=1, n=40)
        alphas = [Fraction(s, 20) for s in range(-9, 10, 3)]
        alone = [bessel_integral(dataclasses.replace(p, alpha=a)) for a in alphas]
        assert bessel_integrals([(p, alphas[::-1])]) == [alone[::-1]]
        calls = []
        original = bessel_i

        def counting(order, y):
            calls.append(y.shape)
            return original(order, y)

        monkeypatch.setattr("trank.specfun.bessel_i", counting)
        assert bessel_integrals([(p, alphas)]) == [alone]
        assert calls == [(1, 2, 24), (1, 4, 24), (1, 8, 24)]
        assert bessel_integrals([(p, [])]) == [[]]
        assert bessel_integrals([]) == []

    def test_pending_alphas_converge_at_their_own_panel_count(self, monkeypatch):
        # T = 13, varrho = 6/13: the two outer alphas converge at 8 panels
        # and the inner ones at 16.  In shuffled order the group gives each
        # alpha exactly its one-alpha value, from one Bessel call per panel
        # count: 2, 4, 8 and 16 panels of the one group
        p = _params(T=13, beta=Fraction(1, 12) - Fraction(1, 4 * 13**3),
                    varrho=Fraction(6, 13), c=1, d=Fraction(-5, 2), k=1, n=40)
        alphas = [Fraction(s, 25) for s in range(-12, 13, 3)]
        random.Random(3).shuffle(alphas)
        original = bessel_i
        panels = []

        def counting(order, y):
            panels.append(y.shape)
            return original(order, y)

        monkeypatch.setattr("trank.specfun.bessel_i", counting)
        values, counts = [], []
        for a in alphas:
            panels.clear()
            values.append(bessel_integral(dataclasses.replace(p, alpha=a)))
            counts.append(len(panels))
        assert sorted(set(counts)) == [3, 4]
        panels.clear()
        assert bessel_integrals([(p, alphas)]) == [values]
        assert panels == [(1, 2, 24), (1, 4, 24), (1, 8, 24), (1, 16, 24)]

    def test_groups_in_one_pass_match_one_call_per_group(self, monkeypatch):
        # three T = 13 groups of one (c, d) with different k and varrho, and
        # beta = gate(|varrho|): alone, the first converges at 8 and 16
        # panels, the second at 4 and the third at 8.  In one call, and in
        # blocks that end inside a group and span two groups, every value
        # is bit-identical to its group's own call
        def group(k, rho, alphas):
            beta = Fraction(1, 12) - Fraction(1, 13**3) * (
                Fraction(rho * rho) + Fraction(169, 4) - 13 * abs(rho))
            return (_params(T=13, beta=beta, varrho=Fraction(rho, 13), c=1,
                            d=Fraction(-5, 2), k=k, n=40), alphas)

        groups = [group(1, 6, [Fraction(s, 25) for s in range(-12, 13, 3)]),
                  group(2, 5, [Fraction(s, 26) for s in (-11, -2, 7)]),
                  group(3, -6, [Fraction(s, 25) for s in range(-12, 13, 6)])]
        original = bessel_i
        shapes = []

        def counting(order, y):
            shapes.append(y.shape)
            return original(order, y)

        monkeypatch.setattr("trank.specfun.bessel_i", counting)
        alone, panels = [], []
        for g in groups:
            shapes.clear()
            alone.append(bessel_integrals([g])[0])
            panels.append([shape[1] for shape in shapes])
        assert panels == [[2, 4, 8, 16], [2, 4], [2, 4, 8]]
        # 17 alphas: blocks of 5 at 2 panels, of 2 at 4 and of 1 from 8 on
        monkeypatch.setattr("trank.specfun._BLOCK_NODES", 5 * 2 * 24)
        shapes.clear()
        assert bessel_integrals(groups) == alone
        assert shapes == [(3, 2, 24), (3, 4, 24), (2, 8, 24), (1, 16, 24)]

    def test_groups_must_share_c_and_d(self):
        with pytest.raises(ValueError):
            bessel_integrals([(_params(), [0.1]), (_params(c=3), [0.1])])

    def test_unconvergeable_group_raises(self, monkeypatch):
        # a Bessel factor that drifts on every call keeps each alpha's
        # doubling test failing; after 9 doublings the group raises
        drift = itertools.count(1)
        original = bessel_i
        monkeypatch.setattr("trank.specfun.bessel_i",
                            lambda order, y: original(order, y) * (1.0 + 0.01 * next(drift)))
        with pytest.raises(ConvergenceError):
            bessel_integrals([(_params(), [Fraction(-1, 5), Fraction(1, 7)])])

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
