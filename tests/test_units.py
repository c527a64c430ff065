import cmath
import math
import random
from fractions import Fraction
from math import gcd

import pytest

from trank.units import (
    ExactUnit,
    alpha_shift,
    chi_multiplier,
    inverse_mod,
    jacobi_symbol,
    kloosterman_partial,
    kloosterman_partials,
    kloosterman_sum,
    _kloosterman_units,
    mod_inverse_pair,
    partial_phases,
    rho_residue,
    u_h,
    u_h_star,
    u_mu,
    u_theta,
    u_theta_star,
)


def brute_jacobi(a: int, n: int) -> int:
    """(a/n) by factoring n and applying Euler's criterion per prime."""
    result = 1
    m = n
    p = 3
    # strip odd prime factors
    while m > 1:
        while p * p <= m and m % p:
            p += 2
        q = p if p * p <= m else m
        while m % q == 0:
            m //= q
            if a % q == 0:
                result = 0
            else:
                euler = pow(a % q, (q - 1) // 2, q)
                result *= 1 if euler == 1 else -1
    return result


class TestExactUnit:
    def test_angle_reduction_and_product(self):
        u = ExactUnit(Fraction(7, 4)) * ExactUnit(Fraction(3, 4))
        assert u.angle == Fraction(1, 2)
        assert abs(u.to_complex() - 1j) < 1e-15

    def test_product_matches_complex_product(self):
        rng = random.Random(4)
        for _ in range(50):
            a = Fraction(rng.randrange(-50, 50), rng.randrange(1, 40))
            b = Fraction(rng.randrange(-50, 50), rng.randrange(1, 40))
            lhs = (ExactUnit(a) * ExactUnit(b)).to_complex()
            rhs = ExactUnit(a).to_complex() * ExactUnit(b).to_complex()
            assert abs(lhs - rhs) < 1e-14

    def test_scale_sign_folding(self):
        u = ExactUnit.from_real(-2.5)
        assert u.scale == 2.5 and u.angle == 1
        with pytest.raises(ValueError):
            ExactUnit(Fraction(0), -1.0)


class TestModInverse:
    def test_examples(self):
        assert mod_inverse_pair(0, 1) == (0, -1)
        assert mod_inverse_pair(1, 5) == (4, -1)

    def test_bezout_property_random(self):
        rng = random.Random(12)
        done = 0
        while done < 50:
            k = rng.randrange(1, 200)
            h = rng.randrange(0, k) if k > 1 else 0
            if gcd(h, k) != 1:
                continue
            inv, beta = mod_inverse_pair(h, k)
            assert 0 <= inv < k
            assert -h * inv - beta * k == 1
            if k > 1:
                assert (-h * inv) % k == 1 % k
            done += 1

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            mod_inverse_pair(2, 4)


class TestJacobi:
    def test_examples(self):
        assert jacobi_symbol(0, 1) == 1
        assert jacobi_symbol(2, 15) == 1

    def test_against_euler_criterion(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randrange(1, 120) * 2 + 1
            a = rng.randrange(-100, 200)
            assert jacobi_symbol(a, n) == brute_jacobi(a, n), (a, n)

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(0, 60) * 2 + 1
            a, b = rng.randrange(-40, 80), rng.randrange(-40, 80)
            assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


class TestResidues:
    def test_rho(self):
        assert rho_residue(5, 7) == 2
        assert rho_residue(5, -3) == 2
        rng = random.Random(1)
        for _ in range(100):
            T = rng.choice(range(1, 24, 2))
            x = rng.randrange(-500, 500)
            r = rho_residue(T, x)
            assert (r - x) % T == 0 and abs(r) <= (T - 1) // 2
            assert rho_residue(T, x + T) == r

    def test_alpha_examples(self):
        assert alpha_shift(5, 1, 0, 1) == Fraction(-1, 5)
        assert alpha_shift(3, 1, 1, 2) == Fraction(1, 12)

    def test_alpha_strictly_below_half_exhaustive(self):
        for T in range(1, 24, 2):
            for k in range(1, 41):
                for t in range(-(T - 1) // 2, (T - 1) // 2 + 1):
                    for l in range(k):
                        assert abs(alpha_shift(T, t, l, k)) < Fraction(1, 2)

    def test_alpha_rejects_bad_l(self):
        with pytest.raises(ValueError):
            alpha_shift(5, 1, 3, 3)


class TestChi:
    def test_chi_0_1(self):
        u = chi_multiplier(0, 1)
        assert u.angle == Fraction(7, 4)  # e^(-pi i/4)
        assert u.is_unimodular

    def test_unimodular_everywhere(self):
        rng = random.Random(8)
        for _ in range(100):
            k = rng.randrange(1, 40)
            h = rng.randrange(0, 5 * k + 1)
            if gcd(h, k) != 1:
                continue
            assert chi_multiplier(h, k).is_unimodular

    def test_shift_periodicity(self):
        # chi(h + k, k) / chi(h, k) = e^(pi i / 12), matching eta(tau + 1)
        rng = random.Random(9)
        for _ in range(40):
            k = rng.randrange(1, 30)
            h = rng.randrange(0, 3 * k)
            if gcd(h, k) != 1:
                continue
            ratio = chi_multiplier(h + k, k) * chi_multiplier(h, k).inverse()
            assert ratio.angle == Fraction(1, 12)

    def test_rejects_both_even(self):
        with pytest.raises(ValueError):
            chi_multiplier(2, 6)


class TestUnitFactors:
    def test_u_mu_u_h_unimodular(self):
        rng = random.Random(21)
        checked = 0
        while checked < 100:
            T = rng.choice(range(3, 24, 2))
            k = rng.randrange(1, 12)
            h = rng.randrange(0, k) if k > 1 else 0
            if gcd(h, k) != 1:
                continue
            t = rng.choice([x for x in range(-(T - 1) // 2, (T - 1) // 2 + 1) if x])
            l = rng.randrange(0, k)
            assert u_mu(T, t, h, k).is_unimodular
            assert u_h(T, t, l, h, k).is_unimodular
            assert u_theta(T, t, h, k).is_unimodular
            checked += 1

    def test_u_theta_star_scale(self):
        # rho = 0 branch carries a real sin scale; rho != 0 is unimodular
        assert not u_theta_star(5, 1, 0, 1).is_unimodular
        assert u_theta_star(5, 1, 1, 5).is_unimodular  # rho_5(1) = 1
        # gamma_gcd = 5 and rho_5(2*1*3) = 1 != 0: u_h_star's theta-star
        # factor is unimodular, and so is u_h_star
        assert abs(abs(u_h_star(5, 2, 1, 3, 10).to_complex()) - 1) < 1e-12

    def test_requires_nonzero_t(self):
        for fn in (lambda: u_mu(5, 0, 1, 2), lambda: u_theta_star(5, 0, 1, 2),
                   lambda: u_h(5, 0, 0, 1, 2), lambda: u_h_star(5, 0, 0, 1, 2)):
            with pytest.raises(ValueError):
                fn()


class TestKloosterman:
    def test_K1_exact(self):
        for n in range(101):
            (unit,) = _kloosterman_units(1, n)
            assert unit.angle == 0 and unit.scale == 1.0
            assert kloosterman_sum(1, n).value == 1

    def test_bounded_by_phi(self):
        rng = random.Random(17)
        for _ in range(40):
            k = rng.randrange(1, 30)
            n = rng.randrange(0, 100)
            val = kloosterman_sum(k, n)
            phi = sum(1 for h in range(k) if gcd(h, k) == 1) if k > 1 else 1
            assert abs(val.value) <= phi + 1e-9
            assert val.terms == phi

    def test_period_in_n(self):
        for k in (2, 3, 5, 8):
            for n in range(6):
                a = kloosterman_sum(k, n).value
                b = kloosterman_sum(k, n + k).value
                assert abs(a - b) < 1e-13

    def test_K2_two_ways(self):
        # single term h=1: exact-angle route vs direct complex arithmetic
        val = kloosterman_sum(2, 0).value
        chi_inv = chi_multiplier(1, 2).inverse().to_complex()
        hinv = inverse_mod(1, 2)
        direct = (-cmath.exp(0.75j * math.pi)
                  * cmath.exp(1j * math.pi * (1 - hinv) / 24.0) * chi_inv)
        assert abs(val - direct) < 1e-14

    def test_partial_empty_is_zero(self):
        # gamma = 1 forces rho = 0, so rho = 1 classes are empty
        val = kloosterman_partial(5, 1, 1, 0, 2, 3)
        assert val.value == 0 and val.is_empty

    def test_partial_brute_force_T5_k2(self):
        # k = 2 has the single residue h = 1; recompute every (t, rho, l)
        T, k, n = 5, 2, 3
        for t in (-2, -1, 1, 2):
            for rho in range(-2, 3):
                for l in range(k):
                    got = kloosterman_partial(T, t, rho, l, k, n).value
                    expect = 0j
                    h = 1
                    if rho_residue(T, t * T * h) == rho:  # gamma_co = 5
                        expect = (cmath.exp(-2j * math.pi * n * h / k)
                                  * u_h_star(T, t, l, h, k).to_complex())
                    assert abs(got - expect) < 1e-14

    def test_partial_bounded_by_class_size(self):
        # each summand is a unit times at worst the |2 sin| scale of the
        # rho = 0 branch, so 2x the class size bounds the sum
        rng = random.Random(33)
        for _ in range(30):
            T = rng.choice([5, 7, 9, 15])
            k = rng.randrange(1, 12)
            half = (T - 1) // 2
            t = rng.choice([x for x in range(-half, half + 1) if x])
            rho = rng.randrange(-half, half + 1)
            l = rng.randrange(0, k // gcd(T, k))
            val = kloosterman_partial(T, t, rho, l, k, rng.randrange(0, 50))
            assert abs(val.value) <= 2 * val.terms + 1e-9


class TestIntegerPhases:
    @pytest.mark.parametrize("T", range(3, 24, 2))
    def test_phase_is_the_exact_angle(self, T):
        # k <= 12, every coprime h, t != 0 and l, and a few n: the integer
        # numerator over its denominator is the Fraction angle
        half = (T - 1) // 2
        for k in range(1, 13):
            kg = k // gcd(T, k)
            for t in (x for x in range(-half, half + 1) if x):
                for h in (h for h in range(k) if gcd(h, k) == 1):
                    stars = [u_h_star(T, t, l, h, k) for l in range(kg)]
                    for n in (0, 1, 7, 200):
                        scale, nums, den = partial_phases(T, t, h, k, n)
                        assert len(nums) == kg
                        for num, star in zip(nums, stars):
                            unit = ExactUnit(Fraction(-2 * n * h, k)) * star
                            assert 0 <= num < 2 * den
                            assert Fraction(num, den) == unit.angle
                            assert scale == unit.scale

    def test_buckets_equal_partial_sums(self):
        # one pass over h gives kloosterman_partial bit for bit, for every
        # rho, empty buckets included
        for T in (3, 5, 9, 15, 21):
            half = (T - 1) // 2
            for k in range(1, 13):
                kg = k // gcd(T, k)
                n = 3 * k + T
                for t in (x for x in range(-half, half + 1) if x):
                    buckets = kloosterman_partials(T, t, k, n, range(-half, half + 1))
                    assert list(buckets) == list(range(-half, half + 1))
                    for rho, values in buckets.items():
                        assert len(values) == kg
                        for l, value in enumerate(values):
                            assert value == kloosterman_partial(T, t, rho, l, k, n)

    def test_buckets_only_for_requested_rho(self):
        # T = 7, k = 14: gamma_co = 1, so h lands in the bucket of rho_7(2h)
        buckets = kloosterman_partials(7, 2, 14, 5, [3, -1])
        assert list(buckets) == [3, -1]
        assert [v.terms for v in buckets[3]] == [1, 1]  # h = 5
        assert [v.terms for v in buckets[-1]] == [1, 1]  # h = 3
        with pytest.raises(ValueError):
            kloosterman_partials(7, 2, 14, 5, [4])
        with pytest.raises(ValueError):
            kloosterman_partials(7, 0, 14, 5, [0])
