import cmath
import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from trank import units
from trank.mockforms import eta_tau
from trank.units import (
    KloostermanValue,
    _check_range,
    _h_terms,
    _unit_numerators,
    _unit_rows,
    alpha_shift,
    chi_multiplier,
    chi_twelfths,
    kloosterman_partial,
    kloosterman_partials,
    kloosterman_sum,
    neg_inverse,
    phase,
    rho_residue,
    u_h,
    u_mu,
    unit_h_star,
)

from helpers import dedekind_sum, rademacher_a, selberg_a
from unit_oracles import (
    I_POW_3_2,
    ExactUnit,
    base_phase,
    chi,
    kloosterman_partial as oracle_partial,
    kloosterman_units,
    partial_phases,
    partial_sums,
    u_h_star,
    u_theta,
    u_theta_star,
)


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


class TestPhase:
    def test_fraction_and_numerator_agree_with_the_oracle(self):
        # equal angles give one float, whichever form and representative
        rng = random.Random(5)
        for _ in range(200):
            den = rng.randrange(1, 500)
            num = rng.randrange(-3 * den, 3 * den)
            angle = Fraction(num, den)
            value = phase(angle)
            assert value == phase(num, den) == phase(angle + 4)
            assert value == ExactUnit(angle).to_complex()


class TestModInverse:
    def test_examples(self):
        assert neg_inverse(0, 1) == 0
        assert neg_inverse(1, 5) == 4
        assert neg_inverse(-3, 7) == 5  # -3 * 5 = -15 = -1 (mod 7)

    def test_bezout_property_random(self):
        # -h [-h]_k - beta k = 1 for an integer beta, for h of either sign
        rng = random.Random(12)
        done = 0
        while done < 50:
            k = rng.randrange(1, 200)
            h = rng.randrange(-3 * k, 3 * k)
            if gcd(h, k) != 1:
                continue
            inv = neg_inverse(h, k)
            assert 0 <= inv < k
            assert (-h * inv - 1) % k == 0
            done += 1

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            neg_inverse(2, 4)
        with pytest.raises(ValueError):
            neg_inverse(1, 0)


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
        assert chi_multiplier(0, 1) == Fraction(7, 4)  # e^(-pi i/4)

    def test_unimodular_everywhere(self):
        rng = random.Random(8)
        for _ in range(100):
            k = rng.randrange(1, 40)
            h = rng.randrange(0, 5 * k + 1)
            if gcd(h, k) != 1:
                continue
            angle = chi_multiplier(h, k)
            assert 0 <= angle < 2 and (24 * angle).denominator == 1
            assert abs(abs(phase(angle)) - 1) < 1e-15

    def test_shift_periodicity(self):
        # chi(h + k, k) / chi(h, k) = e^(pi i / 12), matching eta(tau + 1)
        rng = random.Random(9)
        for _ in range(40):
            k = rng.randrange(1, 30)
            h = rng.randrange(0, 3 * k)
            if gcd(h, k) != 1:
                continue
            ratio = chi_multiplier(h + k, k) - chi_multiplier(h, k)
            assert ratio % 2 == Fraction(1, 12)

    def test_rejects_both_even(self):
        with pytest.raises(ValueError):
            chi_multiplier(2, 6)

    def test_equals_dedekind_form(self):
        # chi(h, k) = e^(pi i (-1/4 - s(h, k) + (h - [-h]_k)/(12k))) for
        # every coprime pair with k <= 60 and 0 <= h < 2k, so also past the
        # shift h >= k that the composed laws feed in
        for k in range(1, 61):
            for h in range(2 * k):
                if gcd(h, k) != 1:
                    continue
                expect = (Fraction(-1, 4) - dedekind_sum(h, k)
                          + Fraction(h - pow(-h, -1, k), 12 * k))
                assert chi_multiplier(h, k) == expect % 2, (h, k)
                assert chi_twelfths(h, k) == chi_multiplier(h, k) * 12

    @pytest.mark.parametrize("k", [14, 18, 22, 30])
    def test_eta_law_at_k_2_mod_4(self, k):
        # eta((h + iz)/k) = sqrt(i/z) chi(h, k) eta(([-h]_k + i/z)/k),
        # evaluated directly at every h, on moduli k = 2 (mod 4) past the
        # k <= 6 that the verify suites draw
        z = 0.8 + 0.3j
        for h in (h for h in range(k) if gcd(h, k) == 1):
            lhs = eta_tau((h + 1j * z) / k)
            rhs = (cmath.sqrt(1j / z) * phase(chi_multiplier(h, k))
                   * eta_tau((pow(-h, -1, k) + 1j / z) / k))
            assert abs(lhs - rhs) < 1e-10 * abs(lhs), (h, k)


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
            assert 0 <= u_mu(T, t, h, k) < 2
            assert 0 <= u_h(T, t, l, h, k) < 2
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
                   lambda: u_h(5, 0, 0, 1, 2), lambda: u_h_star(5, 0, 0, 1, 2),
                   lambda: unit_h_star(5, 0, 0, 1, 2)):
            with pytest.raises(ValueError):
                fn()


class TestKloosterman:
    def test_K1_exact(self):
        for n in range(101):
            (unit,) = kloosterman_units(1, n)
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

    def test_integer_phases_equal_the_fraction_oracle(self):
        # every k <= 60 and seven n: the integer numerator over 12k gives
        # the Fraction summands' float sum bit for bit
        for k in range(1, 61):
            for n in (0, 1, 7, 200, 221, 1600, 5599):
                units = kloosterman_units(k, n)
                val = kloosterman_sum(k, n)
                assert val.value == sum(u.to_complex() for u in units), (k, n)
                assert val.terms == len(units)

    def test_equals_rademacher_a(self):
        # K_k(n) is Rademacher's A_k(n), built here from exact Dedekind sums
        for k in range(1, 61):
            for n in (0, 1, 7, 10, 200, 1601):
                expect = rademacher_a(k, n)
                assert abs(kloosterman_sum(k, n).value - expect) < 1e-12 * k, (k, n)

    def test_equals_selberg_formula(self):
        # Selberg's real form of A_k(n) needs no Dedekind sum and no
        # inverse, so it shares no step with the summand numerator
        for k in range(1, 401):
            for n in (1, 2, 7, 50, 221, 1600, 99991):
                error = abs(kloosterman_sum(k, n).value - selberg_a(k, n))
                assert error < 2e-14 * math.sqrt(k), (k, n)

    def test_period_in_n(self):
        for k in (2, 3, 5, 8):
            for n in range(6):
                a = kloosterman_sum(k, n).value
                b = kloosterman_sum(k, n + k).value
                assert abs(a - b) < 1e-13

    def test_K2_two_ways(self):
        # single term h=1: exact-angle route vs direct complex arithmetic
        val = kloosterman_sum(2, 0).value
        chi_inv = phase(-chi_multiplier(1, 2))
        hinv = neg_inverse(1, 2)
        direct = (-cmath.exp(0.75j * math.pi)
                  * cmath.exp(1j * math.pi * (1 - hinv) / 24.0) * chi_inv)
        assert abs(val - direct) < 1e-14

    def test_partial_empty_is_zero(self):
        # gamma = 1 forces rho = 0, so rho = 1 classes are empty
        val = kloosterman_partial(5, 1, 1, 0, 2, 3)
        assert val.value == 0 and val.terms == 0

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

    def test_partial_rejects_l_outside_range(self):
        # k/(T, k) = 2 at (T, k) = (5, 2): l runs over 0 and 1 only
        for l in (-1, 2, 5):
            with pytest.raises(ValueError):
                kloosterman_partial(5, 1, 0, l, 2, 3)
        with pytest.raises(ValueError):
            kloosterman_partial(5, 3, 0, 0, 2, 3)  # |t| > (T-1)/2

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


def _rows_for(T, k, n):
    """`_unit_rows` for every coprime h of k and every t != 0, and the
    (h, t) of each row."""
    half = (T - 1) // 2
    ts = [t for t in range(-half, half + 1) if t]
    hs = [h for h in range(k) if gcd(h, k) == 1]
    rows = _unit_rows(T, n, [(k, h) for h in hs], ts, range(-half, half + 1))
    return rows, [(h, t) for h in hs for t in ts]


def _bucket(T, t, counts, sums, j, l, k):
    """The (t, rhos[j], l) bucket of a `kloosterman_partials` entry as a
    `KloostermanValue`."""
    i = t + (T - 1) // 2 - (t > 0)
    return KloostermanValue(k=k, value=complex(sums[i, j, l]), terms=int(counts[i, j]))


class TestIntegerPhases:
    @pytest.mark.parametrize("T", range(3, 24, 2))
    def test_phase_is_the_exact_angle(self, T):
        # k <= 12, every coprime h, t != 0 and l, and a few n: the int64
        # numerator over its denominator is the Fraction angle, and equals
        # the scalar reference's Python-integer numerator
        for k in range(1, 13):
            kg = k // gcd(T, k)
            stars = {}
            for n in (0, 1, 7, 200):
                rows, keys = _rows_for(T, k, n)
                r = np.repeat(np.arange(len(keys)), kg)
                nums, dens = _unit_numerators(T, rows, r, np.tile(np.arange(kg), len(keys)))
                for (h, t), row_nums, row_dens, scale in zip(
                        keys, nums.reshape(-1, kg).tolist(), dens.reshape(-1, kg).tolist(),
                        rows["scale"].tolist()):
                    reference = partial_phases(T, t, k, _h_terms(T, h, k, n))
                    assert (scale, row_nums, row_dens[0]) == reference
                    for l, (num, den) in enumerate(zip(row_nums, row_dens)):
                        if (h, t, l) not in stars:
                            stars[(h, t, l)] = u_h_star(T, t, l, h, k)
                        unit = ExactUnit(Fraction(-2 * n * h, k)) * stars[(h, t, l)]
                        assert 0 <= num < 2 * den
                        assert Fraction(num, den) == unit.angle
                        assert scale == unit.scale

    def test_unit_h_star_is_the_oracle_unit(self):
        # unit l of the array pass at n = 0, equal to u_H* as a complex bit
        # for bit; an l outside 0..k/(T,k)-1 raises ValueError
        for T, k in ((5, 2), (7, 9), (9, 6), (13, 10)):
            half = (T - 1) // 2
            kg = k // gcd(T, k)
            for t in (x for x in range(-half, half + 1) if x):
                for h in (h for h in range(k) if gcd(h, k) == 1):
                    for l in range(kg):
                        assert unit_h_star(T, t, l, h, k) == u_h_star(T, t, l, h, k).to_complex()
        for l in (-1, 2):
            with pytest.raises(ValueError):
                unit_h_star(5, 1, l, 1, 2)

    @pytest.mark.parametrize("T", range(3, 24, 2))
    def test_base_angle_to_k30(self, T):
        # k <= 30, every coprime h and t != 0, at n = 1600: each row's base
        # angle p/q is the Fraction product of the l-free factors, in lowest
        # terms, its scale is the product's scale, and both equal the
        # scalar reference
        n = 1600
        for k in range(1, 31):
            rows, keys = _rows_for(T, k, n)
            tails = {}
            for (h, t), p, q, scale in zip(keys, rows["p"].tolist(), rows["q"].tolist(),
                                           rows["scale"].tolist()):
                if h not in tails:
                    tails[h] = (ExactUnit(Fraction(-2 * n * h, k)) * I_POW_3_2 * chi(h, k).inverse()
                                * ExactUnit(Fraction(h - neg_inverse(h, k), 12 * k)))
                unit = tails[h] * u_theta_star(T, t, h, k)
                assert Fraction(p, q) == unit.angle and gcd(p, q) == 1
                assert scale == unit.scale
                assert (scale, p, q) == base_phase(T, t, k, _h_terms(T, h, k, n))

    def test_buckets_equal_partial_sums(self):
        # each bucket is, bit for bit and with the same term count, the sum
        # over the coprime h of its rho class of the composed `ExactUnit`s
        # in ascending h, for every t and rho, empty buckets included;
        # `kloosterman_partial`, one bucket of a whole pass, is compared
        # where its index arithmetic can slip: t = +-1 and +-(T-1)/2 (the
        # neighbours of the missing t = 0 and the ends), every rho, and
        # the first and last l
        for T in (3, 5, 9, 15, 21):
            half = (T - 1) // 2
            rhos = list(range(-half, half + 1))
            for k in range(1, 13):
                kg = k // gcd(T, k)
                n = 3 * k + T
                ((counts, sums),) = kloosterman_partials(T, [k], n, rhos)
                assert counts.shape == (T - 1, T) and sums.shape == (T - 1, T, kg)
                for t in (x for x in rhos if x):
                    for j, rho in enumerate(rhos):
                        for l in range(kg):
                            value = _bucket(T, t, counts, sums, j, l, k)
                            assert value == oracle_partial(T, t, rho, l, k, n)
                            if abs(t) in (1, half) and l in (0, kg - 1):
                                assert value == kloosterman_partial(T, t, rho, l, k, n)

    @pytest.mark.parametrize("T", range(1, 24, 2))
    def test_buckets_equal_the_scalar_pass(self, T):
        # every k <= 40 in one call, at four n: each bucket has the term
        # count and the bytes (so signed zeros too) of the scalar pass, one
        # `phase` per unit summed in ascending h
        half = (T - 1) // 2
        rhos = list(range(-half, half + 1))
        ks = list(range(1, 41))
        for n in (0, 7, 221, 1600):
            for k, (counts, sums) in zip(ks, kloosterman_partials(T, ks, n, rhos)):
                expect = partial_sums(T, k, n)  # in (t, rho) order
                assert counts.ravel().tolist() == [terms for terms, _ in expect.values()]
                values = np.array([v for _, v in expect.values()], dtype=complex)
                assert sums.tobytes() == values.tobytes()

    def test_blocks_change_no_bit(self, monkeypatch):
        # one call for every k, one call per k, and blocks small enough to
        # split one k's h range (64, 1000) and one h's (t, l) values (5)
        # give the same bytes, and no array pass exceeds the block bound
        def as_bytes(result):
            return [(counts.tobytes(), sums.tobytes()) for counts, sums in result]

        sizes = []
        unit_values = units._unit_values

        def counted(T, rows, r, l):
            sizes.append(len(l))
            return unit_values(T, rows, r, l)

        monkeypatch.setattr(units, "_unit_values", counted)
        ks = list(range(1, 21))
        for T, rhos in ((15, list(range(-7, 8))), (23, [0])):
            whole = as_bytes(kloosterman_partials(T, ks, 221, rhos))
            assert as_bytes(kloosterman_partials(T, [k], 221, rhos)[0] for k in ks) == whole
            for size in (5, 64, 1000, 1 << 13):
                monkeypatch.setattr(units, "_BLOCK_VALUES", size)
                sizes.clear()
                assert as_bytes(kloosterman_partials(T, ks, 221, rhos)) == whole
                assert max(sizes) <= size

    def test_large_k_against_the_fraction_oracle(self):
        # T = 5, k = 997 (gamma_co = 5, so every h is in rho = 0): buckets of
        # the array pass equal the Fraction oracle.  At T = 23 single units
        # do, up to the last k of `_check_range`; without the reductions
        # mod 2L and 2D, int64 products overflow from about k = 10^4
        T, k, n = 5, 997, 1600
        ((counts, sums),) = kloosterman_partials(T, [k], n, [0, 1])
        assert counts[:, 0].tolist() == [996] * 4 and not counts[:, 1].any()
        for t, l in ((-2, 0), (1, 500), (2, 996)):
            assert _bucket(T, t, counts, sums, 0, l, k) == oracle_partial(T, t, 0, l, k, n)
        for k in (997, 20011, 87811):
            for t, l, h in ((11, k - 1, k - 1), (-7, 0, k // 2), (3, 123, 2), (-1, k // 2, 1)):
                expect = u_h_star(23, t, l, h, k).to_complex()
                assert unit_h_star(23, t, l, h, k) == expect, (k, t, l, h)

    def test_k_past_the_int64_range_raises(self):
        # 96 T^3 k^2 <= 2^53 holds up to k = 87814 at T = 23
        _check_range(23, 87814)
        for call in (lambda: _check_range(23, 87815),
                     lambda: kloosterman_partials(23, [1, 87815], 0, [0]),
                     lambda: kloosterman_partial(23, 1, 0, 0, 87815, 0),
                     lambda: unit_h_star(23, 1, 0, 1, 87815)):
            with pytest.raises(ValueError, match="int64 range"):
                call()

    def test_buckets_only_for_requested_rho(self):
        # T = 7, k = 14: gamma_co = 1, so at t = 2 h lands in the bucket of
        # rho_7(2h); the arrays have one column per requested rho, and
        # T = 1 has no t != 0
        ((counts, sums),) = kloosterman_partials(7, [14], 5, [3, -1])
        assert counts.shape == (6, 2) and sums.shape == (6, 2, 2)
        assert counts[4].tolist() == [1, 1]  # t = 2: h = 5 and h = 3
        assert (sums[4] != 0).all()
        ((counts, sums),) = kloosterman_partials(1, [5], 5, [0])
        assert counts.size == 0 and sums.size == 0
        with pytest.raises(ValueError):
            kloosterman_partials(7, [14], 5, [4])
        with pytest.raises(ValueError):
            kloosterman_partials(7, [0], 5, [0])
