import hashlib
import json
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from trank import asymptotics
from trank.asymptotics import (
    AsymptoticQuery,
    _realize,
    comparison_rows,
    garvan_scan,
    moment_cusp_mordell,
    moment_cusp_mu,
    positivity_gate,
    prop56_expansion_check,
    theorem_a_main,
    theorem_b_difference_leading,
    theorem_b_leading,
)
from trank.errors import TruncationError
from trank.qseries import moment_table
from trank.specfun import kappa_support

from helpers import spt_oracle


class TestQueryValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            AsymptoticQuery(T=25, r=2, n=10)
        with pytest.raises(ValueError):
            AsymptoticQuery(T=4, r=2, n=10)
        with pytest.raises(ValueError):
            AsymptoticQuery(T=5, r=3, n=10)
        with pytest.raises(ValueError):
            AsymptoticQuery(T=5, r=2, n=10, k_cap=0)
        assert AsymptoticQuery(T=5, r=2, n=170).cap == 13
        assert AsymptoticQuery(T=5, r=2, n=170, k_cap=1).cap == 1


class TestPositivityGate:
    def test_values(self):
        # gamma = 1, rho = 0: 1/12 - 1/(4T)
        assert positivity_gate(5, 1, 0) == Fraction(1, 30)
        assert positivity_gate(3, 1, 0) == 0
        assert positivity_gate(3, 3, 1) == 0
        assert positivity_gate(5, 5, 2) == Fraction(1, 30)
        assert positivity_gate(5, 5, 1) < 0

    def test_boundary_value_is_quarter(self):
        # the rho-quadratic attains 1/4 at |rho| = (T-1)/2
        for T in range(3, 24, 2):
            rho = (T - 1) // 2
            quad = Fraction(rho * rho) + Fraction(T * T, 4) - rho * T
            assert quad == Fraction(1, 4)


class TestTheoremA:
    def test_mordell_vanishes_for_crank_and_rank(self):
        for T in (1, 3):
            b = theorem_a_main(AsymptoticQuery(T=T, r=2, n=150))
            assert b.mordell_part == 0.0
            assert not b.mordell_contributions
            assert b.dropped_terms > 0 or T == 1

    def test_T3_takes_no_partial_kloosterman_sums(self, monkeypatch):
        # gamma = 1 reaches only varrho = 0, whose gate is 0, and gamma = 3
        # has no gated class, so no (gamma, k) has a bucket that can fill
        import trank.asymptotics as asymptotics

        calls = []
        partials = asymptotics.kloosterman_partials
        monkeypatch.setattr(asymptotics, "kloosterman_partials",
                            lambda *args: calls.append(args) or partials(*args))
        b = theorem_a_main(AsymptoticQuery(T=3, r=2, n=300))
        assert calls == []
        assert b.dropped_terms > 0
        theorem_a_main(AsymptoticQuery(T=5, r=2, n=300))
        assert calls

    def test_matches_exact_T1(self):
        table = moment_table(1, 2, 250)
        b = theorem_a_main(AsymptoticQuery(T=1, r=2, n=250))
        assert abs(table[250] - b.total) / table[250] < 1e-10

    def test_relative_error_improves(self):
        # at n = 50 the error keeps falling as k_cap grows, by more than 3x
        # from each k_cap to the next, instead of stalling at the k >= 3
        # terms of a wrong Kloosterman sum
        table = moment_table(1, 2, 50)
        errs = [abs(table[50] - theorem_a_main(AsymptoticQuery(T=1, r=2, n=50, k_cap=cap)).total)
                / table[50] for cap in (2, 4, 6, 10)]
        assert all(a > 3 * b for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 2e-8

    def test_matches_exact_T1_n100(self):
        # the default k_cap = 10 reaches 5e-12: the k >= 3 terms count here
        table = moment_table(1, 2, 100)
        b = theorem_a_main(AsymptoticQuery(T=1, r=2, n=100))
        assert abs(table[100] - b.total) / table[100] < 1e-10

    def test_k1_dominates(self):
        b = theorem_a_main(AsymptoticQuery(T=1, r=2, n=1000))
        k1 = sum(v.real for key, v in b.mu_contributions.items() if key[0] == 1)
        assert k1 / b.mu_part > 0.99

    def test_cancelled_mordell_part_T5_r4(self):
        # the Mordell part cancels far below its terms here; its imaginary
        # residue is judged against sum |term|, not against the cancelled sum
        b = theorem_a_main(AsymptoticQuery(T=5, r=4, n=200))
        assert abs(b.total - moment_table(5, 4, 200)[200]) / b.total < 1e-10

    def test_realize_scale(self):
        # two terms cancel to 1e-10; the residue is 1e-9 of sum |term|
        terms = {0: 1.0, 1: -1.0 + 1e-10, 2: 2e-9j}
        value = sum(terms.values())
        assert _realize(value, terms, "cancelled") == value.real
        terms[2] = 2e-6j  # 1e-6 of sum |term|
        with pytest.raises(ArithmeticError):
            _realize(sum(terms.values()), terms, "residue")

    def test_realize_rejects_non_finite(self):
        for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0)):
            with pytest.raises(ValueError, match="not finite"):
                _realize(bad, {0: bad}, "overflowed")

    @pytest.mark.parametrize("r", [2, 6])
    def test_overflowing_mu_part_raises(self, r):
        # the k = 1 Bessel argument pi sqrt(24n - 1)/6 is about 725 at
        # n = 80000, past double range: an error, never mu_part = nan
        with pytest.raises(ValueError, match="overflows double range"):
            theorem_a_main(AsymptoticQuery(T=1, r=r, n=80000))

    def test_mordell_improves_T5(self):
        table = moment_table(5, 2, 150)
        b = theorem_a_main(AsymptoticQuery(T=5, r=2, n=150))
        with_mordell = abs(table[150] - b.total)
        without = abs(table[150] - b.mu_part)
        assert with_mordell < without / 50

    def test_breakdown_total_and_dict(self):
        b = theorem_a_main(AsymptoticQuery(T=5, r=2, n=60))
        assert b.total == b.mu_part + b.mordell_part
        d = b.as_dict()
        assert d["T"] == 5 and d["mordell_part"] == b.mordell_part
        assert d["dropped_terms"] == b.dropped_terms > 0

    def test_leading_term_is_k1_top_contribution(self):
        # the closed-form leading asymptotic is the (k=1, a=b=0, c=r/2)
        # contribution with the Bessel function replaced by its leading
        # behavior, so their ratio deviates from 1 by O(n^(-1/2))
        gaps = []
        for n in (250, 1000):
            b = theorem_a_main(AsymptoticQuery(T=3, r=2, n=n))
            top = b.mu_contributions[(1, 0, 0, 1)].real
            gaps.append(abs(top / theorem_b_leading(3, 2, n) - 1))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 3.0 / math.sqrt(1000)

    def test_mu_part_monotone_under_k_cap(self):
        # extending the k-sum moves the mu-part by less than the Bessel
        # envelope of the first omitted k (the tail terms can even vanish
        # in double precision against the dominant k = 1 term)
        n, T, r = 600, 3, 2
        full = theorem_a_main(AsymptoticQuery(T=T, r=r, n=n))
        cap = full.query.cap
        shorter = theorem_a_main(AsymptoticQuery(T=T, r=r, n=n, k_cap=cap - 1))
        envelope = math.exp(math.pi * math.sqrt(24 * n - 1) / (6 * cap))
        assert abs(full.mu_part - shorter.mu_part) < 100 * envelope
        tail = sum(v for key, v in full.mu_contributions.items() if key[0] == cap)
        assert 0 < abs(tail) < 100 * envelope

    def test_mu_part_one_bessel_call_per_order(self, monkeypatch):
        # r = 6: the ten (a, b, c) share seven orders; each order is one call
        # on a (k x 1) array of the k with K_k(n) != 0
        original = asymptotics.bessel_i
        calls = []

        def counting(order, x):
            calls.append((order, np.shape(x)))
            return original(order, x)

        monkeypatch.setattr("trank.asymptotics.bessel_i", counting)
        out = theorem_a_main(AsymptoticQuery(T=1, r=6, n=200))
        ks = {key[0] for key in out.mu_contributions}
        orders = {Fraction(-3 + 2 * a + 4 * c, 2) for a, b, c in kappa_support(6)}
        assert len(orders) == 7 and ks == set(range(1, 15))
        assert sorted(calls) == sorted((order, (len(ks), 1)) for order in orders)

    def test_mu_part_equals_scalar_bessel_calls(self, monkeypatch):
        # past the default cap the closed orders reach x < |order|, where
        # bessel_i sums its power series; every term still equals the one
        # from a scalar bessel_i call per (k, order)
        query = AsymptoticQuery(T=1, r=8, n=50, k_cap=120)
        together = theorem_a_main(query).mu_contributions
        original = asymptotics.bessel_i

        def scalars(order, x):
            if np.ndim(x) == 0:
                return original(order, x)
            return np.array([[original(order, float(v))] for v in np.ravel(x)])

        monkeypatch.setattr("trank.asymptotics.bessel_i", scalars)
        assert theorem_a_main(query).mu_contributions == together


# SHA-256 of json.dumps(theorem_a_main(query).as_dict(), sort_keys=True):
# every field, each contribution included, must stay bit-identical.  T = 3
# is the case where every bucket of the Mordell part is empty.  All ten
# were re-recorded when K_k(n) became Rademacher's A_k(n) (h' = [-h]_k)
# and chi took its Dedekind-sum form, which moves every k >= 3 term; the
# comments below say which earlier rewrite each pin first guarded.
BREAKDOWN_SHA256 = {
    (5, 4, 200): "e9985404d249f6089fb0d82e8d3b9ab9e02f802aacc952e19b5bae5c78cc1adf",
    (13, 2, 90): "2feba33ab497ccaf48746d7ccfc9d77c29ea9d25a3a5497e75360772d6074edd",
    (23, 6, 40): "c3e9d1332babc1e2f64aafc28b95f0e39c71e953574f026efeeefdcd44168adf",
    (3, 2, 300): "a9a5b07caa40ab87986e07a903cbecfd557885c8921aba4efee8576a60a1a56f",
    # two queries of the benchmark's `mordell` workload, recorded before
    # the integer base phases and the alpha-vectorised quadrature
    (7, 4, 200): "86f26b667aad9d8012d21e1dfa6ee09f0355469d8bbc14573621bda62a424519",
    (17, 2, 221): "1d72e8cc4fd01f9bec060d20eb580249fbc9ae979c9053a1f2bf9942cd2c28c8",
    # recorded before the panels of a panel count shared one Bessel call:
    # 204 Miller-order panels (r = 6), and a `mordell` query at r = 4, T > 7
    (23, 6, 300): "e565ffdc41d74522a7368702e1445948752f55598c2b89683d127005bb1c9003",
    (19, 4, 207): "e2a2a7e1c88ea14e253880adc26049ab916f984b291f24dd58f291ee9fce9f5a",
    # recorded before the (k, varrho) groups of a (c, s) shared one
    # quadrature pass: 2,310 alphas, several blocks at 2 panels; and
    # Miller orders across groups (r = 6)
    (23, 2, 221): "30adfe29ea46d358255741095364549c2bfab03b80937ec488360645791fc762",
    (13, 6, 500): "14bed9f9be2d4fe7f3ce8e43f9fadec7dc2d207525b0acf713fd848bf1697e79",
}


@pytest.mark.parametrize("T,r,n", sorted(BREAKDOWN_SHA256))
def test_breakdown_bytes(T, r, n):
    d = theorem_a_main(AsymptoticQuery(T=T, r=r, n=n)).as_dict()
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digest == BREAKDOWN_SHA256[(T, r, n)]


class TestTheoremB:
    def test_r2_closed_form(self):
        # -B_2(1/2) = 1/12, so the r = 2 leading term is (sqrt(3)/6) e^(pi sqrt(2n/3))
        for n in (50, 400):
            expect = math.sqrt(3) / 6.0 * math.exp(math.pi * math.sqrt(2 * n / 3))
            assert abs(theorem_b_leading(1, 2, n) - expect) < 1e-9 * expect

    def test_ratio_tends_to_one(self):
        table = moment_table(3, 2, 1000)
        gaps = []
        for n in (250, 500, 1000):
            ratio = table[n] / theorem_b_leading(3, 2, n)
            gaps.append(abs(ratio - 1))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1

    def test_difference_positive(self):
        for r in (2, 4, 6, 8):
            assert theorem_b_difference_leading(5, r, 300) > 0

    def test_difference_r2_value(self):
        # r = 2 uses B_0(1/2) = 1
        n = 200
        expect = 2 * math.sqrt(3) * (24 * n) ** -0.5 * math.exp(
            math.pi * math.sqrt(2 * n / 3))
        assert abs(theorem_b_difference_leading(3, 2, n) - expect) < 1e-9 * expect

    @pytest.mark.parametrize("r, n", [(2, 76600), (8, 71000), (300, 10)])
    def test_past_double_range_raises(self, r, n):
        # e^(pi sqrt(2n/3)) itself overflows at n = 76600; at r = 8 the
        # power (24n)^(r/2 - 1) carries the product past range first, and
        # at r = 300 the Bernoulli value B_r(1/2) as a float
        for leading in (theorem_b_leading, theorem_b_difference_leading):
            with pytest.raises(ValueError, match="overflows double range"):
                leading(5, r, n)


class TestCuspExpansion:
    def test_T1_discrepancy_shrinks(self):
        discrepancies = [
            prop56_expansion_check(1, 2, 0, 1, z).discrepancy
            for z in (0.5, 0.25, 0.125)
        ]
        assert discrepancies[0] > discrepancies[1] > discrepancies[2]

    def test_T5_mordell_summand_needed(self):
        reports = [prop56_expansion_check(5, 2, 0, 1, z) for z in (0.5, 0.25, 0.125)]
        discrepancies = [r.discrepancy for r in reports]
        assert discrepancies[0] > discrepancies[1] > discrepancies[2]
        last = reports[-1]
        assert last.ablated_discrepancy > 10 * last.discrepancy

    def test_nontrivial_cusp(self):
        # (h, k) = (1, 2) exercises the unit factors at h != 0
        vals = [prop56_expansion_check(5, 2, 1, 2, z) for z in (0.4, 0.2, 0.1)]
        d = [v.discrepancy for v in vals]
        assert d[0] > d[1] > d[2]

    @pytest.mark.parametrize("h,k,last", [(1, 3, 1e-6), (2, 3, 1e-6), (1, 4, 1e-4), (3, 4, 1e-4)])
    def test_cusps_past_k2(self, h, k, last):
        # at k >= 3 the cusp main term carries e^(pi i s(h, k)) itself:
        # the relative discrepancy shrinks along the ray, to 4e-8 at 1/3
        # and 1.5e-5 at 1/4 when z = 0.1
        rel = [r.discrepancy / abs(r.exact)
               for r in (prop56_expansion_check(1, 2, h, k, z) for z in (0.4, 0.2, 0.1))]
        assert rel[0] > rel[1] > rel[2] and rel[2] < last, rel

    def test_hypothesis_guard(self):
        with pytest.raises(ValueError):
            prop56_expansion_check(1, 2, 0, 2, 0.9 + 0.9j)

    def test_mordell_summand_requires_t(self):
        with pytest.raises(ValueError):
            moment_cusp_mordell(5, 2, 0, 0, 0, 1, 0.25)

    def test_l_outside_range_raises(self):
        # k/(T, k) = 2 at (T, k) = (5, 2): l runs over 0 and 1 only
        for l in (-1, 2, 5):
            with pytest.raises(ValueError):
                moment_cusp_mordell(5, 2, 1, l, 1, 2, 0.25)

    def test_cusp_bytes(self):
        # SHA-256 of repr of (main_mu, main_mordell, exact) per report, or
        # moment_cusp_mu where the exact series does not converge at
        # n_max = 300, and of every (t, l) summand moment_cusp_mordell.
        # Re-recorded (was 015131481b75...) when moment_cusp_mu took
        # e((h - [-h]_k)/(24k)) into its one exact angle for `phase` in
        # place of a second cmath.exp: over T in {1, 5, 7, 13}, coprime
        # (h, k) with k < 40, three z and r in {2, 4}, the worst relative
        # change of moment_cusp_mu was 1.0e-15
        values = []
        for T in (1, 5, 7, 13):
            for h, k in ((0, 1), (1, 2), (1, 3), (2, 5)):
                for z in (0.4, 0.2, 0.1 + 0.03j):
                    for r in (2, 4):
                        try:
                            rep = prop56_expansion_check(T, r, h, k, z, n_max=300)
                            values.append((rep.main_mu, rep.main_mordell, rep.exact))
                        except TruncationError:
                            values.append(moment_cusp_mu(T, r, h, k, z))
                        half = (T - 1) // 2
                        for t in range(-half, half + 1):
                            if t:
                                for l in range(k // gcd(T, k)):
                                    values.append(moment_cusp_mordell(T, r, t, l, h, k, z))
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        assert digest == "07189b45351613ecf8228770f3bf56997604729b8c382a3060cb1a5fd3f60353"


class TestGarvanScan:
    def test_rank_crank_difference_is_spt(self):
        report = garvan_scan(3, 2, 1, 60)
        assert report.violations == ()
        assert report.n0 == 1
        m1 = moment_table(1, 2, 60)
        m3 = moment_table(3, 2, 60)
        for n in (1, 10, 60):
            assert m1[n] - m3[n] == 2 * spt_oracle(n) > 0

    def test_T5_scan_small(self):
        report = garvan_scan(5, 2, 1, 300)
        assert report.n0 <= 50
        assert all(v < report.n0 for v in report.violations)
        assert report.holds_from_n0

    def test_validation(self):
        with pytest.raises(ValueError):
            garvan_scan(1, 2, 1, 10)
        with pytest.raises(ValueError):
            garvan_scan(5, 3, 1, 10)


class TestComparisonTables:
    def test_rows_and_writers(self):
        rows = comparison_rows(3, 2, [100, 50])
        assert [row.n for row in rows] == [50, 100]
        assert rows[1].rel_err_a < rows[1].rel_err_b

    def test_zero_exact_moment_has_no_relative_error(self):
        # m_3^2(1) = 0: a relative error is undefined there, not a division
        rows = comparison_rows(3, 2, [1, 50])
        assert rows[0].exact == 0
        assert rows[0].rel_err_a is None and rows[0].rel_err_b is None
        assert rows[1].rel_err_a < rows[1].rel_err_b
