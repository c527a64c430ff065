import random

import pytest

from trank.errors import TruncationError
from trank.qseries import (
    divide,
    euler_product,
    moment_generating_eval,
    moment_table,
    partition_number,
    partition_series,
    rank_count_table,
    spt_series,
)

from helpers import (
    garvan_k_rank_counts,
    partition_count,
    partition_counts_with_parts,
    rank_counts,
    schoolbook_product,
    spt_oracle,
    spt_oracle_upto,
)


class TestPowerSeries:
    def test_product_exactness(self):
        # (1/(q)_inf) * (q)_inf = 1 + O(q^(n+1))
        n = 120
        prod = schoolbook_product(partition_series(n), euler_product(n))
        assert prod == [1] + [0] * n

    def test_mixed_sign_division_times_divisor_is_dividend(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(0, 30)
            a = [rng.randrange(-50, 50) for _ in range(n + 1)]
            b = [rng.choice((1, -1))] + [rng.randrange(-50, 50) for _ in range(n)]
            quotient = divide(a, b)
            assert len(quotient) == n + 1
            assert schoolbook_product(quotient, b) == a

    def test_division_truncates_at_the_lower_order(self):
        a = (3, -1, 4, 1, -5)
        b = (-1, 2, 7)
        assert divide(a, b) == divide(a[:3], b)

    def test_division_requires_unit_divisor(self):
        with pytest.raises(ValueError):
            divide([1, 2], [2, 1])


class TestPartitionSeries:
    def test_p0(self):
        assert partition_series(0) == (1,)

    def test_small_values_vs_enumeration(self):
        for n in range(0, 13):
            assert partition_number(n) == partition_count(n)

    def test_p4_and_p9(self):
        assert partition_number(4) == 5
        assert partition_number(9) == 30

    def test_ramanujan_congruence_mod5(self):
        series = partition_series(5 * 20 + 4)
        for n in range(0, 21):
            assert series[5 * n + 4] % 5 == 0


class TestSptOracle:
    def test_trivial_and_small(self):
        assert spt_oracle(1) == 1
        assert spt_oracle(4) == 10
        assert spt_oracle(5) == 14


class TestSptSeries:
    def test_equals_oracle(self):
        assert spt_series(60) == (0,) + spt_oracle_upto(60)

    def test_truncation_and_guard(self):
        assert spt_series(0) == (0,)
        assert spt_series(80)[:41] == spt_series(40)
        with pytest.raises(ValueError):
            spt_series(-1)


class TestRankCountTable:
    def test_rejects_even_T(self):
        with pytest.raises(ValueError):
            rank_count_table(2, 10)
        with pytest.raises(ValueError):
            rank_count_table(-3, 10)

    def test_T3_against_rank_enumeration(self):
        table = rank_count_table(3, 12)
        for n in range(1, 13):
            counts = rank_counts(n)
            for m in range(-n, n + 1):
                assert table.count(m, n) == counts.get(m, 0), (m, n)

    @pytest.mark.parametrize("T", [3, 5, 7, 9, 11])
    def test_against_garvan_k_rank_enumeration(self, T):
        # every N_T(m, n), n <= 30, is the count of partitions of n with at
        # least (T-1)/2 successive Durfee squares and k-rank m, k = (T+1)/2:
        # a combinatorial oracle that shares nothing with the series
        table = rank_count_table(T, 30)
        for n in range(1, 31):
            counts = garvan_k_rank_counts(T, n)
            assert all(abs(m) <= n for m in counts), n
            for m in range(-n, n + 1):
                assert table.count(m, n) == counts.get(m, 0), (m, n)

    def test_T3_n1(self):
        table = rank_count_table(3, 6)
        assert table.count(0, 1) == 1
        for m in range(1, 7):
            assert table.count(m, 1) == 0

    def test_crank_n1_is_signed(self):
        # The defining series gives N_1(0,1) = -1, N_1(+-1,1) = 1.
        table = rank_count_table(1, 4)
        assert table.count(0, 1) == -1
        assert table.count(1, 1) == 1
        assert table.count(-1, 1) == 1

    def test_support(self):
        table = rank_count_table(5, 20)
        assert all(abs(m) <= n for (m, n) in table.entries)

    def test_row_sums_are_pn(self):
        for T in (1, 3):
            table = rank_count_table(T, 40)
            for n in range(1, 41):
                assert table.moment(0, n) == partition_number(n), (T, n)

    @pytest.mark.parametrize("T", range(1, 24, 2))
    def test_row_sums_andrews_gordon(self, T):
        # sum_m N_T(m, n) = p(n) minus the number of partitions of n into
        # parts not congruent to 0 or +-(T-1)/2 mod T (Garvan's T-rank and
        # the Andrews-Gordon identities); at T = 5 the subtracted count is
        # the Rogers-Ramanujan one, at T = 1 and 3 it is 0 for n >= 1
        n_max = 400
        excluded = {0, (T - 1) // 2 % T, -((T - 1) // 2) % T}
        p = partition_counts_with_parts(n_max, lambda part: True)
        gordon = partition_counts_with_parts(n_max, lambda part: part % T not in excluded)
        sums = moment_table(T, 0, n_max)
        assert [sums[n] for n in range(1, n_max + 1)] == [
            p[n] - gordon[n] for n in range(1, n_max + 1)]
        if T == 5:
            assert (sums[30], p[30], gordon[30]) == (5487, 5604, 117)

    def test_table_moment_is_zero_for_odd_r(self):
        table = rank_count_table(7, 30)
        for n in range(0, 31):
            assert table.moment(1, n) == 0
            assert table.moment(3, n) == 0


class TestMomentTable:
    def test_odd_r_all_zero(self):
        t = moment_table(9, 3, 50)
        assert all(v == 0 for v in t.values)

    def test_m12_of_1(self):
        assert moment_table(1, 2, 5)[1] == 2

    def test_matches_rank_table_sums(self):
        for T, r in ((1, 2), (3, 2), (5, 4), (7, 6)):
            table = rank_count_table(T, 25)
            mom = moment_table(T, r, 25)
            for n in range(0, 26):
                assert mom[n] == table.moment(r, n), (T, r, n)

    def test_spt_identity(self):
        m1 = moment_table(1, 2, 60)
        m3 = moment_table(3, 2, 60)
        spt = spt_oracle_upto(60)
        for n in range(1, 61):
            assert m1[n] - m3[n] == 2 * spt[n - 1]

    def test_even_moments_nonnegative(self):
        for T, r in ((1, 2), (3, 2), (5, 2), (3, 4)):
            t = moment_table(T, r, 80)
            assert all(v >= 0 for v in t.values)


class TestMomentGeneratingEval:
    def test_at_zero(self):
        assert moment_generating_eval(3, 2, 0.0, 30) == 0  # m_3^2(0) = 0
        assert moment_generating_eval(1, 0, 0.0, 30) == 1  # m_1^0(0) = p(0)

    def test_direct_sum(self):
        t = moment_table(1, 2, 60)
        q0 = 0.1
        expect = sum(v * q0**n for n, v in enumerate(t.values))
        got = moment_generating_eval(1, 2, q0, 60)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            moment_generating_eval(1, 2, 0.9, 40)
        with pytest.raises(ValueError):
            moment_generating_eval(1, 2, 1.2, 40)
