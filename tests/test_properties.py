"""Properties of the exact engine and of the `--n` parser, drawn by hypothesis.

Every property runs on a derandomized example stream with no deadline and
no example database, so the suite stays deterministic, load does not fail
it and it writes nothing; the tables the properties read are built once
per module.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trank.cli import parse_n_values
from trank.qseries import moment_table, partition_series, rank_count_table

from helpers import rank_counts

N_MAX = 120
RANK_N_MAX = 40
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=50)
odd_T = st.sampled_from(range(1, 24, 2))


@lru_cache(maxsize=None)
def _moments(T: int, r: int):
    return moment_table(T, r, N_MAX)


@lru_cache(maxsize=None)
def _ranks(T: int):
    return rank_count_table(T, RANK_N_MAX)


def _p(n: int) -> int:
    return partition_series(N_MAX)[n]


@PROPERTY
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20))
def test_parse_list(values):
    assert parse_n_values(",".join(map(str, values))) == values


@PROPERTY
@given(st.integers(0, 500), st.integers(0, 500), st.none() | st.integers(-3, 40))
def test_parse_range(lo, hi, step):
    text = f"{lo}..{hi}" if step is None else f"{lo}..{hi}:{step}"
    if step is not None and step < 1 or hi < lo:
        with pytest.raises(ValueError):
            parse_n_values(text)
    else:
        assert parse_n_values(text) == list(range(lo, hi + 1, step or 1))


@PROPERTY
@given(st.sampled_from((1, 3)), st.integers(1, RANK_N_MAX))
def test_row_sums_are_partition_numbers(T, n):
    # the crank and the rank each count every partition of n >= 1 once
    assert _ranks(T).moment(0, n) == _p(n)
    assert _moments(T, 0)[n] == _p(n)


@PROPERTY
@given(odd_T, st.sampled_from((1, 3, 5, 7)), st.integers(0, RANK_N_MAX))
def test_odd_moments_vanish(T, r, n):
    table = _ranks(T)
    assert sum(m**r * table.count(m, n) for m in range(-n, n + 1)) == 0
    assert _moments(T, r)[n] == 0


@PROPERTY
@given(st.sampled_from((1, 3, 5)), st.integers(1, 18))
def test_odd_moments_of_enumerated_ranks_vanish(r, n):
    # Dyson's rank, counted over every partition of n: conjugation makes the
    # distribution symmetric, and it is the T = 3 row of the table
    counts = rank_counts(n)
    assert sum(m**r * c for m, c in counts.items()) == 0
    assert all(_ranks(3).count(m, n) == counts.get(m, 0) for m in range(-n, n + 1))


@PROPERTY
@given(st.integers(0, N_MAX))
def test_crank_second_moment(n):
    # Dyson's crank identity m_1^2(n) = 2n p(n)
    assert _moments(1, 2)[n] == 2 * n * _p(n)
