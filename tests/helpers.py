"""Small brute-force oracles shared across test modules.

Everything here is deliberately naive: direct partition enumeration and
literal formula evaluation, independent of the package's series engine.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from trank.qseries import spt_oracle


def partitions(n: int, cap: int | None = None):
    """Yield all partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    if cap is None or cap > n:
        cap = n
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    return sum(1 for _ in partitions(n))


def rank_counts(n: int) -> dict[int, int]:
    """Dyson rank (largest part minus number of parts) counts for n >= 1."""
    counts: dict[int, int] = {}
    for p in partitions(n):
        r = p[0] - len(p)
        counts[r] = counts.get(r, 0) + 1
    return counts


def spt_direct(n: int) -> int:
    total = 0
    for p in partitions(n):
        smallest = p[-1]
        total += p.count(smallest)
    return total


@functools.cache
def spt_oracle_upto(n_max: int) -> tuple[int, ...]:
    """(spt_oracle(1), ..., spt_oracle(n_max)), enumerated once per process
    however many tests compare against it."""
    return tuple(spt_oracle(n) for n in range(1, n_max + 1))


def rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


def frac(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)
