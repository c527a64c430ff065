"""Small brute-force oracles shared across test modules.

Everything here is deliberately naive: direct partition enumeration and
literal formula evaluation, independent of the package's series engine.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from math import gcd

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


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) exactly, by Dedekind reciprocity
    s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4 and s(h + k, k) = s(h, k)."""
    h %= k
    if h == 0:
        return Fraction(0)
    return Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4) - dedekind_sum(k, h)


def rademacher_a(k: int, n: int) -> complex:
    """Rademacher's A_k(n) = sum over h mod k coprime to k of
    e^(pi i s(h, k) - 2 pi i nh/k)."""
    return sum(cmath.exp(1j * math.pi * float((dedekind_sum(h, k) - Fraction(2 * n * h, k)) % 2))
               for h in range(k) if gcd(h, k) == 1)
