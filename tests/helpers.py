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

from trank.errors import ConvergenceError
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


def schoolbook_product(a, b) -> list[int]:
    """The coefficients of a * b up to the lower of the two orders, by the
    double sum over every pair of terms."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


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


def gauss_error(x: float) -> float:
    """E(x) = 2 int_0^x e^(-pi u^2) du = erf(sqrt(pi) x)."""
    return math.erf(math.sqrt(math.pi) * x)


def theta_product_tau(v: complex, tau: complex) -> complex:
    """The triple-product form of `mockforms.theta_tau`, for cross-checking."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    q = cmath.exp(2j * math.pi * tau)
    w = cmath.exp(2j * math.pi * v)
    n_cut = max(int((-41.5 - 2.0 * math.pi * abs(v.imag)) / math.log(abs(q))) + 3, 4)
    if n_cut > 2_000_000:
        raise ConvergenceError("theta product needs too many terms")
    prod = 1.0 + 0j
    for n in range(1, n_cut + 1):
        prod *= (1.0 - q**n) * (1.0 - w * q ** (n - 1)) * (1.0 - q**n / w)
    return -1j * cmath.exp(1j * math.pi * tau / 4.0) * cmath.exp(-1j * math.pi * v) * prod
