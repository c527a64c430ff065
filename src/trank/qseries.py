"""Exact integer q-series engine for partition statistics.

Everything in this module is exact: truncated power series, held as
tuples of unbounded integer coefficients, partition numbers p(n), the
T-rank counts N_T(m, n) defined for odd T by

    sum_n N_T(m, n) q^n = (1/(q)_inf) * sum_{j>=1} (-1)^(j-1)
                          q^(j(Tj-1)/2 + |m| j) (1 - q^j),

their power moments m_T^r(n) = sum_m m^r N_T(m, n), and the
smallest-parts function spt(n) from Andrews' generating function.  T = 1
gives the crank counts, T = 3 the rank counts.

The one series operation is `divide`, truncated division by a series with
constant term +-1.  Both p(n) (1 / (q)_inf) and the moment tables (the
weighted theta side over (q)_inf) divide by the one cached
`euler_product`.  Floating point appears only in `moment_generating_eval`,
which sums a finished exact table at a numeric point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import TruncationError


def _require_odd_positive(T: int) -> None:
    if T < 1 or T % 2 == 0:
        raise ValueError(f"T must be an odd positive integer, got {T}")


def divide(a, b) -> tuple:
    """The quotient a / b of two truncated power series, given as their
    integer coefficients, truncated at the lower order; b[0] must be +-1.

    c[m] = b[0] * (a[m] - sum_{i >= 1, b[i] != 0} b[i] c[m - i]), so the
    cost is one pass over the nonzero coefficients of b per output term.
    """
    if b[0] not in (1, -1):
        raise ValueError("division requires a unit constant term (+-1) in the divisor")
    n = min(len(a), len(b)) - 1
    offsets = [i for i in range(1, n + 1) if b[i]]
    c = [0] * (n + 1)
    for m in range(n + 1):
        s = a[m]
        for i in offsets:
            if i > m:
                break
            s -= b[i] * c[m - i]
        c[m] = b[0] * s
    return tuple(c)


@lru_cache(maxsize=8)
def euler_product(n_max: int) -> tuple:
    """(q)_inf = prod_{k>=1} (1 - q^k), truncated at q^n_max."""
    c = [0] * (n_max + 1)
    c[0] = 1
    for k in range(1, n_max + 1):
        for i in range(n_max, k - 1, -1):
            c[i] -= c[i - k]
    return tuple(c)


@lru_cache(maxsize=8)
def partition_series(n_max: int) -> tuple:
    """1/(q)_inf; the coefficient of q^n is the partition number p(n)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return divide((1,) + (0,) * n_max, euler_product(n_max))


def partition_number(n: int) -> int:
    return partition_series(n)[n]


def spt_series(n_max: int) -> tuple:
    """sum_n spt(n) q^n, truncated at q^n_max, from Andrews' generating function

        sum_{n>=1} q^n / (1 - q^n)^2 prod_{m>n} 1 / (1 - q^m)

    (Andrews, "The number of smallest parts in the partitions of n", 2008).
    The product is built downward from n = n_max, one division by
    (1 - q^n) per step, so the whole series takes O(n_max^2) integer
    additions.  It shares nothing with the moment tables, against which
    `trank spt-check` tests it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    tail = [1] + [0] * n_max  # prod_{m>n} 1/(1 - q^m), from n = n_max down
    acc = [0] * (n_max + 1)
    for n in range(n_max, 0, -1):
        # q^n / (1 - q^n)^2 times the tail: two divisions by (1 - q^n), a shift
        term = tail[: n_max - n + 1]
        for _ in range(2):
            for i in range(n, len(term)):
                term[i] += term[i - n]
        for i, v in enumerate(term, n):
            acc[i] += v
        for i in range(n, n_max + 1):
            tail[i] += tail[i - n]
    return tuple(acc)


def _theta_terms(T: int, m: int, n_max: int):
    """The (exponent, sign) terms up to q^n_max of
    sum_{j>=1} (-1)^(j-1) q^(j(Tj-1)/2 + m j) (1 - q^j), m >= 0.

    An exponent may repeat (T = 1, m = 0); callers add the signs up.
    """
    j = 1
    sign = 1
    while True:
        base = j * (T * j - 1) // 2 + m * j
        if base > n_max:
            return
        yield base, sign
        if base + j <= n_max:
            yield base + j, -sign
        sign = -sign
        j += 1


@dataclass(frozen=True)
class RankCountTable:
    """Exact N_T(m, n) for |m| <= n <= n_max, keyed by (m, n)."""

    T: int
    n_max: int
    entries: dict = field(repr=False)

    def count(self, m: int, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.n_max}")
        return self.entries.get((abs(m), n), 0)

    def moment(self, r: int, n: int) -> int:
        """sum_{m=-n}^{n} m^r N_T(m, n) from the stored entries; r = 0 is
        the row sum."""
        s = 0 if r > 0 else self.count(0, n)
        for m in range(1, n + 1):
            c = self.count(m, n)
            if c:
                s += (m**r + (-m) ** r) * c
        return s


def rank_count_table(T: int, n_max: int) -> RankCountTable:
    """Expand the defining series of N_T(m, .) for every 0 <= m <= n_max.

    N_1(m, 1) is genuinely negative for m = 0; the table stores the series
    coefficients as-is.
    """
    _require_odd_positive(T)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = partition_series(n_max)
    entries: dict[tuple[int, int], int] = {}
    for m in range(0, n_max - (T - 1) // 2 + 1):
        row = [0] * (n_max + 1)
        for e, v in _theta_terms(T, m, n_max):
            for i in range(0, n_max + 1 - e):
                pi = p[i]
                if pi:
                    row[e + i] += v * pi
        for n in range(m, n_max + 1):
            if row[n]:
                entries[(m, n)] = row[n]
    return RankCountTable(T=T, n_max=n_max, entries=entries)


@dataclass(frozen=True)
class MomentTable:
    """Exact moments m_T^r(n) for 0 <= n <= n_max."""

    T: int
    r: int
    values: tuple

    def __getitem__(self, n: int) -> int:
        return self.values[n]


def moment_table(T: int, r: int, n_max: int) -> MomentTable:
    """m_T^r(n) for n <= n_max without materializing the full rank table.

    The per-m series are accumulated into one weighted theta-side polynomial
    which is divided by (q)_inf once.  The cost is O(n_max^2) for the cached
    `euler_product` plus O(n_max^1.5) coefficient operations for the
    division, since (q)_inf has O(sqrt(n_max)) nonzero coefficients.  Odd
    moments vanish by the m -> -m symmetry of N_T and are returned as an
    all-zero table.
    """
    _require_odd_positive(T)
    if r < 0:
        raise ValueError("moment order r must be >= 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if r % 2 == 1:
        return MomentTable(T=T, r=r, values=(0,) * (n_max + 1))
    weighted = [0] * (n_max + 1)
    for m in range(0 if r == 0 else 1, n_max - (T - 1) // 2 + 1):
        w = m**r * (2 if m > 0 else 1)
        for e, sign in _theta_terms(T, m, n_max):
            weighted[e] += sign * w
    return MomentTable(T=T, r=r, values=divide(weighted, euler_product(n_max)))


def moment_generating_eval(T: int, r: int, q0: complex, n_max: int) -> complex:
    """sum_{n <= n_max} m_T^r(n) q0^n with a truncation-tail guard.

    The tail beyond n_max is estimated from the last two coefficients as a
    geometric series; a TruncationError is raised when that estimate exceeds
    1e-12 times the magnitude of the partial sum.
    """
    if abs(q0) >= 1:
        raise ValueError("moment generating function requires |q0| < 1")
    table = moment_table(T, r, n_max)
    acc = 0j
    for v in reversed(table.values):
        acc = acc * q0 + v
    if n_max >= 2 and table.values[n_max - 1]:
        ratio = abs(table.values[n_max] / table.values[n_max - 1]) * abs(q0)
        if ratio >= 0.95:
            raise TruncationError(
                f"tail ratio {ratio:.3f} too close to 1 at n_max={n_max}"
            )
        tail = abs(table.values[n_max]) * abs(q0) ** n_max * ratio / (1 - ratio)
        if tail > 1e-12 * max(1.0, abs(acc)):
            raise TruncationError(
                f"estimated tail {tail:.3e} exceeds tolerance at n_max={n_max}"
            )
    return acc
