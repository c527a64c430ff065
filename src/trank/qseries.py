"""Exact integer q-series engine for partition statistics.

Everything in this module is exact: truncated power series with unbounded
integer coefficients, partition numbers p(n), the T-rank counts N_T(m, n)
defined for odd T by

    sum_n N_T(m, n) q^n = (1/(q)_inf) * sum_{j>=1} (-1)^(j-1)
                          q^(j(Tj-1)/2 + |m| j) (1 - q^j),

their power moments m_T^r(n) = sum_m m^r N_T(m, n), and a brute-force
smallest-parts oracle spt(n).  T = 1 gives the crank counts, T = 3 the rank
counts.  Floating point appears only in `moment_generating_eval`, which sums
a finished exact table at a numeric point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import TruncationError

SPT_ENUMERATION_LIMIT = 200


def _require_odd_positive(T: int) -> None:
    if T < 1 or T % 2 == 0:
        raise ValueError(f"T must be an odd positive integer, got {T}")


class PowerSeries:
    """A power series truncated at q^order with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a PowerSeries needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1] + [0] * order)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        a = self.coeffs[: n + 1]
        b = other.coeffs[: n + 1]
        return PowerSeries(_convolve_truncated(a, b, n))

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires the constant term to be +-1."""
        a = self.coeffs
        if a[0] not in (1, -1):
            raise ValueError("inverse requires a unit constant term (+-1)")
        n = self.order
        offsets = [i for i in range(1, n + 1) if a[i]]
        inv0 = a[0]  # 1/a0 since a0 is +-1
        c = [0] * (n + 1)
        c[0] = inv0
        for m in range(1, n + 1):
            s = 0
            for i in offsets:
                if i > m:
                    break
                ci = c[m - i]
                if ci:
                    s += a[i] * ci
            c[m] = -inv0 * s
        return PowerSeries(c)


def _convolve_truncated(a, b, n):
    """Truncated product of coefficient tuples via big-integer packing.

    Each polynomial is packed into one Python int with fixed-width limbs so
    the convolution runs through CPython's subquadratic integer multiply.
    Negative coefficients are handled by splitting the sparser factor into
    its positive and negative parts.
    """
    nnz_a = sum(1 for x in a if x)
    nnz_b = sum(1 for x in b if x)
    if nnz_a == 0 or nnz_b == 0:
        return [0] * (n + 1)
    if nnz_b < nnz_a:
        a, b = b, a
    if any(x < 0 for x in b):
        bp = [x if x > 0 else 0 for x in b]
        bm = [-x if x < 0 else 0 for x in b]
        pos = _convolve_truncated(a, bp, n)
        neg = _convolve_truncated(a, bm, n)
        return [p - q for p, q in zip(pos, neg)]
    if any(x < 0 for x in a):
        ap = [x if x > 0 else 0 for x in a]
        am = [-x if x < 0 else 0 for x in a]
        pos = _convolve_truncated(ap, b, n)
        neg = _convolve_truncated(am, b, n)
        return [p - q for p, q in zip(pos, neg)]
    # Limb width: every convolution coefficient is < min(sum(a)*max(b), sum(b)*max(a)).
    bound = min(sum(a) * max(b), sum(b) * max(a)) + 1
    width = bound.bit_length() // 8 + 2
    packed_a = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in a), "little")
    packed_b = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in b), "little")
    raw = (packed_a * packed_b).to_bytes(width * (len(a) + len(b)), "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(n + 1)
    ]


@lru_cache(maxsize=8)
def euler_product(n_max: int) -> PowerSeries:
    """(q)_inf = prod_{k>=1} (1 - q^k), truncated at q^n_max."""
    c = [0] * (n_max + 1)
    c[0] = 1
    for k in range(1, n_max + 1):
        for i in range(n_max, k - 1, -1):
            c[i] -= c[i - k]
    return PowerSeries(c)


@lru_cache(maxsize=8)
def partition_series(n_max: int) -> PowerSeries:
    """1/(q)_inf; the coefficient of q^n is the partition number p(n)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return euler_product(n_max).inverse()


def partition_number(n: int) -> int:
    return partition_series(n)[n]


def spt_oracle(n: int) -> int:
    """spt(n) by brute force: total smallest-part multiplicity over all
    partitions of n.

    Partitions are enumerated as ascending compositions in lexicographic
    order with an explicit stack array; nothing is shared with the series
    engine, so this is an independent oracle.  Guarded at n <= 200 because
    the enumeration visits every partition.
    """
    if n < 1:
        raise ValueError("spt(n) requires n >= 1")
    if n > SPT_ENUMERATION_LIMIT:
        raise ValueError(f"spt enumeration is limited to n <= {SPT_ENUMERATION_LIMIT}")
    # Kelleher-style ascending-partition loop; a[0..k] is the current prefix.
    a = [0] * (n + 1)
    total = 0
    k = 1
    a[0] = 0
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        el = k + 1
        while x <= y:
            a[k] = x
            a[el] = y
            # partition = a[0..k+1], ascending; smallest-part run is a prefix
            smallest = a[0]
            m = 1
            while m <= el and a[m] == smallest:
                m += 1
            total += m
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        # partition = a[0..k]
        smallest = a[0]
        m = 1
        while m <= k and a[m] == smallest:
            m += 1
        total += m
    return total


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

    def row_sum(self, n: int) -> int:
        """sum_m N_T(m, n) over all m."""
        s = self.count(0, n)
        for m in range(1, n + 1):
            s += 2 * self.count(m, n)
        return s

    def moment(self, r: int, n: int) -> int:
        """sum_{m=-n}^{n} m^r N_T(m, n) from the stored entries."""
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
    p = partition_series(n_max).coeffs
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

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def rows(self):
        for n, v in enumerate(self.values):
            yield (self.T, self.r, n, v)


def moment_table(T: int, r: int, n_max: int) -> MomentTable:
    """m_T^r(n) for n <= n_max without materializing the full rank table.

    The per-m series are accumulated into one weighted theta-side polynomial
    which is multiplied by 1/(q)_inf once, so the cost is O(n_max^2)
    coefficient operations for fixed r.  Odd moments vanish by the m -> -m
    symmetry of N_T and are returned as an all-zero table.
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
    series = PowerSeries(weighted) * partition_series(n_max)
    return MomentTable(T=T, r=r, values=series.coeffs)


def moment_generating_eval(
    T: int, r: int, q0: complex, n_max: int, tol: float = 1e-12
) -> complex:
    """sum_{n <= n_max} m_T^r(n) q0^n with a truncation-tail guard.

    The tail beyond n_max is estimated from the last two coefficients as a
    geometric series; a TruncationError is raised when that estimate exceeds
    `tol` times the magnitude of the partial sum.
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
        if tail > tol * max(1.0, abs(acc)):
            raise TruncationError(
                f"estimated tail {tail:.3e} exceeds tolerance at n_max={n_max}"
            )
    return acc
