"""Exact root-of-unity arithmetic.

The transformation laws of the eta, theta, and Appell-Lerch evaluators all
carry root-of-unity multipliers e^(i pi a) whose angles a are rational,
with mixed denominators (4, 12, k, T, ...).  Accumulating those phases in
floating point destroys the cancellation that Kloosterman sums live on, so
every angle here is exact, in one of two forms:

* a `Fraction` in [0, 2): the eta multiplier (`chi_multiplier`) and the
  unit factors u_mu and u_H of Prop. 4.2 (`u_mu`, `u_h`);
* an integer numerator over an integer denominator: one numerator over 12k
  per h in K_k(n) (`kloosterman_numerator`), and in the partial Kloosterman
  sums an l-free base numerator over L = 12 T gamma_co k built from it,
  reduced by `gcd` (every factor's denominator, 4, 12, k, 4k, 12k,
  gamma_co k or gamma_co T k, divides L), plus an l-dependent numerator
  over a common multiple of that.

`phase` is the only conversion of a scalar angle to `complex`, and the
only lossy step; e(a) in the docstrings below is e^(i pi a).  The partial
Kloosterman sums (`kloosterman_partials`) take the same numerators as
int64 arrays, in blocks of at most `_BLOCK_VALUES` = 2^13 (t, h, l)
values, exact while 96 T^3 k^2 <= 2^53 (`_check_range`; past that,
`ValueError`), and convert them with `np.exp`, which gives the complex
that `phase` gives.
The numerators equal, as rationals, the `Fraction` angle of the same
product of unit factors composed one factor at a time;
`tests/unit_oracles.py` keeps those compositions as the oracles of both
forms, and the scalar integer path of the partial sums as the reference
of the array pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

_BLOCK_VALUES = 1 << 13  # (t, h, l) values per array pass of `kloosterman_partials`


def phase(num: int | Fraction, den: int = 1) -> complex:
    """e^(i pi num/den) for an exact angle: a `Fraction` (den 1) or an
    integer numerator over an integer denominator.  The angle is reduced
    mod 2 first, so equal angles give the same float."""
    return cmath.exp(1j * math.pi * float(num % (2 * den) / den))


def neg_inverse(h: int, k: int) -> int:
    """[-h]_k: the h' in [0, k) with h h' = -1 (mod k); 0 when k = 1."""
    if k < 1:
        raise ValueError("modulus k must be >= 1")
    if gcd(h, k) != 1:
        raise ValueError(f"h={h} and k={k} are not coprime")
    return pow(-h, -1, k)


def rho_residue(T: int, x: int) -> int:
    """The residue of x mod T with smallest absolute value, T odd."""
    r = x % T
    if r > (T - 1) // 2:
        r -= T
    return r


def alpha_shift(T: int, t: int, l: int, k: int) -> Fraction:
    """alpha_{T,t}(l, k) = (1/k)(-t/T + l - (k-1)/2); always |alpha| < 1/2."""
    if not 0 <= l <= k - 1:
        raise ValueError(f"l={l} outside 0..{k - 1}")
    if abs(t) > (T - 1) // 2:
        raise ValueError(f"|t|={abs(t)} exceeds (T-1)/2")
    a = (Fraction(-t, T) + l - Fraction(k - 1, 2)) / k
    assert abs(a) < Fraction(1, 2)
    return a


def chi_twelfths(h: int, k: int) -> int:
    """12 times the angle of `chi_multiplier(h, k)`, in [0, 24).

    chi(h, k) = e^(pi i (-1/4 - s(h, k) + (h - [-h]_k)/(12k))), with s the
    Dedekind sum.  With a_1..a_m the partial quotients of h/k, 0 < h < k,
    12k s(h, k) = k sum (-1)^(i+1) a_i + h - [-h]_k - (2k if m is odd,
    else 0) (Rademacher-Grosswald, Dedekind Sums, ch. 3), so the inverse
    cancels and 12 angle = -sum (-1)^(i+1) a_i - (1 if m is odd, else 3);
    k = 1 has m = 0.  Any other h adds h//k through
    eta(tau + 1) = e^(pi i/12) eta(tau), with the a_i of (h mod k)/k.
    """
    if gcd(h, k) != 1:
        raise ValueError(f"h={h} and k={k} are not coprime")
    a, b = k, h % k
    alternating, sign, m = 0, 1, 0
    while b:
        alternating += sign * (a // b)
        a, b = b, a % b
        sign, m = -sign, m + 1
    return (h // k - alternating - (1 if m % 2 else 3)) % 24


def chi_multiplier(h: int, k: int) -> Fraction:
    """The angle, in [0, 2), of the 24th-root-of-unity multiplier of the eta
    transformation law,
    eta((h + iz)/k) = sqrt(i/z) e^(i pi chi(h, k)) eta(([-h]_k + i/z)/k)."""
    return Fraction(chi_twelfths(h, k), 12)


def u_mu(T: int, t: int, h: int, k: int) -> Fraction:
    """Angle in [0, 2) of the unit factor of the transformed mu-function."""
    if t == 0:
        raise ValueError("u_mu requires t != 0")
    inv = neg_inverse(h, k)
    rho = rho_residue(T, t * h)
    return (-3 * chi_multiplier(h, k) + (t * h - rho)
            + Fraction(-inv * ((t * h - rho) // T) ** 2, k)
            + Fraction(2 * t * rho, T * T * k)) % 2


def u_h(T: int, t: int, l: int, h: int, k: int) -> Fraction:
    """Angle in [0, 2) of the unit factor multiplying each Mordell-integral
    summand."""
    if t == 0:
        raise ValueError("u_h requires t != 0")
    if not 0 <= l <= k - 1:
        raise ValueError(f"l={l} outside 0..{k - 1}")
    rho = rho_residue(T, t * h)
    half_shift = Fraction(2 * l - k + 1, 2)  # l - (k-1)/2
    alpha = (Fraction(-t, T) + half_shift) / k
    return (Fraction(-(h * k + 1), 4)
            + (l * h + (k - 1) * (h - 1) // 2 + t * h - rho + 1)
            - h * half_shift**2 / k
            - 2 * (half_shift * (Fraction(1, 2) - Fraction(t * h, T * k))
                   + Fraction(rho, T) * alpha)) % 2


@dataclass(frozen=True)
class KloostermanValue:
    k: int
    value: complex
    terms: int


def kloosterman_numerator(h: int, k: int, n: int) -> int:
    """N = (21k - 24nh + h - [-h]_k - k chi12) mod 24k, chi12 =
    `chi_twelfths(h, k)`: the summand -i^(3/2) e(-2nh/k) e((h - [-h]_k)/(12k))
    chi(h, k)^-1 of h in K_k(n) is e^(i pi N/(12k)), and N/(12k) is, as a
    rational, the reduced angle of that product of `Fraction` angles."""
    return (21 * k - 24 * n * h + h - neg_inverse(h, k) - k * chi_twelfths(h, k)) % (24 * k)


def kloosterman_sum(k: int, n: int) -> KloostermanValue:
    """K_k(n), summed in ascending h: Rademacher's
    A_k(n) = sum_h e^(pi i s(h, k) - 2 pi i nh/k), s the Dedekind sum, with
    the summand of h e^(i pi N/(12k)), N = `kloosterman_numerator(h, k, n)`.
    K_1(n) = 1 exactly (N = 0).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nums = [kloosterman_numerator(h, k, n) for h in range(k) if gcd(h, k) == 1]
    value = sum(phase(num, 12 * k) for num in nums)
    return KloostermanValue(k=k, value=value, terms=len(nums))


def kloosterman_partial(
    T: int, t: int, varrho: int, l: int, k: int, n: int
) -> KloostermanValue:
    """Partial Kloosterman sum over h with rho_T(t gamma_co h) = varrho:
    one bucket of `kloosterman_partials`.

    An empty residue class gives the zero value (an empty sum, not an
    error).  The summation index sigma of the written sum is bound to t.
    """
    half = (T - 1) // 2
    if t == 0 or abs(t) > half:
        raise ValueError("t must be nonzero with |t| <= (T-1)/2")
    ((counts, sums),) = kloosterman_partials(T, [k], n, [varrho])
    if not 0 <= l < sums.shape[2]:
        raise ValueError(f"l={l} outside 0..{sums.shape[2] - 1}")
    i = t + half - (t > 0)
    return KloostermanValue(k=k, value=complex(sums[i, 0, l]), terms=int(counts[i, 0]))


def _check_range(T: int, k: int) -> None:
    """Every numerator of `_unit_numerators` is below 2 den <= 96 T^3 k^2 and
    every int64 product below 2^62 while 96 T^3 k^2 <= 2^53, so each
    numerator and denominator is exact as a float and their quotient is
    the correctly rounded angle that `phase` takes."""
    if 96 * T**3 * k * k > 2**53:
        raise ValueError(f"k={k} is past the int64 range of the Mordell units "
                         f"at T={T}: 96 T^3 k^2 must be at most 2^53")


def _h_terms(T: int, h: int, k: int, n: int) -> tuple[int, int, int]:
    """(H, inv2, N0), the t-free data of one h: H = gamma_co h,
    inv2 = [-H]_(k/(T,k)), and N0, the t-free part of the base numerator
    over L = 12 T gamma_co k, reduced mod 2L: the angles of
    e(-2nh/k) i^(3/2) chi(h, k)^-1 e((h - [-h]_k)/(12k)), which is K_k(n)'s
    summand N/(12k) (`kloosterman_numerator`) without its minus sign,
    chi(H, k/(T,k))^3 and e(g inv2/(4k))."""
    g = gcd(T, k)
    gco = T // g
    H = gco * h
    inv2 = neg_inverse(H, k // g)
    N0 = (T * gco * (kloosterman_numerator(h, k, n) - 12 * k)
          + 3 * T * gco * k * chi_twelfths(H, k // g)  # chi^3
          + 3 * T * T * inv2)  # g inv2/(4k)
    return H, inv2, N0 % (24 * T * gco * k)


def _unit_rows(T: int, n: int, pairs, ts, rhos) -> dict[str, np.ndarray]:
    """The l-free data of the units e(-2nh/k) u_H*(T, t, l, h, k), one
    row per (k, h) of `pairs` (h coprime to k) and t of `ts` whose
    rho = rho_T(t gamma_co h) is in `rhos`, in (k, h, t) order, as int64
    and float64 arrays; "at" is the row's index among all (k, h, t) and
    "j" its rho's index in `rhos`.

    With H = gamma_co h, K = k/(T,k), inv2 = [-H]_K and L = 12 T gamma_co k,
    a row holds the base angle p/q in [0, 2), in lowest terms, of the
    l-free factors e(-2nh/k) i^(3/2) u_theta* chi(h, k)^-1
    e((h - [-h]_k)/(12k)), with its scale: 1, except for rho = 0, where it
    is u_theta*'s real factor |2 sin(.)|.  Its numerator over L is N0
    (`_h_terms`) plus the t-dependent part of the theta quotient's unit
    u_theta and u_theta*'s branch tail (its sign is that of rho); chi and
    chi^3 (at (H, K)) enter N0 as `chi_twelfths`.  The tH - rho = T m
    terms are reduced mod 2L first (m mod 2 and m^2 inv2 mod 2K, since
    2L = 24 T^2 K), as is the l-free constant c = -(HK + 1) T K of
    `_unit_numerators` mod 2D, D = 4 T K.
    """
    cols = []
    for k, h in pairs:
        g = gcd(T, k)
        cols.append((k // g, T // g * k, *_h_terms(T, h, k, n)))
    kg, gk, H, inv2, N0 = (np.repeat(np.array(col, dtype=np.int64), len(ts)) for col in zip(*cols))
    t = np.tile(np.array(ts, dtype=np.int64), len(pairs))
    half = (T - 1) // 2
    rho = (t * H + half) % T - half
    slot = np.full(T, -1)  # rho mod T -> its index in rhos
    slot[[x % T for x in rhos]] = range(len(rhos))
    at = np.flatnonzero(slot[rho % T] >= 0)
    kg, gk, H, inv2, N0, t, rho = (col[at] for col in (kg, gk, H, inv2, N0, t, rho))
    tH = t * H
    m = (tH - rho) // T
    mm = m % (2 * kg)
    L = 12 * T * gk
    tail = 12 * T * (rho * inv2 - t * (1 + H * inv2))
    N = (N0 + m % 2 * L  # u_theta
         + 12 * T * T * (mm * mm % (2 * kg) * inv2 % (2 * kg)) - 24 * t * rho
         - np.sign(rho) * (L // 2 + tail))
    s = np.sin(math.pi * (-t * (1 + H * inv2) / gk))
    zero = rho == 0
    N = (N + np.where(zero & (s > 0), L, 0)) % (2 * L)
    reduce = np.gcd(N, L)
    D = 4 * T * kg
    return {
        "at": at, "j": slot[rho % T], "kg": kg, "H": H,
        "e0": (kg - 1) * (H - 1) // 2 + tH - rho + 1,
        "b": 2 * (T * kg - 2 * tH),
        "c": -((H * kg + 1) % (2 * D)) * (T * kg) % (2 * D),
        "p": N // reduce, "q": L // reduce,
        "scale": np.where(zero, np.abs(-2.0 * s), 1.0),
    }


def _unit_numerators(T: int, rows: dict, r: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, ...]:
    """(num, den) of unit l of row r of `_unit_rows`, for each (r, l): the
    angle of e(-2nh/k) u_H*(T, t, l, h, k), without the scale, is exactly
    num/den, with integers 0 <= num < 2 den.

    u_H* is the composed unit of the partial Kloosterman sum,
    i^(3/2) u_theta* chi(h, k)^-1 u_H(T, t, l, gamma_co h, k/(T,k))
    e^(2 pi i (rho/T) alpha) e((h - [-h]_k)/(12k)), with
    alpha = `alpha_shift(T, t, l, k/(T,k))` and u_H = `u_h`; the trailing
    e(-[-h]_k/(12k)) is the leading phase of the reciprocal transformed
    eta.  The (rho/T) alpha phase of u_H cancels the e^(2 pi i (rho/T) alpha)
    factor exactly, and the rest of u_H's angle is num_l/D with D = 4TK
    and w = 2l - K + 1:

        num_l = -(HK+1)TK + 4TK (e mod 2) - T H w^2 - 2w (TK - 2tH),
        e = lH + (K-1)(H-1)//2 + tH - rho + 1,

    taken mod 2D (T H w^2 as T ((H mod 8K)(w^2 mod 8K) mod 8K)) before it
    is multiplied by q, which is exact since den = qD:
    num = (pD + q (num_l mod 2D)) mod 2 den.
    """
    kg, H, q = rows["kg"][r], rows["H"][r], rows["q"][r]
    w = 2 * l - kg + 1
    D = 4 * T * kg
    num_l = (4 * T * kg * ((l * H + rows["e0"][r]) % 2)
             - T * (H % (8 * kg) * (w * w % (8 * kg)) % (8 * kg))
             - w * rows["b"][r] + rows["c"][r]) % (2 * D)
    den = q * D
    return (rows["p"][r] * D + q * num_l) % (2 * den), den


def _unit_values(T: int, rows: dict, r: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Unit l of row r of `_unit_rows`, for each (r, l), as complex128:
    scale * e^(i pi num/den) with `_unit_numerators`' num and den, the
    float `phase` gives, since num/den is correctly rounded."""
    angle = np.divide(*_unit_numerators(T, rows, r, l))
    return rows["scale"][r] * np.exp(1j * (math.pi * angle))


def unit_h_star(T: int, t: int, l: int, h: int, k: int) -> complex:
    """u_H*(T, t, l, h, k), the composed unit of `_unit_numerators`, as a
    complex: unit l of its array pass at n = 0, where e(-2nh/k) = 1."""
    half = (T - 1) // 2
    if t == 0 or abs(t) > half:
        raise ValueError("t must be nonzero with |t| <= (T-1)/2")
    kg = k // gcd(T, k)
    if not 0 <= l < kg:
        raise ValueError(f"l={l} outside 0..{kg - 1}")
    _check_range(T, k)
    rows = _unit_rows(T, 0, [(k, h)], [t], range(-half, half + 1))
    return complex(_unit_values(T, rows, np.zeros(1, dtype=np.int64), np.array([l]))[0])


def kloosterman_partials(T: int, ks, n: int, rhos) -> list[tuple[np.ndarray, np.ndarray]]:
    """`kloosterman_partial(T, t, rho, l, k, n)` for every k of `ks`, every
    t != 0 with |t| <= (T-1)/2 (ascending), every rho of `rhos` and every
    l, as arrays: one (counts, sums) per k, counts[i, j] the number of
    coprime h in the bucket of (t_i, rhos[j]) and sums[i, j, l] its sum.

    The coprime (k, h) run in blocks whose (t, h, l) values number at most
    `_BLOCK_VALUES` (a block may span several k or split one k's h), and a
    single h with more values than that is split into passes of that size.
    Each block's rows (`_unit_rows`, only those whose rho is in `rhos`)
    are expanded over l, and their units (`_unit_values`) are added to
    their bucket by `np.add.at`, which adds in array order: each bucket is
    summed from zero in ascending h, the order of a scalar loop.  Only the
    requested rho have buckets; an empty bucket sums to 0j with count 0.
    Raises `ValueError` past the range of `_check_range`.
    """
    half = (T - 1) // 2
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    if any(abs(rho) > half for rho in rhos):
        raise ValueError("|varrho| must be at most (T-1)/2")
    _check_range(T, max(ks, default=1))
    ts = [t for t in range(-half, half + 1) if t]
    nb = len(ts) * len(rhos)  # buckets per k
    kgs = [k // gcd(T, k) for k in ks]
    starts = np.cumsum([0] + [nb * kg for kg in kgs])  # each k's first value
    counts = np.zeros(nb * len(ks), dtype=np.int64)
    sums = np.zeros(starts[-1], dtype=complex)
    pairs = [(a, h) for a, k in enumerate(ks) for h in range(k) if gcd(h, k) == 1] if nb else []
    blocks, size = [[]], 0
    for a, h in pairs:
        if size and size + len(ts) * kgs[a] > _BLOCK_VALUES:
            blocks.append([])
            size = 0
        blocks[-1].append((a, h))
        size += len(ts) * kgs[a]
    for block in filter(None, blocks):
        rows = _unit_rows(T, n, [(ks[a], h) for a, h in block], ts, rhos)
        owner = np.array([a for a, _ in block])[rows["at"] // len(ts)]  # index into ks
        bucket = len(rhos) * (rows["at"] % len(ts)) + rows["j"]  # (t, rho) within its k
        np.add.at(counts, nb * owner + bucket, 1)
        kg = rows["kg"]
        first = starts[owner] + bucket * kg  # each row's l = 0 value
        ends = np.cumsum(kg)
        total = int(ends[-1]) if len(ends) else 0
        for f0 in range(0, total, _BLOCK_VALUES):
            l = np.arange(f0, min(f0 + _BLOCK_VALUES, total))
            i = np.searchsorted(ends, l, side="right")  # the row of each value
            l -= ends[i] - kg[i]
            values = _unit_values(T, rows, i, l)
            np.add.at(sums, first[i] + l, values)
    return [(counts[nb * a:nb * (a + 1)].reshape(len(ts), len(rhos)),
             sums[starts[a]:starts[a + 1]].reshape(len(ts), len(rhos), kg))
            for a, kg in enumerate(kgs)]
