"""Exact root-of-unity arithmetic.

The transformation laws of the eta, theta, and Appell-Lerch evaluators all
carry root-of-unity multipliers e^(i pi a) whose angles a are rational,
with mixed denominators (4, 12, k, T, ...).  Accumulating those phases in
floating point destroys the cancellation that Kloosterman sums live on, so
every angle here is exact, in one of two forms:

* a `Fraction` in [0, 2): the eta multiplier (`chi_multiplier`) and the
  unit factors u_mu and u_H of Prop. 4.2 (`u_mu`, `u_h`);
* an integer numerator over an integer denominator: one numerator over 12k
  per h in K_k(n) (`kloosterman_sum`), and in the partial Kloosterman sums
  of the Mordell part (`partial_phases`) an l-free base numerator over
  L = 12 T gamma_co k, reduced by `gcd` (every factor's denominator, 4, 12,
  k, 4k, 12k, gamma_co k or gamma_co T k, divides L), plus an l-dependent
  numerator over a common multiple of that.

`phase` is the only conversion to `complex`, and the only lossy step;
e(a) in the docstrings below is e^(i pi a).  The numerators equal, as
rationals, the `Fraction` angle of the same product of unit factors
composed one factor at a time; `tests/unit_oracles.py` keeps those
compositions as the oracles of both forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

I_POW_3_2 = Fraction(3, 4)  # the angle of i^(3/2), principal branch


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
    n: int
    value: complex
    terms: int

    @property
    def is_empty(self) -> bool:
        return self.terms == 0


def kloosterman_sum(k: int, n: int) -> KloostermanValue:
    """K_k(n), summed in ascending h: Rademacher's
    A_k(n) = sum_h e^(pi i s(h, k) - 2 pi i nh/k), s the Dedekind sum.

    Each summand -i^(3/2) e(-2nh/k) e((h - [-h]_k)/(12k)) chi(h, k)^-1 is
    e^(i pi N/(12k)) with the one integer numerator
    N = (21k - 24nh + h - [-h]_k - k chi12) mod 24k, chi12 = 12 times chi's
    angle (`chi_twelfths`); N/(12k) is, as a rational, the reduced angle of
    the same product of `Fraction` angles, so both give the same float.
    K_1(n) = 1 exactly (N = 0).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nums = [(21 * k - 24 * n * h + h - neg_inverse(h, k) - k * chi_twelfths(h, k)) % (24 * k)
            for h in range(k) if gcd(h, k) == 1]
    value = sum(phase(num, 12 * k) for num in nums)
    return KloostermanValue(k=k, n=n, value=value, terms=len(nums))


def kloosterman_partial(
    T: int, t: int, varrho: int, l: int, k: int, n: int
) -> KloostermanValue:
    """Partial Kloosterman sum over h with rho_T(t gamma_co h) = varrho:
    one bucket of `kloosterman_partials`.

    An empty residue class gives the zero value (an empty sum, not an
    error).  The summation index sigma of the written sum is bound to t.
    """
    if t == 0 or abs(t) > (T - 1) // 2:
        raise ValueError("t must be nonzero with |t| <= (T-1)/2")
    values = kloosterman_partials(T, k, n, [varrho])[t][varrho]
    if not 0 <= l < len(values):
        raise ValueError(f"l={l} outside 0..{len(values) - 1}")
    return values[l]


def _h_terms(T: int, h: int, k: int, n: int) -> tuple[int, int, int]:
    """(H, inv2, N0), the t-free data of one h: H = gamma_co h,
    inv2 = [-H]_(k/(T,k)), and N0, the part of `_base_phase`'s numerator
    over L = 12 T gamma_co k that does not depend on t: the angles of
    e(-2nh/k) i^(3/2), chi(H, k/(T,k))^3, e(g inv2/(4k)), chi(h, k)^-1 and
    e((h - [-h]_k)/(12k))."""
    g = gcd(T, k)
    gco = T // g
    H = gco * h
    inv = neg_inverse(h, k)
    inv2 = neg_inverse(H, k // g)
    N0 = (-24 * n * h * T * gco + 9 * T * gco * k  # e(-2nh/k) i^(3/2)
          + 3 * T * gco * k * chi_twelfths(H, k // g)  # chi^3
          + 3 * T * T * inv2  # g inv2/(4k)
          - T * gco * k * chi_twelfths(h, k)  # chi^-1
          + T * gco * (h - inv))  # e((h - [-h]_k)/(12k))
    return H, inv2, N0


def _base_phase(T: int, t: int, k: int, terms) -> tuple[float, int, int]:
    """(scale, p, q): the l-free factors e(-2nh/k) i^(3/2) u_theta*
    chi(h, k)^-1 e((h - [-h]_k)/(12k)) of `partial_phases` as
    scale * e^(i pi p/q), with p/q in [0, 2) in lowest terms; `terms` is
    `_h_terms(T, h, k, n)`.  u_theta* is the scaled unit factor of the
    transformed theta function.

    The angle is one integer numerator over L = 12 T gamma_co k, reduced
    by `gcd`: the t-free N0 plus the t-dependent part of the theta
    quotient's unit u_theta and u_theta*'s branch tail (its sign is that
    of rho); chi and chi^3 (at (gamma_co h, k/(T, k))) enter N0 as
    `chi_twelfths`.  The scale is 1, except for rho = 0, where it is
    u_theta*'s real factor |2 sin(.)|.
    """
    if t == 0:
        raise ValueError("partial_phases requires t != 0")
    gco = T // gcd(T, k)
    H, inv2, N = terms
    rho = rho_residue(T, t * H)
    L = 12 * T * gco * k
    tail = 12 * T * (rho * inv2 - t * (1 + H * inv2))  # L (rho inv2 - t(1 + H inv2))/(gco k)
    N += (((t * H - rho) // T) * L  # u_theta
          + 12 * ((t * H - rho) ** 2 * inv2 - 2 * t * rho))
    scale = 1.0
    if rho > 0:
        N -= L // 2 + tail
    elif rho < 0:
        N += L // 2 + tail
    else:
        s = math.sin(math.pi * (-t * (1 + H * inv2) / (gco * k)))
        scale = abs(-2.0 * s)
        if s > 0:
            N += L
    N %= 2 * L
    reduce = gcd(N, L)
    return scale, N // reduce, L // reduce


def partial_phases(T: int, t: int, k: int, terms) -> tuple[float, list[int], int]:
    """The units e(-2nh/k) u_H*(T, t, l, h, k) for l = 0..k/(T,k) - 1,
    with `terms` = `_h_terms(T, h, k, n)`.  u_H* is the composed unit of
    the partial Kloosterman sum,
    i^(3/2) u_theta* chi(h, k)^-1 u_H(T, t, l, gamma_co h, k/(T,k))
    e^(2 pi i (rho/T) alpha) e((h - [-h]_k)/(12k)), with rho =
    rho_T(t gamma_co h), alpha = `alpha_shift(T, t, l, k/(T,k))` and
    u_H = `u_h`; the trailing e(-[-h]_k/(12k)) is the leading phase of the
    reciprocal transformed eta.

    Returns (scale, numerators, den): unit l is scale * e^(i pi N_l / den)
    with integers 0 <= N_l < 2 den, and N_l / den is exactly the angle of
    that product of `Fraction` angles.  The l-free factors give the base
    angle p/q, an integer numerator over L = 12 T gamma_co k
    (`_base_phase`).  The (rho/T) alpha phase of u_H cancels the
    e^(2 pi i (rho/T) alpha) factor exactly, and the rest of u_H's angle is
    num/D with D = 4TK, K = k/(T,k), H = gamma_co h and w = 2l - K + 1:

        num = -(HK+1)TK + 4TK (e mod 2) - T H w^2 - 2w (TK - 2tH),
        e = lH + (K-1)(H-1)//2 + tH - rho + 1.
    """
    scale, p, q = _base_phase(T, t, k, terms)
    kg = k // gcd(T, k)
    H = terms[0]
    rho = rho_residue(T, t * H)
    D = 4 * T * kg
    den = q * D
    e0 = (kg - 1) * (H - 1) // 2 + t * H - rho + 1
    const = p * D - (H * kg + 1) * T * kg * q
    nums = []
    for l in range(kg):
        w = 2 * l - kg + 1
        num = 4 * T * kg * ((l * H + e0) % 2) - T * H * w * w - 2 * w * (T * kg - 2 * t * H)
        nums.append((const + num * q) % (2 * den))
    return scale, nums, den


def unit_h_star(T: int, t: int, l: int, h: int, k: int) -> complex:
    """u_H*(T, t, l, h, k), the composed unit of `partial_phases`, as a
    complex: unit l of `partial_phases` at n = 0, where e(-2nh/k) = 1."""
    scale, nums, den = partial_phases(T, t, k, _h_terms(T, h, k, 0))
    if not 0 <= l < len(nums):
        raise ValueError(f"l={l} outside 0..{len(nums) - 1}")
    return scale * phase(nums[l], den)


def kloosterman_partials(
    T: int, k: int, n: int, rhos
) -> dict[int, dict[int, list[KloostermanValue]]]:
    """`kloosterman_partial(T, t, rho, l, k, n)` for every t != 0 with
    |t| <= (T-1)/2 (ascending), every rho in `rhos` and every l, from one
    pass over h: result[t][rho][l].

    The t-free data of each h (`_h_terms`: both inverses, both chi
    twelfths and the t-free part of the base numerator) is computed once;
    then, for each t, h joins the bucket of its rho_T(t gamma_co h).  A
    bucket's sums over l are accumulated in ascending h.  An empty bucket
    gives K zero values with `terms == 0`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(abs(rho) > (T - 1) // 2 for rho in rhos):
        raise ValueError("|varrho| must be at most (T-1)/2")
    half = (T - 1) // 2
    kg = k // gcd(T, k)
    gco = T // gcd(T, k)
    acc = {t: {rho: [0j] * kg for rho in rhos} for t in range(-half, half + 1) if t}
    count = {t: dict.fromkeys(rhos, 0) for t in acc}
    for h in range(k):
        if gcd(h, k) != 1:
            continue
        terms = _h_terms(T, h, k, n)
        for t, buckets in acc.items():
            rho = rho_residue(T, t * gco * h)
            bucket = buckets.get(rho)
            if bucket is None:
                continue
            count[t][rho] += 1
            scale, nums, den = partial_phases(T, t, k, terms)
            for l, num in enumerate(nums):
                bucket[l] += scale * phase(num, den)
    empty = [KloostermanValue(k=k, n=n, value=0j, terms=0)] * kg
    return {t: {rho: [KloostermanValue(k=k, n=n, value=v, terms=count[t][rho]) for v in values]
                if count[t][rho] else empty
                for rho, values in buckets.items()}
            for t, buckets in acc.items()}
