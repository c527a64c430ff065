"""Oracles for the unit phases of `trank.units`.

`trank.units` carries each phase one way: a plain `Fraction` angle
(`chi_multiplier`, `u_mu`, `u_h`) or an integer numerator over a
denominator (`kloosterman_sum`, and the int64 arrays of the partial
Kloosterman sums' units).  Here the same units are composed one factor at
a time, as the formulas are written, each factor an `ExactUnit`
(scale * e^(i pi angle), the angle an exact `Fraction` mod 2).  The tests
hold the integer numerators equal to these angles, rational for rational,
and the package's floats equal to `ExactUnit.to_complex`, bit for bit.

The scalar integer path of the partial Kloosterman sums (`base_phase`,
`partial_phases`, `partial_sums`: Python integers, one `cmath.exp` per
unit as in `units.phase`, and one loop over h) is kept here as a second,
faster reference for the array pass, swept where the `Fraction`
compositions would take too long.

The angle of i^(3/2), 3/4, is written here rather than imported, so the
oracles take no constant from the package they check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from trank.units import (
    KloostermanValue,
    _h_terms,
    alpha_shift,
    chi_multiplier,
    neg_inverse,
    rho_residue,
    u_h,
)


@dataclass(frozen=True)
class ExactUnit:
    """value = scale * e^(i pi angle), with angle an exact rational mod 2."""

    angle: Fraction
    scale: float = 1.0

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be nonnegative; fold signs into angle")
        object.__setattr__(self, "angle", self.angle % 2)

    @classmethod
    def from_real(cls, x: float) -> "ExactUnit":
        """A real number as a scaled unit: |x| e^(i pi [x<0])."""
        return cls(Fraction(0 if x >= 0 else 1), abs(x))

    @classmethod
    def minus_one_pow(cls, e: int) -> "ExactUnit":
        return cls(Fraction(e % 2))

    @property
    def is_unimodular(self) -> bool:
        return self.scale == 1.0

    def __mul__(self, other: "ExactUnit") -> "ExactUnit":
        return ExactUnit(self.angle + other.angle, self.scale * other.scale)

    def __pow__(self, e: int) -> "ExactUnit":
        return ExactUnit(self.angle * e, self.scale**e)

    def inverse(self) -> "ExactUnit":
        return self**-1

    def to_complex(self) -> complex:
        return self.scale * cmath.exp(1j * math.pi * float(self.angle))


I_POW_3_2 = ExactUnit(Fraction(3, 4))  # i^(3/2), principal branch


def chi(h: int, k: int) -> ExactUnit:
    return ExactUnit(chi_multiplier(h, k))


def u_theta(T: int, t: int, h: int, k: int) -> ExactUnit:
    """Unit factor of the transformed theta quotient (t may be any residue)."""
    g = gcd(T, k)
    gco = T // g
    rho = rho_residue(T, t * gco * h)
    inv2 = neg_inverse(gco * h, k // g)
    u = ExactUnit.minus_one_pow((t * h * gco - rho) // T)
    u = u * ExactUnit(Fraction((t * gco * h - rho) ** 2 * inv2, gco * T * k))
    u = u * ExactUnit(Fraction(-2 * t * rho, gco * T * k))
    return u


def u_theta_star(T: int, t: int, h: int, k: int) -> ExactUnit:
    """Scaled unit factor of the transformed theta function itself.

    In the rho = 0 branch the value carries a real sin(.) scale and can be
    zero; the other two branches are unimodular.
    """
    if t == 0:
        raise ValueError("u_theta_star requires t != 0")
    g = gcd(T, k)
    gco = T // g
    kg = k // g
    rho = rho_residue(T, gco * h * t)
    inv2 = neg_inverse(gco * h, kg)
    base = chi(gco * h, kg) ** 3 * u_theta(T, t, h, k)
    if rho == 0:
        angle = Fraction(g * inv2, 4 * k)
        s = math.sin(math.pi * float(Fraction(-t * (1 + gco * h * inv2), gco * k)))
        return base * ExactUnit(angle) * ExactUnit.from_real(-2.0 * s)
    tail = Fraction(rho * inv2, gco * k) - Fraction(t * (1 + gco * h * inv2), gco * k)
    if rho > 0:
        # -i e^(i pi (g inv2/(4k) - tail))
        return base * ExactUnit(Fraction(-1, 2) + Fraction(g * inv2, 4 * k) - tail)
    return base * ExactUnit(Fraction(1, 2) + Fraction(g * inv2, 4 * k) + tail)


def u_h_star(T: int, t: int, l: int, h: int, k: int) -> ExactUnit:
    """The composed unit u_H* of the partial Kloosterman sum.

    The trailing phase is e^(pi i h/(12k)) e^(-pi i [-h]_k/(12k)): the
    second factor is the leading phase of the reciprocal transformed eta
    and enters with a minus sign (checked against the theta/eta quotient
    asymptotics at every residue class of rho_T(t gamma_co h)).
    """
    g = gcd(T, k)
    gco = T // g
    kg = k // g
    rho = rho_residue(T, t * gco * h)
    inv = neg_inverse(h, k)
    u = I_POW_3_2 * u_theta_star(T, t, h, k) * chi(h, k).inverse()
    u = u * ExactUnit(u_h(T, t, l, gco * h, kg))
    u = u * ExactUnit(2 * Fraction(rho, T) * alpha_shift(T, t, l, kg))
    u = u * ExactUnit(Fraction(h, 12 * k)) * ExactUnit(Fraction(-inv, 12 * k))
    return u


def kloosterman_units(k: int, n: int) -> list[ExactUnit]:
    """The summands -i^(3/2) e(-2nh/k) e((h - [-h]_k)/(12k)) chi(h, k)^-1
    of K_k(n), in ascending h."""
    out = []
    prefactor = ExactUnit.minus_one_pow(1) * I_POW_3_2
    for h in range(k) if k > 1 else [0]:
        if gcd(h, k) != 1:
            continue
        u = prefactor
        u = u * ExactUnit(Fraction(-2 * n * h, k))
        u = u * ExactUnit(Fraction(h - neg_inverse(h, k), 12 * k))
        u = u * chi(h, k).inverse()
        out.append(u)
    return out


def kloosterman_partial(T: int, t: int, varrho: int, l: int, k: int, n: int) -> KloostermanValue:
    """The partial Kloosterman sum over h with rho_T(t gamma_co h) = varrho:
    e(-2nh/k) u_H*(T, t, l, h, k) composed as `ExactUnit`s and summed in
    ascending h.  An empty residue class gives the zero value."""
    gco = T // gcd(T, k)
    acc = 0j
    terms = 0
    for h in range(k):
        if gcd(h, k) != 1 or rho_residue(T, t * gco * h) != varrho:
            continue
        acc += (ExactUnit(Fraction(-2 * n * h, k)) * u_h_star(T, t, l, h, k)).to_complex()
        terms += 1
    return KloostermanValue(k=k, value=acc, terms=terms)


def base_phase(T: int, t: int, k: int, terms) -> tuple[float, int, int]:
    """(scale, p, q): the l-free factors e(-2nh/k) i^(3/2) u_theta*
    chi(h, k)^-1 e((h - [-h]_k)/(12k)) as scale * e^(i pi p/q), with p/q
    in [0, 2) in lowest terms, from Python integers; `terms` is
    `units._h_terms(T, h, k, n)`.  The scale is 1, except for rho = 0,
    where it is u_theta*'s real factor |2 sin(.)|."""
    if t == 0:
        raise ValueError("base_phase requires t != 0")
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
    """(scale, numerators, den): unit l = 0..k/(T,k) - 1 of
    e(-2nh/k) u_H*(T, t, l, h, k) is scale * e^(i pi N_l / den), with
    integers 0 <= N_l < 2 den, from Python integers, by the formula of
    `units._unit_numerators` without its int64 reductions."""
    scale, p, q = base_phase(T, t, k, terms)
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


def partial_sums(T: int, k: int, n: int) -> dict:
    """{(t, rho): (terms, [sum over l])} for every t != 0 and every rho,
    each bucket summed from 0j in ascending h, each unit of
    `partial_phases` converted as `units.phase` converts it (its
    numerator is already reduced)."""
    half = (T - 1) // 2
    gco = T // gcd(T, k)
    kg = k // gcd(T, k)
    out = {(t, rho): (0, [0j] * kg) for t in range(-half, half + 1) if t
           for rho in range(-half, half + 1)}
    for h in range(k):
        if gcd(h, k) != 1:
            continue
        terms = _h_terms(T, h, k, n)
        for t in range(-half, half + 1):
            if t:
                rho = rho_residue(T, t * gco * h)
                count, acc = out[(t, rho)]
                scale, nums, den = partial_phases(T, t, k, terms)
                out[(t, rho)] = (count + 1, [a + scale * cmath.exp(1j * math.pi * (num / den))
                                             for a, num in zip(acc, nums)])
    return out
