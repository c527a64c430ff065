"""Exact number-theoretic unit arithmetic.

The transformation laws of the eta, theta, and Appell-Lerch evaluators all
carry root-of-unity multipliers whose phases are rational multiples of pi
with mixed denominators (4, 12, k, T, ...).  Accumulating those phases in
floating point destroys the cancellation that Kloosterman sums live on, so
every multiplier here is an `ExactUnit`: a nonnegative real scale times
e^(i pi angle) with the angle kept as an exact `Fraction` modulo 2.  The
partial Kloosterman sums of the Mordell part take the l-dependent part
of each phase as an exact integer numerator over one common denominator
instead (`partial_phases`), equal as a rational to the `Fraction` angle.
The only lossy step is the final conversion to `complex`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


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
    def one(cls) -> "ExactUnit":
        return cls(Fraction(0))

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


I_POW_3_2 = ExactUnit(Fraction(3, 4))  # principal branch of i^(3/2)


def mod_inverse_pair(h: int, k: int) -> tuple[int, int]:
    """([-h]_k, beta) with 0 <= [-h]_k < k and -h [-h]_k - beta k = 1."""
    if k < 1:
        raise ValueError("modulus k must be >= 1")
    if gcd(h, k) != 1:
        raise ValueError(f"h={h} and k={k} are not coprime")
    inv = pow(-h % k, -1, k) if k > 1 else 0
    beta = (-h * inv - 1) // k
    assert -h * inv - beta * k == 1
    return inv, beta


def inverse_mod(h: int, k: int) -> int:
    """[h]_k in [0, k); the k = 1 case maps everything to 0."""
    if k == 1:
        return 0
    return pow(h % k, -1, k)


def jacobi_symbol(a: int, n: int) -> int:
    """Standard Jacobi symbol (a/n) for odd n >= 1 via quadratic reciprocity."""
    if n < 1 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd positive lower argument")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def chi_multiplier(h: int, k: int) -> ExactUnit:
    """The 24th-root-of-unity multiplier of the eta transformation law.

    Built from a Jacobi symbol and exponent terms with denominators 4 and
    12; the branch depends on which of h, k is odd.  The two-branch
    formula is only faithful to the eta law for 0 <= h < k, so arguments
    outside that range (the composed transformation laws feed in
    gamma_co h, which can exceed its modulus) are reduced mod k and the
    integer shift restored through eta(tau + m) = e^(pi i m / 12) eta(tau).
    """
    if gcd(h, k) != 1:
        raise ValueError(f"h={h} and k={k} are not coprime")
    shift = h // k
    h -= shift * k
    inv, beta = mod_inverse_pair(h, k)
    if k % 2 == 1:
        sym = jacobi_symbol(h, k)
        angle = Fraction(-k, 4) + Fraction(-beta * inv * (1 - k * k) + k * (h - inv), 12)
    elif h % 2 == 1:
        sym = jacobi_symbol(k, h)
        angle = Fraction(-1, 4) + Fraction(h * k * (1 - inv * inv) - inv * (beta - k + 3), 12)
    else:
        raise ValueError("h and k cannot both be even")
    unit = ExactUnit(angle + Fraction(shift, 12))
    if sym < 0:
        unit = unit * ExactUnit.minus_one_pow(1)
    return unit


def u_theta(T: int, t: int, h: int, k: int) -> ExactUnit:
    """Unit factor of the transformed theta quotient (t may be any residue)."""
    g = gcd(T, k)
    gco = T // g
    rho = rho_residue(T, t * gco * h)
    inv2 = inverse_mod(-gco * h, k // g)
    u = ExactUnit.minus_one_pow((t * h * gco - rho) // T)
    u = u * ExactUnit(Fraction((t * gco * h - rho) ** 2 * inv2, gco * T * k))
    u = u * ExactUnit(Fraction(-2 * t * rho, gco * T * k))
    return u


def u_mu(T: int, t: int, h: int, k: int) -> ExactUnit:
    """Unit factor of the transformed mu-function."""
    if t == 0:
        raise ValueError("u_mu requires t != 0")
    inv = mod_inverse_pair(h, k)[0]
    rho = rho_residue(T, t * h)
    u = chi_multiplier(h, k) ** -3
    u = u * ExactUnit.minus_one_pow(t * h - rho)
    u = u * ExactUnit(Fraction(-inv * ((t * h - rho) // T) ** 2, k))
    u = u * ExactUnit(Fraction(2 * t * rho, T * T * k))
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
    inv2 = inverse_mod(-gco * h, kg)
    chi3 = chi_multiplier(gco * h, kg) ** 3
    base = chi3 * u_theta(T, t, h, k)
    if rho == 0:
        angle = Fraction(g * inv2, 4 * k)
        s = math.sin(math.pi * float(Fraction(-t * (1 + gco * h * inv2), gco * k)))
        return base * ExactUnit(angle) * ExactUnit.from_real(-2.0 * s)
    tail = Fraction(rho * inv2, gco * k) - Fraction(t * (1 + gco * h * inv2), gco * k)
    if rho > 0:
        # -i e^(i pi (g inv2/(4k) - tail))
        return base * ExactUnit(Fraction(-1, 2) + Fraction(g * inv2, 4 * k) - tail)
    return base * ExactUnit(Fraction(1, 2) + Fraction(g * inv2, 4 * k) + tail)


def u_h(T: int, t: int, l: int, h: int, k: int) -> ExactUnit:
    """Unit factor multiplying each Mordell-integral summand."""
    if t == 0:
        raise ValueError("u_h requires t != 0")
    if not 0 <= l <= k - 1:
        raise ValueError(f"l={l} outside 0..{k - 1}")
    rho = rho_residue(T, t * h)
    half_shift = Fraction(2 * l - k + 1, 2)  # l - (k-1)/2
    alpha = (Fraction(-t, T) + half_shift) / k
    u = ExactUnit(Fraction(-(h * k + 1), 4))
    u = u * ExactUnit.minus_one_pow(l * h + (k - 1) * (h - 1) // 2 + t * h - rho + 1)
    u = u * ExactUnit(Fraction(-h) * half_shift**2 / k)
    u = u * ExactUnit(-2 * (half_shift * (Fraction(1, 2) - Fraction(t * h, T * k))
                            + Fraction(rho, T) * alpha))
    return u


def u_h_star(T: int, t: int, l: int, h: int, k: int) -> ExactUnit:
    """The composed unit in the partial Kloosterman sum.

    The trailing phase is e^(pi i h/(12k)) e^(-pi i [-h]_k/(12k)): the
    second factor is the leading phase of the reciprocal transformed eta
    and enters with a minus sign (checked against the theta/eta quotient
    asymptotics at every residue class of rho_T(t gamma_co h)).
    """
    g = gcd(T, k)
    gco = T // g
    kg = k // g
    rho = rho_residue(T, t * gco * h)
    inv = mod_inverse_pair(h, k)[0]
    u = I_POW_3_2 * u_theta_star(T, t, h, k) * chi_multiplier(h, k).inverse()
    u = u * u_h(T, t, l, gco * h, kg)
    u = u * ExactUnit(2 * Fraction(rho, T) * alpha_shift(T, t, l, kg))
    u = u * ExactUnit(Fraction(h, 12 * k)) * ExactUnit(Fraction(-inv, 12 * k))
    return u


@dataclass(frozen=True)
class KloostermanValue:
    k: int
    n: int
    value: complex
    terms: int

    @property
    def is_empty(self) -> bool:
        return self.terms == 0


def _kloosterman_units(k: int, n: int) -> list[ExactUnit]:
    units = []
    prefactor = ExactUnit.minus_one_pow(1) * I_POW_3_2
    for h in range(k) if k > 1 else [0]:
        if gcd(h, k) != 1:
            continue
        hinv = inverse_mod(h, k)
        u = prefactor
        u = u * ExactUnit(Fraction(-2 * n * h, k))
        u = u * ExactUnit(Fraction(h - hinv, 12 * k))
        u = u * chi_multiplier(h, k).inverse()
        units.append(u)
    return units


def kloosterman_sum(k: int, n: int) -> KloostermanValue:
    """K_k(n), assembled from exact unit summands.

    Each summand's phase is a single reduced rational before the one
    float conversion; K_1(n) = 1 holds exactly in the angle arithmetic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    units = _kloosterman_units(k, n)
    return KloostermanValue(
        k=k, n=n, value=sum(u.to_complex() for u in units), terms=len(units)
    )


def _check_partial(T: int, t: int, k: int, rhos) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if t == 0 or abs(t) > (T - 1) // 2:
        raise ValueError("t must be nonzero with |t| <= (T-1)/2")
    if any(abs(rho) > (T - 1) // 2 for rho in rhos):
        raise ValueError("|varrho| must be at most (T-1)/2")


def kloosterman_partial(
    T: int, t: int, varrho: int, l: int, k: int, n: int
) -> KloostermanValue:
    """Partial Kloosterman sum over h with rho_T(t gamma_co h) = varrho.

    An empty residue class gives the zero value (an empty sum, not an
    error).  The summation index sigma of the written sum is bound to t.
    """
    _check_partial(T, t, k, [varrho])
    g = gcd(T, k)
    if not 0 <= l <= k // g - 1:
        raise ValueError(f"l={l} outside 0..{k // g - 1}")
    gco = T // g
    acc = 0j
    terms = 0
    for h in range(k) if k > 1 else [0]:
        if gcd(h, k) != 1:
            continue
        if rho_residue(T, t * gco * h) != varrho:
            continue
        u = ExactUnit(Fraction(-2 * n * h, k)) * u_h_star(T, t, l, h, k)
        acc += u.to_complex()
        terms += 1
    return KloostermanValue(k=k, n=n, value=acc, terms=terms)


def partial_phases(T: int, t: int, h: int, k: int, n: int) -> tuple[float, list[int], int]:
    """The units e(-2nh/k) u_h_star(T, t, l, h, k) for l = 0..k/(T,k) - 1.

    Returns (scale, numerators, den): unit l is scale * e^(i pi N_l / den)
    with integers 0 <= N_l < 2 den, and N_l / den is exactly the unit's
    `Fraction` angle.  The l-free factors (e(-2nh/k), i^(3/2), u_theta_star,
    chi^-1 and the two 1/(12k) phases) are multiplied once as `Fraction`s.
    The (rho/T) alpha phase of u_h cancels u_h_star's alpha_shift factor
    exactly, and the rest of u_h's angle is num/D with D = 4TK,
    K = k/(T,k), H = gamma_co h and w = 2l - K + 1:

        num = -(HK+1)TK + 4TK (e mod 2) - T H w^2 - 2w (TK - 2tH),
        e = lH + (K-1)(H-1)//2 + tH - rho + 1.
    """
    g = gcd(T, k)
    gco = T // g
    kg = k // g
    inv = mod_inverse_pair(h, k)[0]
    base = (ExactUnit(Fraction(-2 * n * h, k)) * I_POW_3_2 * u_theta_star(T, t, h, k)
            * chi_multiplier(h, k).inverse() * ExactUnit(Fraction(h - inv, 12 * k)))
    p, q = base.angle.numerator, base.angle.denominator
    H = gco * h
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
    return base.scale, nums, den


def kloosterman_partials(
    T: int, t: int, k: int, n: int, rhos
) -> dict[int, list[KloostermanValue]]:
    """`kloosterman_partial(T, t, rho, l, k, n)` for every rho in `rhos` and
    every l, from one pass over h.

    Each h joins the bucket of its rho_T(t gamma_co h); a bucket's sums
    over l are accumulated in ascending h, as `kloosterman_partial` does,
    so every value is bit-identical to it.  An empty bucket gives K zero
    values with `terms == 0`.
    """
    members: dict[int, list[int]] = {rho: [] for rho in rhos}
    _check_partial(T, t, k, members)
    g = gcd(T, k)
    gco = T // g
    for h in range(k):
        if gcd(h, k) != 1:
            continue
        bucket = members.get(rho_residue(T, t * gco * h))
        if bucket is not None:
            bucket.append(h)
    out = {}
    for rho, hs in members.items():
        acc = [0j] * (k // g)
        for h in hs:
            scale, nums, den = partial_phases(T, t, h, k, n)
            for l, num in enumerate(nums):
                acc[l] += scale * cmath.exp(1j * math.pi * (num / den))
        out[rho] = [KloostermanValue(k=k, n=n, value=v, terms=len(hs)) for v in acc]
    return out
