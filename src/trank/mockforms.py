"""Numerical eta, theta, and Appell-Lerch evaluators plus a randomized
verifier for their transformation laws.

Conventions.  Every evaluator takes a point tau in the upper half-plane
with q = e^(2 pi i tau); callers in the classical real-part convention
(arguments `z` with Re z > 0) pass tau = iz, and the
modular-transformation call sites use tau = (h + iz)/k.  Series are
bilateral and truncated by explicit Gaussian tail windows; every
truncation has a computable tail bound and raises `ConvergenceError`
instead of silently returning a bad value.

The `verify_transformation` driver turns each transformation law into a
seeded randomized numeric identity check and collects a report of
left/right values and relative errors.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from .errors import ConvergenceError
from .specfun import mordell_h
from .units import (
    alpha_shift,
    chi_multiplier,
    neg_inverse,
    phase,
    rho_residue,
    u_h,
    u_mu,
)

_LATTICE_MARGIN = 1e-8


def _require_upper(tau: complex) -> complex:
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return tau


def _gaussian_window(im_tau: float, center: float = 0.0,
                     budget: float = 55.0) -> tuple[int, int]:
    w = math.sqrt(budget / (math.pi * im_tau)) + 2.0
    return int(math.floor(center - w)), int(math.ceil(center + w))


def lattice_distance(u: complex, tau: complex) -> float:
    """Distance from u to the lattice Z + tau Z."""
    b = u.imag / tau.imag
    best = math.inf
    for n in (math.floor(b), math.ceil(b)):
        w = u - n * tau
        d = abs(w - round(w.real))
        best = min(best, d)
    return best


def _check_off_lattice(u: complex, tau: complex, margin: float, what: str) -> None:
    if lattice_distance(u, tau) < margin:
        raise ValueError(f"{what} is within {margin} of the period lattice")


# ---------------------------------------------------------------------------
# Classical building blocks
# ---------------------------------------------------------------------------

def _euler(q: complex) -> complex:
    """prod_(n >= 1) (1 - q^n) for |q| < 1."""
    n_cut = int(-41.5 / math.log(abs(q))) + 2  # |q|^n below e^-41.5 ~ 1e-18
    if n_cut > 2_000_000:
        raise ConvergenceError("euler product needs too many terms (Im tau tiny)")
    prod = 1.0 + 0j
    qn = q
    for _ in range(n_cut):
        prod *= 1.0 - qn
        qn *= q
    return prod


def eta_tau(tau: complex) -> complex:
    """Dedekind eta: e^(pi i tau / 12) prod (1 - q^n), q = e^(2 pi i tau)."""
    tau = _require_upper(tau)
    return cmath.exp(1j * math.pi * tau / 12.0) * _euler(cmath.exp(2j * math.pi * tau))


def theta_tau(v: complex, tau: complex) -> complex:
    """Jacobi theta as the half-integer lattice sum
    sum_{nu in 1/2 + Z} e^(pi i nu^2 tau + 2 pi i nu (v + 1/2))."""
    tau = _require_upper(tau)
    v = complex(v)
    lo, hi = _gaussian_window(tau.imag, center=-v.imag / tau.imag)
    acc = 0j
    for m in range(lo, hi + 1):
        nu = m + 0.5
        acc += cmath.exp(1j * math.pi * nu * nu * tau + 2j * math.pi * nu * (v + 0.5))
    return acc


def zwegers_a_t_tau(T: int, u: complex, v: complex, tau: complex,
                    margin: float = _LATTICE_MARGIN) -> complex:
    """The level-T Appell-Lerch sum
    e^(pi i T u) sum_n (-1)^(Tn) q^(Tn(n+1)/2) e^(2 pi i n v) / (1 - e^(2 pi i u) q^n);
    T = 1 is Zwegers' two-variable A(u, v; tau)."""
    if T < 1:
        raise ValueError("T must be a positive integer")
    tau = _require_upper(tau)
    u, v = complex(u), complex(v)
    _check_off_lattice(u, tau, margin, "u")
    q = cmath.exp(2j * math.pi * tau)
    eu = cmath.exp(2j * math.pi * u)
    span = abs(v.imag) / tau.imag + abs(u.imag) / tau.imag
    lo, hi = _gaussian_window(T * tau.imag)
    lo, hi = lo - int(span / T) - 1, hi + int(span / T) + 1
    acc = 0j
    for n in range(lo, hi + 1):
        acc += ((-1) ** (T * n)
                * cmath.exp(1j * math.pi * T * n * (n + 1) * tau + 2j * math.pi * n * v)
                / (1.0 - eu * q**n))
    return cmath.exp(1j * math.pi * u * T) * acc


def mu_tau(u: complex, v: complex, tau: complex,
           margin: float = _LATTICE_MARGIN) -> complex:
    """Zwegers' mu-function A(u, v; tau) / theta(v; tau)."""
    _check_off_lattice(complex(v), _require_upper(tau), margin, "v")
    th = theta_tau(v, tau)
    if abs(th) < 1e-13:
        raise ValueError("theta denominator below 1e-13; v too close to a zero")
    return zwegers_a_t_tau(1, u, v, tau, margin) / th


def _mu_tau_mp(u, v, tau, mp):
    """`mu_tau` in the precision of the mpmath context `mp`, both sums
    taken over windows that reach e^-80 of their largest term.  The
    lattice guards are the caller's."""
    u, v, tau = mp.mpc(u), mp.mpc(v), mp.mpc(tau)
    lo, hi = _gaussian_window(float(tau.imag), -float(v.imag / tau.imag), budget=80.0)
    theta_sum = mp.fsum(mp.expjpi((m + 0.5) ** 2 * tau + (2 * m + 1) * (v + 0.5))
                        for m in range(lo, hi + 1))
    span = int(float((abs(u.imag) + abs(v.imag)) / tau.imag)) + 1
    lo, hi = _gaussian_window(float(tau.imag), budget=80.0)
    q, eu = mp.expjpi(2 * tau), mp.expjpi(2 * u)
    a_sum = mp.fsum((-1) ** n * mp.expjpi(n * (n + 1) * tau + 2 * n * v) / (1 - eu * q**n)
                    for n in range(lo - span, hi + span + 1))
    return mp.expjpi(u) * a_sum / theta_sum


def r_tau(w: complex, tau: complex) -> complex:
    """Zwegers' non-holomorphic R-function
    sum_{nu in 1/2 + Z} (-1)^(nu - 1/2) (sgn(nu) - E(x_nu)) e^(-pi i nu^2 tau
    - 2 pi i nu w),  x_nu = (nu + Im w / Im tau) sqrt(2 Im tau).

    The complementary-error decay of sgn - E beats the e^(pi nu^2 Im tau)
    growth, leaving a Gaussian tail centered at nu = -Im w / Im tau; the
    window edge term is checked against 1e-14 times the running scale.

    sgn(nu) - E(x) is evaluated as sgn erfc(sgn sqrt(pi) x) rather than as
    a literal subtraction from +-1: the subtraction only has absolute
    precision, and the e^(pi nu^2 Im tau) growth of the other factor turns
    that into ~1e-10 relative noise in the sum.
    """
    tau = _require_upper(tau)
    w = complex(w)
    y = tau.imag
    a = w.imag / y
    root = math.sqrt(2.0 * y)
    lo, hi = _gaussian_window(y, center=-a)
    if hi - lo > 1_000_000:
        raise ConvergenceError("R-function window too large (Im tau tiny)")
    acc = 0j
    scale = 0.0
    for m in range(lo, hi + 1):
        nu = m + 0.5
        x = root * (nu + a)
        sgn = 1.0 if nu > 0 else -1.0
        frac = sgn * math.erfc(sgn * math.sqrt(math.pi) * x)
        term = ((-1) ** m * frac
                * cmath.exp(-1j * math.pi * nu * nu * tau - 2j * math.pi * nu * w))
        acc += term
        scale = max(scale, abs(term))
    edge = math.exp(-math.pi * y * ((hi + 0.5 + a) ** 2 + a * a))
    if edge > 1e-14 * max(scale, 1e-300):
        raise ConvergenceError("R-function window too small for tolerance")
    return acc


def mu_hat_tau(u: complex, v: complex, tau: complex,
               margin: float = _LATTICE_MARGIN) -> complex:
    """The completed mu-function mu + (i/2) R(u - v)."""
    return mu_tau(u, v, tau, margin) + 0.5j * r_tau(u - v, tau)


# ---------------------------------------------------------------------------
# Moment kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationPoint:
    """A point (u, z) with the modular data (h, k) of the evaluation cusp.

    Validates the usual conditions: Re z > 0, |z| < 1, h, k coprime with
    0 <= h < k.
    """

    u: complex
    z: complex
    h: int = 0
    k: int = 1

    def __post_init__(self):
        z = complex(self.z)
        if z.real <= 0:
            raise ValueError("Re z must be positive")
        if abs(z) >= 1:
            raise ValueError("|z| must be < 1 (usual conditions)")
        if self.k < 1 or not 0 <= self.h < self.k or gcd(self.h, self.k) != 1:
            raise ValueError("h, k must be coprime with 0 <= h < k")

    @property
    def tau(self) -> complex:
        return (self.h + 1j * complex(self.z)) / self.k


def c_kernel(T: int, t: int, point: EvaluationPoint) -> complex:
    """The t-th kernel -2i sin(pi u) q^(1/24) e^(2 pi i u t)
    A(Tu, t tau; T tau) / eta(tau) of the moment generating function.

    For t = 0 the value is also computed through the eta-quotient form
    -2 sin(pi u) q^(1/24) eta(T tau)^3 / (eta(tau) theta(Tu; T tau)) and
    the two must agree to 1e-10 before returning.
    """
    if T < 1 or T % 2 == 0:
        raise ValueError("T must be odd and positive")
    if abs(t) > (T - 1) // 2:
        raise ValueError("|t| must be at most (T-1)/2")
    tau = point.tau
    u = complex(point.u)
    q24 = cmath.exp(1j * math.pi * tau / 12.0)
    a_form = (-2j * cmath.sin(math.pi * u) * q24 / eta_tau(tau)
              * cmath.exp(2j * math.pi * u * t)
              * zwegers_a_t_tau(1, T * u, t * tau, T * tau))
    if t != 0:
        return a_form
    quotient_form = (-2.0 * cmath.sin(math.pi * u) * q24
                     * eta_tau(T * tau) ** 3
                     / (eta_tau(tau) * theta_tau(T * u, T * tau)))
    scale = max(abs(a_form), abs(quotient_form), 1e-300)
    if abs(a_form - quotient_form) > 1e-10 * scale:
        raise ArithmeticError(
            "t = 0 kernel dual forms disagree: "
            f"{a_form} vs {quotient_form}"
        )
    return a_form


# ---------------------------------------------------------------------------
# Transformation-law verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    case: str
    trials: int
    tolerance: float
    seed: int
    max_rel_err: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _rel_err(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


class DrawRejected(Exception):
    """A trial's random inputs fell too close to a lattice or a zero; the
    verifier redraws the trial from the same generator."""


def _draw(sample: Callable, accept: Callable, tries: int):
    """The first of up to `tries` calls of `sample()` that `accept` admits."""
    for _ in range(tries):
        value = sample()
        if accept(value):
            return value
    raise DrawRejected(f"no admissible draw in {tries} tries")


def _draw_modular(rng: random.Random, k_max: int = 6):
    k = rng.randint(1, k_max)
    h = rng.choice([x for x in range(k) if gcd(x, k) == 1]) if k > 1 else 0
    z = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
    return h, k, z


def _draw_odd_T(rng: random.Random, lo: int = 1, hi: int = 23) -> int:
    return rng.choice(range(lo, hi + 1, 2))


def _draw_u(rng: random.Random, tau: complex, margin: float = 0.05) -> complex:
    return _draw(lambda: complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)),
                 lambda u: abs(u) > 2 * margin and lattice_distance(u, tau) >= margin,
                 100)


def _trial_eta(rng):
    h, k, z = _draw_modular(rng)
    inv = neg_inverse(h, k)
    lhs = eta_tau((h + 1j * z) / k)
    rhs = cmath.sqrt(1j / z) * phase(chi_multiplier(h, k)) * eta_tau((inv + 1j / z) / k)
    return lhs, rhs, {"h": h, "k": k, "z": z}


def _trial_theta_elliptic(rng):
    z = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
    tau = 1j * z
    v = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.3, 0.3))
    n = rng.choice([-2, -1, 1, 2])
    th = theta_tau(v, tau)
    pairs = [
        (theta_tau(v + 1, tau), -th),
        (theta_tau(-v, tau), -th),
        (theta_tau(v + n * tau, tau),
         (-1) ** n * cmath.exp(math.pi * n * n * z - 2j * math.pi * n * v) * th),
    ]
    worst = max(pairs, key=lambda p: _rel_err(*p))
    return worst[0], worst[1], {"z": z, "v": v, "n": n}


def _trial_theta_modular(rng):
    h, k, z = _draw_modular(rng)
    inv = neg_inverse(h, k)
    v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
    lhs = theta_tau(v, (h + 1j * z) / k)
    rhs = (cmath.sqrt(1j / z) * phase(3 * chi_multiplier(h, k))
           * cmath.exp(-math.pi * k * v * v / z)
           * theta_tau(1j * v / z, (inv + 1j / z) / k))
    return lhs, rhs, {"h": h, "k": k, "z": z, "v": v}


def _trial_muhat_elliptic(rng):
    z = complex(rng.uniform(0.3, 0.9), rng.uniform(-0.3, 0.3))
    tau = 1j * z
    u, v = _draw(lambda: (complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2)),
                          complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2))),
                 lambda uv: (lattice_distance(uv[0], tau) >= 0.05
                             and lattice_distance(uv[1], tau) >= 0.05
                             and abs(theta_tau(uv[1], tau)) > 1e-6),
                 200)
    # one try: a rejected shift redraws the whole trial, z included
    m, n, mp_, np_ = _draw(lambda: [rng.choice([-1, 0, 1]) for _ in range(4)],
                           lambda s: (lattice_distance(u + s[0] * tau + s[1], tau) >= 0.04
                                      and lattice_distance(v + s[2] * tau + s[3], tau) >= 0.04),
                           1)
    lhs = mu_hat_tau(u + m * tau + n, v + mp_ * tau + np_, tau, margin=0.02)
    rhs = ((-1) ** (m + n + mp_ + np_)
           * cmath.exp(-math.pi * z * (m - mp_) ** 2 + 2j * math.pi * (m - mp_) * (u - v))
           * mu_hat_tau(u, v, tau, margin=0.02))
    return lhs, rhs, {"z": z, "u": u, "v": v, "shifts": [m, n, mp_, np_]}


def _trial_muhat_modular(rng):
    h, k, z = _draw_modular(rng, k_max=4)
    inv = neg_inverse(h, k)
    tau_lhs = (h + 1j * z) / k
    tau_rhs = (inv + 1j / z) / k
    u, v = _draw(
        lambda: (complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15)),
                 complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15))),
        lambda uv: all(lattice_distance(-1j * x * z, tau_lhs) >= 0.03
                       and lattice_distance(x, tau_rhs) >= 0.03 for x in uv),
        200)
    lhs = mu_hat_tau(-1j * u * z, -1j * v * z, tau_lhs, margin=0.02)
    rhs = (phase(-3 * chi_multiplier(h, k)) * cmath.sqrt(1j / z)
           * cmath.exp(-math.pi * k * z * (u - v) ** 2)
           * mu_hat_tau(u, v, tau_rhs, margin=0.02))
    return lhs, rhs, {"h": h, "k": k, "z": z, "u": u, "v": v}


def _trial_r_props(rng):
    z = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
    tau = 1j * z
    w = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
    which = rng.choice(["shift", "tau_shift"])
    if which == "shift":
        lhs = r_tau(w + 1, tau)
        rhs = -r_tau(w, tau)
    else:
        lhs = r_tau(w, tau + 1)
        rhs = cmath.exp(-1j * math.pi / 4.0) * r_tau(w, tau)
    return lhs, rhs, {"z": z, "w": w, "law": which}


def _trial_r_dissection(rng):
    z = complex(rng.uniform(0.3, 0.9), rng.uniform(-0.3, 0.3))
    tau = 1j * z
    n = rng.choice([2, 3])
    w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
    lhs = r_tau(w, tau / n)
    rhs = 0j
    for l in range(n):
        c = l - (n - 1) / 2.0
        rhs += (cmath.exp(math.pi / n * c * c * z)
                * cmath.exp(-2j * math.pi * c * (w + 0.5))
                * r_tau(n * w + c * tau + (n - 1) / 2.0, n * tau))
    return lhs, rhs, {"z": z, "w": w, "n": n}


def _trial_at_decomposition(rng):
    z = complex(rng.uniform(0.25, 0.9), rng.uniform(-0.3, 0.3))
    tau = 1j * z
    T = rng.choice([1, 3, 5, 7])
    u = _draw_u(rng, tau)
    if lattice_distance(T * u, T * tau) < 0.03:
        raise DrawRejected("T u is within 0.03 of the lattice of T tau")
    v = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
    lhs = zwegers_a_t_tau(T, u, v, tau)
    rhs = sum(
        cmath.exp(2j * math.pi * u * t)
        * zwegers_a_t_tau(1, T * u, v + t * tau + (T - 1) / 2.0, T * tau, margin=1e-9)
        for t in range(T)
    )
    # Lemma part (b) through Zwegers' symmetry mu(u, v) = mu(v, u), which
    # sets A_1 at one point against A_1 at the swapped point; report
    # whichever of the two identities came out worse.
    if lattice_distance(v, tau) > 0.03:
        mu_uv = mu_tau(u, v, tau, margin=0.02)
        mu_vu = mu_tau(v, u, tau, margin=0.02)
        if _rel_err(mu_uv, mu_vu) > _rel_err(lhs, rhs):
            return mu_uv, mu_vu, {"z": z, "T": T, "u": u, "v": v, "part": "b"}
    return lhs, rhs, {"z": z, "T": T, "u": u, "v": v, "part": "a"}


def _trial_prop_4_1(rng):
    h, k, z = _draw_modular(rng)
    T = _draw_odd_T(rng, 1, 9)
    g = gcd(T, k)
    gco = T // g
    inv2 = neg_inverse(gco * h, k // g)
    tau = (h + 1j * z) / k
    u = _draw_u(rng, tau)
    point = EvaluationPoint(u=u, z=z, h=h, k=k)
    lhs = c_kernel(T, 0, point)
    tau3 = (T / (gco * k)) * (inv2 + 1j / (gco * z))
    rhs = (-2.0 / gco * cmath.sqrt(1j / z)
           * cmath.sin(math.pi * u) * cmath.exp(math.pi * k * T * u * u / z)
           * cmath.exp(1j * math.pi * (h + 1j * z) / (12.0 * k))
           / (phase(chi_multiplier(h, k)) * eta_tau((neg_inverse(h, k) + 1j / z) / k))
           * eta_tau(tau3) ** 3
           / theta_tau(1j * u * T / (gco * z), tau3))
    return lhs, rhs, {"h": h, "k": k, "z": z, "T": T, "u": u}


def _trial_prop_4_2(rng):
    h, k, z = _draw_modular(rng)
    T = _draw_odd_T(rng, 3, 13)
    half = (T - 1) // 2
    t = rng.choice([x for x in range(-half, half + 1) if x != 0])
    g = gcd(T, k)
    gco = T // g
    kg = k // g
    inv2 = neg_inverse(gco * h, kg)
    rho = rho_residue(T, t * gco * h)
    tau = (h + 1j * z) / k
    u = _draw_u(rng, tau, margin=0.04)
    point = EvaluationPoint(u=u, z=z, h=h, k=k)
    lhs = c_kernel(T, t, point)

    pre = (-2j * cmath.sin(math.pi * u)
           * cmath.exp(1j * math.pi * (h + 1j * z) / (12.0 * k))
           / eta_tau(tau)
           * theta_tau(t * tau, T * tau)
           * cmath.sqrt(1j / (gco * z))
           * cmath.exp(math.pi * k / (T * z) * (T * u - rho / (gco * k)) ** 2
                       - t * t * math.pi * z / (T * k)))
    tau_mu = (g / k) * (inv2 + 1j / (gco * z))
    v_mu = (rho / (gco * k)) * (inv2 + 1j / (gco * z)) - t / (gco * k) * (1 + gco * h * inv2)
    unit = u_mu(T, t, gco * h, kg)
    u_mu_arg = 1j * u * T / (gco * z)
    mu_term = phase(unit) * mu_tau(u_mu_arg, v_mu, tau_mu, margin=1e-9)
    w_0 = u_mu_arg - rho * 1j / (gco * gco * k * z)
    z_h = -1j * T / (gco * gco * k * z)
    h_sum = 0j
    for l in range(kg):
        h_sum += (phase(u_h(T, t, l, gco * h, kg))
                  * mordell_h(w_0 - float(alpha_shift(T, t, l, kg)), z_h))
    h_part = 0.5j / math.sqrt(kg) * h_sum
    total = mu_term + h_part
    if abs(mu_term) > 1e6 * abs(total):
        # The halves cancel by more than 1e6, which amplifies mu's
        # double-precision error (up to 2e-15) past 1e-10 in the sum.  Take
        # the mu half and the sum in 32 digits, at the (u, z) whose Mordell
        # arguments are exactly the doubles w_0 and z_h: the rounding of
        # those then moves both halves alike and cancels with them.  H stays
        # in double.
        import mpmath

        mp = mpmath.MPContext()  # its own precision, leaving mpmath.mp alone
        mp.dps = 32
        i_over = -gco * k * mp.mpc(z_h) / T  # i / (gco z)
        tau_mp = mp.mpf(g) / k * (inv2 + i_over)
        v_mp = (mp.mpf(rho) / (gco * k) * (inv2 + i_over)
                - mp.mpf(t) / (gco * k) * (1 + gco * h * inv2))
        u_mp = mp.mpc(w_0) - rho * mp.mpc(z_h) / T
        angle = mp.mpf(unit.numerator) / unit.denominator
        total = complex(mp.expjpi(angle) * _mu_tau_mp(u_mp, v_mp, tau_mp, mp)
                        + h_part)
    rhs = pre * total
    return lhs, rhs, {"h": h, "k": k, "z": z, "T": T, "t": t, "u": u}


def _trial_r_composite(rng):
    z = complex(rng.uniform(0.25, 0.9), rng.uniform(-0.35, 0.35))
    w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
    lhs = r_tau(w, 1j * z)
    # R' and H' largely cancel and the prefactor amplifies; mordell_h's
    # 1e-12 leaves headroom below the comparison tolerance
    rhs = (-1.0 / cmath.sqrt(z) * cmath.exp(math.pi * w * w / z)
           * (r_tau(1j * w / z, 1j / z) - mordell_h(1j * w / z, -1j / z)))
    return lhs, rhs, {"z": z, "w": w}


def _trial_muhat_composite(rng):
    h, k, z = _draw_modular(rng, k_max=4)
    T = _draw_odd_T(rng, 3, 11)
    half = (T - 1) // 2
    t = rng.choice([x for x in range(-half, half + 1) if x != 0])
    inv = neg_inverse(h, k)
    rho = rho_residue(T, t * h)
    tau_lhs = (h + 1j * z) / k
    tau_rhs = (inv + 1j / z) / k
    v_lhs = (t / (T * k)) * (h + 1j * z)
    v_rhs = (rho / (T * k)) * (inv + 1j / z) - t / (T * k) * (1 + h * inv)
    if lattice_distance(v_lhs, tau_lhs) < 0.02 or lattice_distance(v_rhs, tau_rhs) < 0.02:
        raise DrawRejected("v is within 0.02 of its period lattice")
    u = _draw(lambda: complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.15, 0.15)),
              lambda u: (lattice_distance(u, tau_lhs) >= 0.03
                         and lattice_distance(1j * u / z, tau_rhs) >= 0.03),
              200)
    lhs = mu_hat_tau(u, v_lhs, tau_lhs, margin=0.01)
    rhs = (cmath.sqrt(1j / z)
           * cmath.exp(math.pi * k / z * (u - rho / (T * k)) ** 2
                       - t * t * math.pi * z / (T * T * k)
                       - 2j * math.pi * u * t / T)
           * phase(u_mu(T, t, h, k))
           * mu_hat_tau(1j * u / z, v_rhs, tau_rhs, margin=0.01))
    return lhs, rhs, {"h": h, "k": k, "z": z, "T": T, "t": t, "u": u}


_TRIALS: dict[str, Callable] = {
    "eta": _trial_eta,
    "theta_elliptic": _trial_theta_elliptic,
    "theta_modular": _trial_theta_modular,
    "muhat_elliptic": _trial_muhat_elliptic,
    "muhat_modular": _trial_muhat_modular,
    "R_props": _trial_r_props,
    "R_dissection": _trial_r_dissection,
    "AT_decomposition": _trial_at_decomposition,
    "prop_4_1": _trial_prop_4_1,
    "prop_4_2": _trial_prop_4_2,
    "R_composite": _trial_r_composite,
    "muhat_composite": _trial_muhat_composite,
}

VERIFICATION_CASES = tuple(_TRIALS)
# the default per-case tolerance on the maximum relative error
TOLERANCES = {case: 1e-7 if case == "prop_4_2" else 1e-8 for case in VERIFICATION_CASES}


def verify_transformation(case: str, trials: int = 20, tolerance: float | None = None,
                          seed: int = 0) -> VerificationReport:
    """Run seeded randomized trials of one transformation law, in index
    order, against `tolerance` (default `TOLERANCES[case]`).

    Each trial draws its own `random.Random(f"{case}|{seed}|{index}")`, so
    reports are bit-identical across runs for fixed arguments.
    """
    if case not in _TRIALS:
        raise ValueError(f"unknown case {case!r}; choose from {VERIFICATION_CASES}")
    fn = _TRIALS[case]
    tolerance = TOLERANCES[case] if tolerance is None else tolerance

    def run_one(i: int):
        rng = random.Random(f"{case}|{seed}|{i}")
        for _ in range(20):
            try:
                return fn(rng)
            except DrawRejected:
                continue
        raise RuntimeError(f"case {case}: trial {i} could not draw valid inputs")

    report = VerificationReport(case=case, trials=trials, tolerance=tolerance,
                                seed=seed, max_rel_err=0.0)
    for i in range(trials):
        lhs, rhs, inputs = run_one(i)
        err = _rel_err(lhs, rhs)
        report.max_rel_err = max(report.max_rel_err, err)
        if err > tolerance:
            report.failures.append({"trial": i, "inputs": inputs, "lhs": complex(lhs),
                                    "rhs": complex(rhs), "rel_err": err})
    return report
