"""Numerical eta, theta, and Appell-Lerch evaluators plus a randomized
verifier for their transformation laws.

Conventions.  Internally everything is written in terms of a point tau in
the upper half-plane with q = e^(2 pi i tau); the classical real-part
convention (arguments `z` with Re z > 0, tau = iz) is provided by thin
wrappers, and the modular-transformation call sites use
tau = (h + iz)/k.  Series are bilateral and truncated by explicit Gaussian
tail windows; every truncation has a computable tail bound and raises
`ConvergenceError` instead of silently returning a bad value.

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
    inverse_mod,
    mod_inverse_pair,
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


def _gaussian_window(im_tau: float, center: float = 0.0) -> tuple[int, int]:
    w = math.sqrt(55.0 / (math.pi * im_tau)) + 2.0
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

def eta_tau(tau: complex) -> complex:
    """Dedekind eta: e^(pi i tau / 12) prod (1 - q^n), q = e^(2 pi i tau)."""
    tau = _require_upper(tau)
    q = cmath.exp(2j * math.pi * tau)
    n_cut = int(-41.5 / math.log(abs(q))) + 2  # |q|^n below e^-41.5 ~ 1e-18
    if n_cut > 2_000_000:
        raise ConvergenceError("eta series needs too many terms (Im tau tiny)")
    prod = 1.0 + 0j
    qn = q
    for _ in range(n_cut):
        prod *= 1.0 - qn
        qn *= q
    return cmath.exp(1j * math.pi * tau / 12.0) * prod


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


def theta_product_tau(v: complex, tau: complex) -> complex:
    """The triple-product form of `theta_tau`, for cross-checking."""
    tau = _require_upper(tau)
    q = cmath.exp(2j * math.pi * tau)
    w = cmath.exp(2j * math.pi * v)
    n_cut = max(int((-41.5 - 2.0 * math.pi * abs(v.imag)) / math.log(abs(q))) + 3, 4)
    if n_cut > 2_000_000:
        raise ConvergenceError("theta product needs too many terms")
    prod = 1.0 + 0j
    for n in range(1, n_cut + 1):
        prod *= (1.0 - q**n) * (1.0 - w * q ** (n - 1)) * (1.0 - q**n / w)
    return -1j * cmath.exp(1j * math.pi * tau / 4.0) * cmath.exp(-1j * math.pi * v) * prod


def zwegers_a_tau(u: complex, v: complex, tau: complex,
                  margin: float = _LATTICE_MARGIN) -> complex:
    """The two-variable Appell-Lerch sum
    e^(pi i u) sum_n (-1)^n q^(n(n+1)/2) e^(2 pi i n v) / (1 - e^(2 pi i u) q^n),
    the level-1 case of `zwegers_a_t_tau`."""
    return zwegers_a_t_tau(1, u, v, tau, margin)


def zwegers_a_t_tau(T: int, u: complex, v: complex, tau: complex,
                    margin: float = _LATTICE_MARGIN) -> complex:
    """The level-T Appell-Lerch sum
    e^(pi i T u) sum_n (-1)^(Tn) q^(Tn(n+1)/2) e^(2 pi i n v) / (1 - e^(2 pi i u) q^n)."""
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
    return zwegers_a_tau(u, v, tau, margin) / th


def r_tau(w: complex, tau: complex, tol: float = 1e-14) -> complex:
    """Zwegers' non-holomorphic R-function
    sum_{nu in 1/2 + Z} (-1)^(nu - 1/2) (sgn(nu) - E(x_nu)) e^(-pi i nu^2 tau
    - 2 pi i nu w),  x_nu = (nu + Im w / Im tau) sqrt(2 Im tau).

    The complementary-error decay of sgn - E beats the e^(pi nu^2 Im tau)
    growth, leaving a Gaussian tail centered at nu = -Im w / Im tau; the
    window edge term is checked against `tol` times the running scale.

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
    if edge > tol * max(scale, 1e-300):
        raise ConvergenceError("R-function window too small for tolerance")
    return acc


def mu_hat_tau(u: complex, v: complex, tau: complex,
               margin: float = _LATTICE_MARGIN) -> complex:
    """The completed mu-function mu + (i/2) R(u - v)."""
    return mu_tau(u, v, tau, margin) + 0.5j * r_tau(u - v, tau)


# -- wrappers in the Re z > 0 convention ------------------------------------

def eta(z: complex) -> complex:
    """eta(iz) for Re z > 0."""
    return eta_tau(1j * complex(z))


def theta(v: complex, z: complex) -> complex:
    """theta(v; iz) for Re z > 0."""
    return theta_tau(v, 1j * complex(z))


def zwegers_a(u: complex, v: complex, z: complex) -> complex:
    """A(u, v; iz) for Re z > 0."""
    return zwegers_a_tau(u, v, 1j * complex(z))


def zwegers_a_t(T: int, u: complex, v: complex, z: complex) -> complex:
    """A_T(u, v; iz) for Re z > 0."""
    return zwegers_a_t_tau(T, u, v, 1j * complex(z))


def mu(u: complex, v: complex, z: complex) -> complex:
    """mu(u, v; iz) for Re z > 0."""
    return mu_tau(u, v, 1j * complex(z))


def r_function(w: complex, z: complex) -> complex:
    """R(w; iz) for Re z > 0."""
    return r_tau(w, 1j * complex(z))


def mu_hat(u: complex, v: complex, z: complex) -> complex:
    """mu-hat(u, v; iz) for Re z > 0."""
    return mu_hat_tau(u, v, 1j * complex(z))


# ---------------------------------------------------------------------------
# Moment kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationPoint:
    """A point (u, z) with the modular data (h, k) of the evaluation cusp.

    Validates the usual conditions: Re z > 0, |z| < 1, h, k coprime with
    0 <= h < k; `require_strong` additionally demands Re(1/z) >= k/2.
    """

    u: complex
    z: complex
    h: int = 0
    k: int = 1
    require_strong: bool = False

    def __post_init__(self):
        z = complex(self.z)
        if z.real <= 0:
            raise ValueError("Re z must be positive")
        if abs(z) >= 1:
            raise ValueError("|z| must be < 1 (usual conditions)")
        if self.k < 1 or not 0 <= self.h < self.k or gcd(self.h, self.k) != 1:
            raise ValueError("h, k must be coprime with 0 <= h < k")
        if self.require_strong and (1.0 / z).real < self.k / 2.0:
            raise ValueError("Re(1/z) >= k/2 required for this evaluation")

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
              * zwegers_a_tau(T * u, t * tau, T * tau))
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


def m_kernel(T: int, u: complex, tau: complex, method: str = "direct") -> complex:
    """The two-variable moment generating kernel.

    method="direct" sums (1 - e^(2 pi i u))/(q)_inf *
    sum_n (-1)^n q^(n(Tn+1)/2) / (1 - e^(2 pi i u) q^n); "appell" routes
    through the level-T Appell-Lerch sum; "kernels" sums the t-kernels.
    All three agree wherever they converge.
    """
    if T < 1 or T % 2 == 0:
        raise ValueError("T must be odd and positive")
    tau = _require_upper(tau)
    u = complex(u)
    if method == "appell":
        q24 = cmath.exp(1j * math.pi * tau / 12.0)
        return ((1.0 - cmath.exp(2j * math.pi * u)) * q24
                * cmath.exp(-1j * math.pi * u * T)
                * zwegers_a_t_tau(T, u, -(T - 1) / 2.0 * tau, tau)
                / eta_tau(tau))
    if method == "kernels":
        half = (T - 1) // 2
        point = _point_from_tau(u, tau)
        return sum(c_kernel(T, t, point) for t in range(-half, half + 1))
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    _check_off_lattice(u, tau, _LATTICE_MARGIN, "u")
    q = cmath.exp(2j * math.pi * tau)
    eu = cmath.exp(2j * math.pi * u)
    n_cut = int(-41.5 / math.log(abs(q))) + 2
    if n_cut > 2_000_000:
        raise ConvergenceError("euler product needs too many terms")
    euler = 1.0 + 0j
    qn = q
    for _ in range(n_cut):
        euler *= 1.0 - qn
        qn *= q
    span = abs(u.imag) / tau.imag
    lo, hi = _gaussian_window(T * tau.imag)
    lo, hi = lo - int(span / T) - 1, hi + int(span / T) + 1
    acc = 0j
    for n in range(lo, hi + 1):
        acc += ((-1) ** n * cmath.exp(1j * math.pi * n * (T * n + 1) * tau)
                / (1.0 - eu * q**n))
    return (1.0 - eu) * acc / euler


def _point_from_tau(u: complex, tau: complex) -> EvaluationPoint:
    # recover a (h=0, k=1)-style point when tau = iz
    z = tau / 1j
    return EvaluationPoint(u=u, z=z)


def taylor_moments(T: int, r_max: int, point: EvaluationPoint,
                   radius: float) -> list[complex]:
    """Coefficients of (2 pi i u)^r / r! of the moment kernel at u = 0.

    Cauchy-integral extraction on the circle |u| = radius with sample
    doubling; for r >= 1 the r-th coefficient is the r-th moment
    generating function at q = e^(2 pi i tau) and is cross-checkable
    against the exact engine.
    """
    if r_max < 0 or r_max > 12:
        raise ValueError("r_max must be between 0 and 12")
    tau = point.tau
    if radius <= 0 or radius > 0.45:
        raise ValueError("radius must lie in (0, 0.45]")
    n = max(128, 8 * (r_max + 1))
    prev = None
    for _ in range(4):
        vals = [
            m_kernel(T, radius * cmath.exp(2j * math.pi * j / n), tau)
            for j in range(n)
        ]
        coeffs = []
        for r in range(r_max + 1):
            s = sum(vals[j] * cmath.exp(-2j * math.pi * j * r / n) for j in range(n))
            coeffs.append(s / (n * radius**r) * math.factorial(r) / (2j * math.pi) ** r)
        if prev is not None:
            scale = max(max(abs(c) for c in coeffs), 1e-300)
            if all(abs(a - b) <= 1e-9 * scale for a, b in zip(coeffs, prev)):
                return coeffs
        prev = coeffs
        n *= 2
    raise ConvergenceError("taylor_moments extraction did not stabilize")


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

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "max_rel_err": self.max_rel_err,
            "passed": self.passed,
            "failures": self.failures,
        }


def _rel_err(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _draw_modular(rng: random.Random, k_max: int = 6):
    k = rng.randint(1, k_max)
    h = rng.choice([x for x in range(k) if gcd(x, k) == 1]) if k > 1 else 0
    z = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.4, 0.4))
    return h, k, z


def _draw_odd_T(rng: random.Random, lo: int = 1, hi: int = 23) -> int:
    return rng.choice(range(lo, hi + 1, 2))


def _draw_u(rng: random.Random, tau: complex, margin: float = 0.05) -> complex:
    for _ in range(100):
        u = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        if abs(u) > 2 * margin and lattice_distance(u, tau) >= margin:
            return u
    raise RuntimeError("could not draw a lattice-safe u")


def _sqrt_i_over(z: complex) -> complex:
    return cmath.sqrt(1j / z)


def _trial_eta(rng):
    h, k, z = _draw_modular(rng)
    inv = mod_inverse_pair(h, k)[0]
    lhs = eta_tau((h + 1j * z) / k)
    rhs = _sqrt_i_over(z) * chi_multiplier(h, k).to_complex() * eta_tau((inv + 1j / z) / k)
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
    inv = mod_inverse_pair(h, k)[0]
    v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
    lhs = theta_tau(v, (h + 1j * z) / k)
    rhs = (_sqrt_i_over(z) * (chi_multiplier(h, k) ** 3).to_complex()
           * cmath.exp(-math.pi * k * v * v / z)
           * theta_tau(1j * v / z, (inv + 1j / z) / k))
    return lhs, rhs, {"h": h, "k": k, "z": z, "v": v}


def _draw_mu_args(rng, tau, margin=0.05):
    for _ in range(200):
        u = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2))
        v = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2))
        if (lattice_distance(u, tau) >= margin and lattice_distance(v, tau) >= margin
                and abs(theta_tau(v, tau)) > 1e-6):
            return u, v
    raise RuntimeError("could not draw lattice-safe (u, v)")


def _trial_muhat_elliptic(rng):
    z = complex(rng.uniform(0.3, 0.9), rng.uniform(-0.3, 0.3))
    tau = 1j * z
    u, v = _draw_mu_args(rng, tau)
    m, n, mp_, np_ = (rng.choice([-1, 0, 1]) for _ in range(4))
    if lattice_distance(u + m * tau + n, tau) < 0.04 or \
       lattice_distance(v + mp_ * tau + np_, tau) < 0.04:
        return _trial_muhat_elliptic(rng)
    lhs = mu_hat_tau(u + m * tau + n, v + mp_ * tau + np_, tau, margin=0.02)
    rhs = ((-1) ** (m + n + mp_ + np_)
           * cmath.exp(-math.pi * z * (m - mp_) ** 2 + 2j * math.pi * (m - mp_) * (u - v))
           * mu_hat_tau(u, v, tau, margin=0.02))
    return lhs, rhs, {"z": z, "u": u, "v": v, "shifts": [m, n, mp_, np_]}


def _trial_muhat_modular(rng):
    h, k, z = _draw_modular(rng, k_max=4)
    inv = mod_inverse_pair(h, k)[0]
    tau_lhs = (h + 1j * z) / k
    tau_rhs = (inv + 1j / z) / k
    for _ in range(200):
        u = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15))
        v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15))
        if (lattice_distance(-1j * u * z, tau_lhs) >= 0.03
                and lattice_distance(-1j * v * z, tau_lhs) >= 0.03
                and lattice_distance(u, tau_rhs) >= 0.03
                and lattice_distance(v, tau_rhs) >= 0.03):
            break
    else:
        raise RuntimeError("could not draw arguments for muhat_modular")
    lhs = mu_hat_tau(-1j * u * z, -1j * v * z, tau_lhs, margin=0.02)
    rhs = ((chi_multiplier(h, k) ** -3).to_complex() * _sqrt_i_over(z)
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
    for _ in range(50):
        v = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        if lattice_distance(T * u, T * tau) >= 0.03:
            break
    lhs = zwegers_a_t_tau(T, u, v, tau)
    rhs = sum(
        cmath.exp(2j * math.pi * u * t)
        * zwegers_a_tau(T * u, v + t * tau + (T - 1) / 2.0, T * tau, margin=1e-9)
        for t in range(T)
    )
    # Lemma part (b): A_1 = theta * mu at the same point; report whichever
    # of the two identities came out worse.
    th = theta_tau(v, tau)
    if abs(th) > 1e-6 and lattice_distance(v, tau) > 0.03:
        a1 = zwegers_a_tau(u, v, tau)
        product = th * mu_tau(u, v, tau, margin=0.02)
        if _rel_err(a1, product) > _rel_err(lhs, rhs):
            return a1, product, {"z": z, "T": T, "u": u, "v": v, "part": "b"}
    return lhs, rhs, {"z": z, "T": T, "u": u, "v": v, "part": "a"}


def _trial_prop_4_1(rng):
    h, k, z = _draw_modular(rng)
    T = _draw_odd_T(rng, 1, 9)
    g = gcd(T, k)
    gco = T // g
    inv2 = inverse_mod(-gco * h, k // g)
    tau = (h + 1j * z) / k
    u = _draw_u(rng, tau)
    point = EvaluationPoint(u=u, z=z, h=h, k=k)
    lhs = c_kernel(T, 0, point)
    tau3 = (T / (gco * k)) * (inv2 + 1j / (gco * z))
    rhs = (-2.0 / gco * _sqrt_i_over(z)
           * cmath.sin(math.pi * u) * cmath.exp(math.pi * k * T * u * u / z)
           * cmath.exp(1j * math.pi * (h + 1j * z) / (12.0 * k))
           / (chi_multiplier(h, k).to_complex() * eta_tau((mod_inverse_pair(h, k)[0] + 1j / z) / k))
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
    inv2 = inverse_mod(-gco * h, kg)
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
    mu_term = (u_mu(T, t, gco * h, kg).to_complex()
               * mu_tau(1j * u * T / (gco * z), v_mu, tau_mu, margin=1e-9))
    h_sum = 0j
    for l in range(kg):
        w_l = (1j * u * T / (gco * z) - rho * 1j / (gco * gco * k * z)
               - float(alpha_shift(T, t, l, kg)))
        h_sum += (u_h(T, t, l, gco * h, kg).to_complex()
                  * mordell_h(w_l, -1j * T / (gco * gco * k * z), tol=1e-12))
    rhs = pre * (mu_term + 0.5j / math.sqrt(kg) * h_sum)
    return lhs, rhs, {"h": h, "k": k, "z": z, "T": T, "t": t, "u": u}


def _trial_r_composite(rng):
    z = complex(rng.uniform(0.25, 0.9), rng.uniform(-0.35, 0.35))
    w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
    lhs = r_tau(w, 1j * z)
    # R' and H' largely cancel and the prefactor amplifies; the quadrature
    # needs headroom below the comparison tolerance
    rhs = (-1.0 / cmath.sqrt(z) * cmath.exp(math.pi * w * w / z)
           * (r_tau(1j * w / z, 1j / z) - mordell_h(1j * w / z, -1j / z, tol=1e-12)))
    return lhs, rhs, {"z": z, "w": w}


def _trial_muhat_composite(rng):
    h, k, z = _draw_modular(rng, k_max=4)
    T = _draw_odd_T(rng, 3, 11)
    half = (T - 1) // 2
    t = rng.choice([x for x in range(-half, half + 1) if x != 0])
    inv = mod_inverse_pair(h, k)[0]
    rho = rho_residue(T, t * h)
    tau_lhs = (h + 1j * z) / k
    tau_rhs = (inv + 1j / z) / k
    v_lhs = (t / (T * k)) * (h + 1j * z)
    v_rhs = (rho / (T * k)) * (inv + 1j / z) - t / (T * k) * (1 + h * inv)
    for _ in range(200):
        u = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.15, 0.15))
        if (lattice_distance(u, tau_lhs) >= 0.03
                and lattice_distance(v_lhs, tau_lhs) >= 0.02
                and lattice_distance(1j * u / z, tau_rhs) >= 0.03
                and lattice_distance(v_rhs, tau_rhs) >= 0.02):
            break
    else:
        raise RuntimeError("could not draw arguments for muhat_composite")
    lhs = mu_hat_tau(u, v_lhs, tau_lhs, margin=0.01)
    rhs = (_sqrt_i_over(z)
           * cmath.exp(math.pi * k / z * (u - rho / (T * k)) ** 2
                       - t * t * math.pi * z / (T * T * k)
                       - 2j * math.pi * u * t / T)
           * u_mu(T, t, h, k).to_complex()
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


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def verify_transformation(case: str, trials: int = 20, tolerance: float = 1e-8,
                          seed: int = 0, threads: int = 1) -> VerificationReport:
    """Run seeded randomized trials of one transformation law.

    Each trial draws its own `random.Random(f"{case}|{seed}|{index}")`, so
    reports are bit-identical across runs for fixed arguments; `threads`
    caps a worker pool (trial order in the report is always by index).
    """
    if case not in _TRIALS:
        raise ValueError(f"unknown case {case!r}; choose from {VERIFICATION_CASES}")
    fn = _TRIALS[case]

    def run_one(i: int):
        rng = random.Random(f"{case}|{seed}|{i}")
        for _ in range(20):
            try:
                return fn(rng)
            except (ValueError, RuntimeError):
                continue  # redraw on unlucky lattice-adjacent samples
        raise RuntimeError(f"case {case}: trial {i} could not draw valid inputs")

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, range(trials)))
    else:
        outcomes = [run_one(i) for i in range(trials)]

    report = VerificationReport(case=case, trials=trials, tolerance=tolerance,
                                seed=seed, max_rel_err=0.0)
    for i, (lhs, rhs, inputs) in enumerate(outcomes):
        err = _rel_err(lhs, rhs)
        report.max_rel_err = max(report.max_rel_err, err)
        if err > tolerance:
            report.failures.append({
                "trial": i,
                "inputs": {k: _jsonable(v) for k, v in inputs.items()},
                "lhs": _jsonable(complex(lhs)),
                "rhs": _jsonable(complex(rhs)),
                "rel_err": err,
            })
    return report
