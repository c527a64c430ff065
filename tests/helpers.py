"""Oracles shared across test modules.

Everything here is deliberately naive and independent of the package's
series engine: direct partition enumeration (`spt_oracle`,
`garvan_k_rank_counts`), literal formula evaluation (`selberg_a_mp`, and
`selberg_a` in double precision), the two-variable moment kernel with
Taylor coefficients by a Cauchy integral (`moment_kernel`,
`taylor_moments`, `taylor_identity_check`), which the package itself
does not need, and the Mordell part's terms as a scalar loop
(`mordell_terms`).
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_right
from fractions import Fraction
from math import gcd

import mpmath as mp
import numpy as np

from trank.asymptotics import positivity_gate
from trank.errors import ConvergenceError
from trank.mockforms import eta_tau, zwegers_a_t_tau
from trank.specfun import (bessel_i, bessel_integrals, kappa, kappa_h, kappa_h_support,
                           kappa_support)
from trank.units import alpha_shift, kloosterman_partials, kloosterman_sum


def partitions(n: int):
    """Yield every partition of n as an ascending list, in lexicographic
    order (Kelleher's loop; a[:k] is the stack of parts).  n = 0 gives the
    one list [0]."""
    a = [0] * (n + 1)
    k, y = 1, n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        el = k + 1
        while x <= y:
            a[k], a[el] = x, y
            yield a[:k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[:k + 1]


def partition_count(n: int) -> int:
    return sum(1 for _ in partitions(n))


def partition_counts_with_parts(n_max: int, allowed) -> list[int]:
    """The number of partitions of n into parts for which `allowed(part)`
    holds, for n = 0..n_max, by the coin-change recurrence: one pass per
    allowed part size, shared with nothing in the series engine."""
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        if allowed(part):
            for n in range(part, n_max + 1):
                counts[n] += counts[n - part]
    return counts


def rank_counts(n: int) -> dict[int, int]:
    """Dyson rank (largest part minus number of parts) counts for n >= 1."""
    counts: dict[int, int] = {}
    for p in partitions(n):
        r = p[-1] - len(p)
        counts[r] = counts.get(r, 0) + 1
    return counts


def garvan_k_rank_counts(T: int, n: int) -> dict[int, int]:
    """{m: N_T(m, n)} for odd T >= 3 from Garvan's k-rank, k = (T + 1)/2
    (Garvan, "Generalizations of Dyson's rank and non-Rogers-Ramanujan
    partitions", Manuscripta Math. 84, 1994), by enumeration.

    n_1 is the Durfee square of a partition, n_2 that of the parts below
    it, and so on.  Only partitions with at least k - 1 successive Durfee
    squares count; their k-rank is the number of columns to the right of
    the first square of length at most n_(k-1), minus the number of parts
    below the (k-1)-th square.  At k = 2 this is Dyson's rank."""
    squares_needed = (T - 1) // 2
    counts: dict[int, int] = {}
    for p in partitions(n):
        parts = p[::-1]
        squares, rest = [], parts
        while len(squares) < squares_needed:
            d = sum(1 for i, x in enumerate(rest) if x > i)
            if not d:
                break
            squares.append(d)
            rest = rest[d:]
        if len(squares) < squares_needed:
            continue
        columns = sum(1 for j in range(squares[0] + 1, parts[0] + 1)
                      if sum(1 for x in parts if x >= j) <= squares[-1])
        m = columns - (len(parts) - sum(squares))
        counts[m] = counts.get(m, 0) + 1
    return counts


def spt_oracle(n: int) -> int:
    """spt(n) for n >= 1 by brute force: the number of smallest parts,
    summed over every partition of n.  Nothing is shared with the series
    engine.  The partitions are those of `partitions`, counted in place:
    each one is the stack a[:k] plus a tail [x, y] or [x + y], so the
    smallest parts are the copies of a[0] in the stack, found by bisection
    as the stack ascends, and the tail's parts equal to it."""
    a = [0] * (n + 1)
    k, y = 1, n - 1
    total = 0
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        if k:
            s = a[0]
            lead = bisect_right(a, s, 0, k)
            tied = lead == k
            while x <= y:
                total += lead + (tied and x == s) + (tied and y == s)
                x += 1
                y -= 1
            total += lead + (tied and x + y == s)
        else:
            while x <= y:
                total += 1 + (x == y)
                x += 1
                y -= 1
            total += 1
        a[k] = x + y
        y = x + y - 1
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


def selberg_a_mp(k: int, n: int) -> mp.mpf:
    """Rademacher's A_k(n) by Selberg's formula
    sqrt(k/3) sum (-1)^l cos((6l + 1) pi/(6k)) over l mod 2k with
    (3l^2 + l)/2 = -n (mod k), at mpmath's working precision: real, with
    no Dedekind sum and no inverse."""
    return mp.sqrt(mp.mpf(k) / 3) * mp.fsum(
        (-1) ** l * mp.cos((6 * l + 1) * mp.pi / (6 * k))
        for l in range(2 * k) if ((3 * l * l + l) // 2 + n) % k == 0)


def selberg_a(k: int, n: int) -> float:
    """`selberg_a_mp` in double precision."""
    with mp.workprec(53):
        return float(selberg_a_mp(k, n))


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


def moment_kernel(T: int, u: complex, tau: complex) -> complex:
    """The moment generating kernel
    (1 - e(u))/(q)_inf * sum_n (-1)^n q^(n(Tn+1)/2) / (1 - e(u) q^n), e(u) = e^(2 pi i u),
    as (1 - e(u)) q^(1/24) e^(-pi i T u) A_T(u, -(T-1) tau/2; tau) / eta(tau),
    A_T the level-T Appell-Lerch sum `mockforms.zwegers_a_t_tau`."""
    u, tau = complex(u), complex(tau)
    return ((1.0 - cmath.exp(2j * math.pi * u)) * cmath.exp(1j * math.pi * tau / 12.0)
            * cmath.exp(-1j * math.pi * u * T)
            * zwegers_a_t_tau(T, u, -(T - 1) / 2.0 * tau, tau)
            / eta_tau(tau))


def taylor_moments(T: int, r_max: int, tau: complex, radius: float) -> list[complex]:
    """Coefficients of (2 pi i u)^r / r! of `moment_kernel` at u = 0, r <= r_max.

    For r >= 1 the r-th coefficient is the r-th moment generating function
    at q = e^(2 pi i tau), against which the exact engine is checked.
    """
    coeffs = cauchy_taylor(lambda pts: [moment_kernel(T, u, tau) for u in pts],
                           radius, r_max, samples=128, tol=1e-9)
    return [c * math.factorial(r) / (2j * math.pi) ** r for r, c in enumerate(coeffs)]


def cauchy_taylor(f, radius: float, r_max: int, samples: int = 256,
                  tol: float = 1e-11) -> list[complex]:
    """Taylor coefficients of f at 0 through a sampled circle integral,
    with sample doubling until two passes agree to `tol` relative."""
    prev = None
    n = max(samples, 8 * (r_max + 1))
    for _ in range(4):
        js = np.arange(n)
        pts = radius * np.exp(2j * np.pi * js / n)
        vals = f(pts)
        coeffs = [
            complex(np.sum(vals * np.exp(-2j * np.pi * js * r / n)) / (n * radius**r))
            for r in range(r_max + 1)
        ]
        if prev is not None:
            scale = max(max(abs(c) for c in coeffs), 1e-300)
            if all(abs(a - b) <= tol * scale for a, b in zip(coeffs, prev)):
                return coeffs
        prev = coeffs
        n *= 2
    raise ConvergenceError("Cauchy coefficient extraction did not stabilize")


def taylor_identity_check(family: str, nu: complex, z: complex, lam: complex,
                          r_max: int) -> float:
    """The max relative error, over r <= r_max, of the kappa ("kappa") or
    kappa_h ("kappa_h") coefficient sums against the u-Taylor coefficients
    of their generating function, extracted by `cauchy_taylor`.

    In the kappa_h family the Gaussian parameter nu pairs with the index a
    (the same index that carries pi^(-a) and part of the z-power), as a
    direct expansion of sin exp exp shows; pairing it with b reproduces the
    coefficients only through r = 2 and fails from r = 3 on.
    """
    if family == "kappa":
        def f(u):
            ratio = np.where(u == 0, complex(z), np.sin(np.pi * u) / np.sinh(np.pi * u / z))
            return np.exp(np.pi * nu * u * u / z) * ratio

        rhs = [sum(kappa(a, b, c).to_float() * nu**a * z ** (1 - a - 2 * c)
                   for (a, b, c) in kappa_support(r)) for r in range(r_max + 1)]
        radius = min(0.45, 0.5 * abs(z))
    else:
        def f(u):
            return (np.sin(np.pi * u) * np.exp(np.pi * nu * u * u / z)
                    * np.exp(-2j * np.pi * lam * u / z))

        rhs = [1j * sum(kappa_h(a, b, c).to_float() * z ** (-a - c) * nu**a * lam**c
                        for (a, b, c) in kappa_h_support(r)) for r in range(r_max + 1)]
        radius = 0.75
    coeffs = cauchy_taylor(f, radius, r_max)
    lhs = [coeffs[r] * math.factorial(r) / (2j * math.pi) ** r for r in range(r_max + 1)]
    scale = max(abs(v) for v in rhs)
    # structurally-zero coefficients are held to an absolute floor
    return max(abs(lv - rv) / (abs(rv) if rv else 1e-3 * scale) for lv, rv in zip(lhs, rhs))


def mordell_terms(query) -> tuple[dict, complex]:
    """The Mordell part of `theorem_a_main(query)` as a scalar loop: its
    terms keyed by (gamma, t, varrho, k, l, a, b, c) and their sum from 0j,
    both in that key order.  Each term is the Python complex product

        2 pi K / k * kappa_h(a, b, c) * (kT)^(a - 1/2) * gamma^(c + 1/2)
            * (2n - 1/12)^((a + c)/2 - 1/4) * gate^(3/4 - (a + c)/2) * integral,

    K a bucket of `kloosterman_partials` (one per filled (t, varrho), over
    l) and the integral from one `bessel_integrals` call per (c, s = a + c)
    over the (k, varrho) groups, at alpha = `alpha_shift(T, t, l, k/gamma)`."""
    T, r, n = query.T, query.r, query.n
    abc = kappa_h_support(r)
    half = (T - 1) // 2
    ts = [t for t in range(-half, half + 1) if t]
    table = {}  # (k, varrho) -> (gamma, float gate, the alphas of its (t, l))
    buckets = []  # (k, t, varrho, index of its l = 0 alpha, sums over l)
    for gamma in (d for d in range(1, T + 1) if T % d == 0):
        gates = {rho: positivity_gate(T, gamma, rho) for rho in range(-half, half + 1)}
        reachable = [rho for rho, gate in gates.items()
                     if gate > 0 and rho % (T // gamma) == 0]
        ks = [k for k in range(1, query.cap + 1) if gcd(T, k) == gamma]
        if not reachable:
            continue
        for k, (counts, sums) in zip(ks, kloosterman_partials(T, ks, n, reachable)):
            for t, t_counts, t_sums in zip(ts, counts.tolist(), sums.tolist()):
                for rho, count, values in zip(reachable, t_counts, t_sums):
                    if count:
                        alphas = table.setdefault((k, rho), (gamma, float(gates[rho]), []))[2]
                        buckets.append((k, t, rho, len(alphas), values))
                        alphas += [float(alpha_shift(T, t, l, k // gamma))
                                   for l in range(len(values))]
    groups = [(k, gate, rho, alphas) for (k, rho), (_, gate, alphas) in table.items()]
    integrals = {pair: dict(zip(table, bessel_integrals(T, n, [pair], groups)[0]))
                 for pair in dict.fromkeys((c, a + c) for a, _, c in abc)}
    terms = {}
    total = 0j
    for k, t, rho, first, values in buckets:
        gamma, gate, _ = table[(k, rho)]
        for l, kv in enumerate(values):
            for a, b, c in abc:
                term = (2.0 * math.pi * kv / k * kappa_h(a, b, c).to_float()
                        * float(k * T) ** (a - 0.5) * gamma ** (c + 0.5)
                        * (2.0 * n - 1.0 / 12.0) ** ((a + c) / 2.0 - 0.25)
                        * gate ** (0.75 - (a + c) / 2.0)
                        * integrals[(c, a + c)][(k, rho)][first + l])
                total += term
                terms[(gamma, t, rho, k, l, a, b, c)] = term
    return terms, total


def mu_terms(query) -> tuple[dict, complex]:
    """The mu part of `theorem_a_main(query)` as a scalar loop: its terms
    keyed by (k, a, b, c) and their sum from 0j, both in that key order,
    over the k with K_k(n) != 0.  Each term is the Python complex product

        2 pi K_k(n) / k * kappa(a, b, c) * (kT)^a * (24n - 1)^(-3/4 + a/2 + c)
            * I_nu(pi sqrt(24n - 1) / (6k)),   nu = (2a + 4c - 3)/2,

    with (kT)^a an int, and each Bessel order from one `bessel_i` call on
    a (k x 1) array of the k."""
    T, r, n = query.T, query.r, query.n
    coefs = [(a, b, c, Fraction(-3 + 2 * a + 4 * c, 2), kappa(a, b, c).to_float())
             for (a, b, c) in kappa_support(r)]
    nonzero = [(k, kv) for k in range(1, query.cap + 1)
               if (kv := kloosterman_sum(k, n).value) != 0]
    root = math.pi * math.sqrt(24.0 * n - 1.0) / 6.0
    args = root / np.array([[k] for k, _ in nonzero], dtype=float)
    bessels = {order: bessel_i(order, args).ravel().tolist()
               for order in dict.fromkeys(order for *_, order, _ in coefs)}
    terms = {}
    total = 0j
    for i, (k, kv) in enumerate(nonzero):
        for a, b, c, order, coef in coefs:
            term = (2.0 * math.pi * kv / k
                    * coef * (k * T) ** a
                    * (24.0 * n - 1.0) ** (-0.75 + a / 2.0 + c)
                    * bessels[order][i])
            total += term
            terms[(k, a, b, c)] = term
    return terms, total
