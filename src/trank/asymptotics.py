"""Main-term asymptotics for the T-rank moments and their verification.

`theorem_a_main` assembles the full circle-method main term: a Bessel
series weighted by Kloosterman sums, plus (for T > 3) a Mordell part that
sums Bessel-weighted integrals against partial Kloosterman sums over the
divisors of T.  `theorem_b_leading` gives the closed-form leading
asymptotic and `theorem_b_difference_leading` the leading term of the
difference between consecutive odd T.  `prop56_expansion_check` compares
the cusp expansion of the moment generating function against the exact
q-series, and `garvan_scan` verifies the moment inequality on exact
big-integer tables.

One transcription note that affects the assembled exponents: the
expansion-coefficient family kappa_h pairs its Gaussian parameter with
the index a (the index that also carries pi^(-a) and z^(-a)), so the
Mordell-part prefactor carries k^(a-1/2) T^(a-1/2), and the polynomial
factor inside the integrals is x^c rather than (x + i varrho)^c.  Both
are confirmed by direct Taylor-coefficient extraction (see
`taylor_identity_check` in `tests/helpers.py` and the transformation-law
suite) and by the cusp-expansion comparison against the exact engine below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .qseries import moment_generating_eval, moment_table
from .specfun import (
    bernoulli_half,
    bessel_i,
    bessel_integrals,
    kappa,
    kappa_h,
    kappa_h_support,
    kappa_support,
    script_h,
)
from .units import (
    alpha_shift,
    kloosterman_numerator,
    kloosterman_partials,
    kloosterman_sum,
    phase,
    rho_residue,
    unit_h_star,
)


@dataclass(frozen=True)
class AsymptoticQuery:
    """One main-term evaluation request; k_cap defaults to floor(sqrt(n))."""

    T: int
    r: int
    n: int
    k_cap: int | None = None

    def __post_init__(self):
        if self.T < 1 or self.T % 2 == 0 or self.T >= 24:
            raise ValueError("T must be an odd integer with 1 <= T < 24")
        # the top Bessel orders, (2r - 3)/2 in the mu part and r - 3/2 in
        # the Mordell part, stay inside bessel_i's band up to r = 26
        if self.r < 2 or self.r % 2 == 1 or self.r > 26:
            raise ValueError("r must be an even integer with 2 <= r <= 26")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k_cap is not None and self.k_cap < 1:
            raise ValueError("k_cap must be >= 1")

    @property
    def cap(self) -> int:
        return self.k_cap if self.k_cap is not None else isqrt(self.n)


def positivity_gate(T: int, gamma: int, varrho: int) -> Fraction:
    """The exact rational 1/12 - (gamma^2/T^3)(varrho^2 + T^2/4 - |varrho| T).

    Since varrho^2 + T^2/4 - |varrho| T = (T - 2|varrho|)^2/4, this is the
    one fraction (T^3 - 3 gamma^2 (T - 2|varrho|)^2)/(12 T^3).  A term of
    the Mordell part is included only when it is positive; the arithmetic
    is exact, so inclusion is never a rounding call.
    """
    return Fraction(T**3 - 3 * gamma**2 * (T - 2 * abs(varrho)) ** 2, 12 * T**3)


@dataclass
class TermBreakdown:
    """The assembled main term with per-term contributions.

    mu_contributions is keyed by (k, a, b, c); mordell_contributions by
    (gamma, t, varrho, k, l, a, b, c).  dropped_terms counts the
    (t, varrho, k, l) x (a, b, c) combinations excluded by the positivity
    gate.  The total is mathematically real for even r; assembly keeps
    complex accumulators and checks the imaginary part before exposing
    the real parts.
    """

    query: AsymptoticQuery
    mu_part: float = 0.0
    mordell_part: float = 0.0
    dropped_terms: int = 0
    mu_contributions: dict = field(default_factory=dict)
    mordell_contributions: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.mu_part + self.mordell_part


def _realize(value: complex, terms: dict, what: str) -> float:
    """The real part of `value`, the sum of `terms`, once it is checked to
    be finite and its imaginary part is checked against sum |term|: the
    scale on which each term's error is bounded, which the real part
    itself may cancel far below.  No terms sum to 0.0."""
    if not cmath.isfinite(value):
        raise ValueError(f"{what} is not finite: {value}")
    scale = sum(abs(term) for term in terms.values())
    if abs(value.imag) > 1e-8 * max(scale, 1e-300):
        raise ArithmeticError(f"{what} has a non-negligible imaginary part: {value}")
    return value.real


def theorem_a_main(query: AsymptoticQuery) -> TermBreakdown:
    """The full main term of the moment asymptotic formula.

    The Mordell part is identically zero for T in {1, 3}.  T = 1 has no
    t != 0.  For T = 3 the gamma = 3 classes have a nonpositive gate, and
    for gamma = 1 the class varrho = 0 has gate exactly 0, while the
    classes varrho = +-1 pass the gate but are always empty: gamma = 1
    makes gamma_co = T, so rho_T(t gamma_co h) = 0 for every h.  Only gated
    multiples of gamma_co are summed, so T = 3 takes no Kloosterman partial
    sum and evaluates no Bessel integral.

    The Mordell part is assembled first, so a k_cap past its range (k must
    keep 96 T^3 k^2 <= 2^53, else `ValueError`) or past memory ends the
    call before any mu-part work.  It takes three passes: the partial
    Kloosterman sums of every k of a gamma from one `kloosterman_partials`
    call, whose int64 array pass runs over blocks of at most 2^13 (t, h, l)
    values and buckets each unit by t and varrho; the Bessel integrals, in
    one quadrature pass per (c, s = a + c) over the alphas of every
    (k, varrho) group; then the terms, summed in (gamma, k, t, varrho, l,
    a, b, c) order, with the powers of each (k, t, varrho, a, b, c)
    computed once.  The mu part evaluates each Bessel order once, for
    every k at once.
    """
    T, r, n = query.T, query.r, query.n
    out = TermBreakdown(query=query)
    abc = kappa_h_support(r)
    half = (T - 1) // 2
    ts = [t for t in range(-half, half + 1) if t]
    table = {}  # (k, varrho) -> (gamma, float gate, the alphas of its (t, l) in order)
    buckets = []  # (k, t, varrho, index of its l = 0 alpha, partial sums over l)
    for gamma in (d for d in range(1, T + 1) if T % d == 0):
        gates = {rho: positivity_gate(T, gamma, rho) for rho in range(-half, half + 1)}
        gated = [rho for rho, gate in gates.items() if gate > 0]
        ks = [k for k in range(1, query.cap + 1) if gcd(T, k) == gamma]
        out.dropped_terms += (T - 1) * (T - len(gated)) * sum(k // gamma for k in ks) * len(abc)
        # rho_T(t gamma_co h) is a multiple of gamma_co = T / gamma
        reachable = [rho for rho in gated if rho % (T // gamma) == 0]
        if not reachable:
            continue
        for k, (counts, sums) in zip(ks, kloosterman_partials(T, ks, n, reachable)):
            K = k // gamma
            for t, t_counts, t_sums in zip(ts, counts.tolist(), sums.tolist()):
                for rho, count, values in zip(reachable, t_counts, t_sums):
                    if not count:
                        continue
                    alphas = table.setdefault((k, rho), (gamma, float(gates[rho]), []))[2]
                    buckets.append((k, t, rho, len(alphas), values))
                    # float(alpha_shift(T, t, l, K)): int / int is correctly rounded
                    alphas += [(-2 * t + (2 * l - K + 1) * T) / (2 * T * K)
                               for l in range(len(values))]

    # per (c, s = a + c) and (k, varrho): one value per alpha of the group,
    # every group from one quadrature pass
    groups = [(k, gate, rho, alphas) for (k, rho), (_, gate, alphas) in table.items()]
    integrals = {(c, s): dict(zip(table, bessel_integrals(T, n, c, s, groups)))
                 for c, s in dict.fromkeys((c, a + c) for (a, _, c) in abc)}
    weights = [kappa_h(*key).to_float() for key in abc]
    h_acc = 0j
    for k, t, rho, first, values in buckets:
        gamma, gate, _ = table[(k, rho)]
        factors = [(a, b, c, weight,
                    float(k * T) ** (a - 0.5),
                    gamma ** (c + 0.5),
                    (2.0 * n - 1.0 / 12.0) ** ((a + c) / 2.0 - 0.25),
                    gate ** (0.75 - (a + c) / 2.0),
                    integrals[(c, a + c)][(k, rho)])
                   for (a, b, c), weight in zip(abc, weights)]
        for l, kv in enumerate(values):
            lead = 2.0 * math.pi * kv / k
            for a, b, c, weight, kt_pow, gamma_pow, n_pow, beta_pow, ints in factors:
                term = lead * weight * kt_pow * gamma_pow * n_pow * beta_pow * ints[first + l]
                h_acc += term
                out.mordell_contributions[(gamma, t, rho, k, l, a, b, c)] = term
    out.mordell_part = _realize(h_acc, out.mordell_contributions, "mordell part")
    if T <= 3:
        assert out.mordell_part == 0.0 and not out.mordell_contributions

    mu_acc = 0j
    root = math.pi * math.sqrt(24.0 * n - 1.0) / 6.0
    coefs = [(a, b, c, Fraction(-3 + 2 * a + 4 * c, 2), kappa(a, b, c).to_float())
             for (a, b, c) in kappa_support(r)]
    nonzero = [(k, kv) for k in range(1, query.cap + 1)
               if (kv := kloosterman_sum(k, n).value) != 0]
    # I_order(root / k) for every k of `nonzero`, one call per order on a
    # (k x 1) array: each row is its own call, with its own Miller depth.
    args = root / np.array([[k] for k, _ in nonzero], dtype=float)
    bessels = {order: bessel_i(order, args).ravel().tolist()
               for order in dict.fromkeys(order for *_, order, _ in coefs)}
    for i, (k, kv) in enumerate(nonzero):
        for a, b, c, order, coef in coefs:
            term = (2.0 * math.pi * kv / k
                    * coef * (k * T) ** a
                    * (24.0 * n - 1.0) ** (-0.75 + a / 2.0 + c)
                    * bessels[order][i])
            mu_acc += term
            out.mu_contributions[(k, a, b, c)] = term
    out.mu_part = _realize(mu_acc, out.mu_contributions, "mu part")
    return out


def _theorem_b_value(scale: float, bernoulli: Fraction, power: float, n: int) -> float:
    """scale B (24n)^power e^(pi sqrt(2n/3)), or `ValueError` past double range."""
    try:
        value = (scale * float(bernoulli) * (24.0 * n) ** power
                 * math.exp(math.pi * math.sqrt(2.0 * n / 3.0)))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"theorem B leading term at n={n} overflows double range")
    return value


def theorem_b_leading(T: int, r: int, n: int) -> float:
    """2 sqrt(3) (-1)^(r/2) B_r(1/2) (24n)^(r/2 - 1) e^(pi sqrt(2n/3))."""
    AsymptoticQuery(T=T, r=r, n=n)  # validation only; the value is T-free
    sign = (-1) ** (r // 2)
    return _theorem_b_value(2.0 * math.sqrt(3.0) * sign, bernoulli_half(r), r / 2.0 - 1.0, n)


def theorem_b_difference_leading(T: int, r: int, n: int) -> float:
    """Leading term of m_(T-2)^r(n) - m_T^r(n), positive for all even r:
    (sqrt(3)/pi) r(r-1) (-1)^(r/2+1) B_(r-2)(1/2) (24n)^(r/2 - 3/2) e^(pi sqrt(2n/3)).

    At T = 3, r = 2 the difference is 2 spt(n) (Andrews), and this is
    e^(pi sqrt(2n/3)) / (pi sqrt(2n)), Bringmann's 2 sqrt(6n) p(n) / pi.
    """
    AsymptoticQuery(T=T, r=r, n=n)
    sign = (-1) ** (r // 2 + 1)
    return _theorem_b_value(math.sqrt(3.0) / math.pi * r * (r - 1) * sign,
                            bernoulli_half(r - 2), r / 2.0 - 1.5, n)


# ---------------------------------------------------------------------------
# Cusp-expansion comparison
# ---------------------------------------------------------------------------

def moment_cusp_mu(T: int, r: int, h: int, k: int, z: complex) -> complex:
    """The modular-part main term of the moment generating function near
    the cusp h/k.  The unit i^(3/2) chi(h, k)^-1 e((h - [-h]_k)/(12k)) is
    minus the summand of h in K_k(0): its numerator over 12k is
    `kloosterman_numerator(h, k, 0)` - 12k."""
    unit = phase(kloosterman_numerator(h, k, 0) - 12 * k, 12 * k)
    pref = -unit * cmath.exp(-math.pi / (12.0 * k) * (z - 1.0 / z))
    return pref * sum(
        kappa(a, b, c).to_float() * (k * T) ** a * z ** (0.5 - a - 2 * c)
        for (a, b, c) in kappa_support(r)
    )


def moment_cusp_mordell(T: int, r: int, t: int, l: int, h: int, k: int,
                        z: complex) -> complex:
    """One (t, l) summand of the Mordell-part main term near the cusp h/k."""
    if t == 0:
        raise ValueError("the Mordell part only has t != 0 summands")
    g = gcd(T, k)
    gco = T // g
    alpha = float(alpha_shift(T, t, l, k // g))  # checks t and l
    rho = rho_residue(T, t * gco * h)
    beta = positivity_gate(T, g, rho)  # may be <= 0 here; no gate applies
    pref = (gco ** -1.5 * math.sqrt(T / k)
            * cmath.exp(-math.pi * z / (12.0 * k))
            * cmath.exp(math.pi * float(beta) / (k * z))
            * unit_h_star(T, t, l, h, k))
    acc = 0j
    for (a, b, c) in kappa_h_support(r):
        acc += (kappa_h(a, b, c).to_float() * z ** (-0.5 - a - c) * (k * T) ** a
                * g**c * script_h(c, T, alpha, gco, rho / T, k, z))
    return pref * acc


@dataclass(frozen=True)
class CuspExpansionReport:
    T: int
    r: int
    h: int
    k: int
    z: complex
    exact: complex
    main_mu: complex
    main_mordell: complex
    envelope: float

    @property
    def main(self) -> complex:
        return self.main_mu + self.main_mordell

    @property
    def discrepancy(self) -> float:
        return abs(self.exact - self.main)

    @property
    def ablated_discrepancy(self) -> float:
        """Discrepancy when the Mordell summands are dropped."""
        return abs(self.exact - self.main_mu)


def prop56_expansion_check(T: int, r: int, h: int, k: int, z: complex,
                           n_max: int = 600) -> CuspExpansionReport:
    """Compare the exact moment generating function at
    q = e^(2 pi i (h + iz)/k) with its cusp main term.

    Requires Re(1/z) >= k/2.  The returned envelope k^(r/2) |z|^(-r+1/2)
    is the shape of the error bound (constants not included); along a ray
    z -> 0 the discrepancy must shrink while the envelope's exponential
    improvement dominates.
    """
    z = complex(z)
    if (1.0 / z).real < k / 2.0:
        raise ValueError("the cusp expansion requires Re(1/z) >= k/2")
    if T % 2 == 0 or T < 1:
        raise ValueError("T must be odd and positive")
    q0 = cmath.exp(2j * math.pi * (h + 1j * z) / k)
    exact = moment_generating_eval(T, r, q0, n_max)
    main_mu = moment_cusp_mu(T, r, h, k, z)
    half = (T - 1) // 2
    mordell = 0j
    g = gcd(T, k)
    for t in range(-half, half + 1):
        if t == 0:
            continue
        for l in range(k // g):
            mordell += moment_cusp_mordell(T, r, t, l, h, k, z)
    return CuspExpansionReport(
        T=T, r=r, h=h, k=k, z=z, exact=exact, main_mu=main_mu,
        main_mordell=mordell,
        envelope=k ** (r / 2.0) * abs(z) ** (0.5 - r),
    )


# ---------------------------------------------------------------------------
# Exact inequality scan and comparison tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    T: int
    r: int
    n_lo: int
    n_hi: int
    violations: tuple
    n0: int


def garvan_scan(T: int, r: int, n_lo: int, n_hi: int) -> ScanReport:
    """Exact check of m_(T-2)^r(n) > m_T^r(n) on [n_lo, n_hi].

    Returns every violating n and the smallest n0 past the last violation,
    so the inequality holds on [n0, n_hi].
    """
    if T < 3 or T % 2 == 0:
        raise ValueError("need odd T >= 3 so that T - 2 >= 1")
    if r < 2 or r % 2 == 1:
        raise ValueError("r must be even and >= 2")
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    lower = moment_table(T - 2, r, n_hi)
    upper = moment_table(T, r, n_hi)
    violations = tuple(
        n for n in range(n_lo, n_hi + 1) if not lower[n] > upper[n]
    )
    n0 = max(n_lo, (max(violations) + 1) if violations else n_lo)
    return ScanReport(T=T, r=r, n_lo=n_lo, n_hi=n_hi, violations=violations, n0=n0)


@dataclass(frozen=True)
class ComparisonRow:
    """Exact value and both main terms at one n; the relative errors are
    None where the exact moment is 0, which has no relative error."""

    T: int
    r: int
    n: int
    exact: int
    thm_a_main: float
    thm_b_leading: float

    def _rel_err(self, approx: float) -> float | None:
        return abs(self.exact - approx) / abs(self.exact) if self.exact else None

    @property
    def rel_err_a(self) -> float | None:
        return self._rel_err(self.thm_a_main)

    @property
    def rel_err_b(self) -> float | None:
        return self._rel_err(self.thm_b_leading)


def comparison_rows(T: int, r: int, ns) -> list[ComparisonRow]:
    """Exact values next to both main terms for each requested n.

    Theorem B is evaluated for every n first, so an n past double range
    is rejected before the table or any main term is built.
    """
    queries = [AsymptoticQuery(T=T, r=r, n=n) for n in sorted(set(ns))]
    leading = [theorem_b_leading(T, r, query.n) for query in queries]
    table = moment_table(T, r, queries[-1].n)
    return [ComparisonRow(T=T, r=r, n=query.n, exact=table[query.n],
                          thm_a_main=theorem_a_main(query).total, thm_b_leading=lead)
            for query, lead in zip(queries, leading)]

