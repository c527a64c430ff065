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
from itertools import chain
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
    _check_range,
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
    gate.  The total is mathematically real for even r: `_assemble` checks
    each part's imaginary part before exposing its real part.
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


def _assemble(keys, head, ks, factors, last, what: str) -> tuple[float, dict]:
    """The real part of the sum of the terms 2.0 * math.pi * head / k * f_1
    * ... * f_m * last, over rows (one complex head and float k each) and
    columns, and the terms keyed by `keys` in row-major, that is summation,
    order.  Each part follows CPython's complex products, zero signs
    included: times a float w is (re w - im 0.0, re 0.0 + im w), over an
    int k is ((re + im 0.0)/k, (im - re 0.0)/k), and a real `last` gives
    the same bits as a complex one with imaginary part 0.0.  `np.cumsum`
    adds in sequence, and "+ 0.0" gives the +0.0 of a sum from 0j.  The
    sum must be finite, with imaginary part at most 1e-8 sum |term|: the
    scale of each term's error, which the real part may cancel far below.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums raise below
        re, im = head.real[:, None], head.imag[:, None]
        re, im = re * (2.0 * math.pi) - im * 0.0, re * 0.0 + im * (2.0 * math.pi)
        re, im = (re + im * 0.0) / ks[:, None], (im - re * 0.0) / ks[:, None]
        for f in factors:
            re, im = re * f - im * 0.0, re * 0.0 + im * f
        re, im = re * last.real - im * last.imag, re * last.imag + im * last.real
        value = complex(np.cumsum(re)[-1] + 0.0, np.cumsum(im)[-1] + 0.0)
        scale = np.hypot(re, im).sum()
    if not cmath.isfinite(value):
        raise ValueError(f"{what} is not finite: {value}")
    if abs(value.imag) > 1e-8 * max(scale, 1e-300):
        raise ArithmeticError(f"{what} has a non-negligible imaginary part: {value}")
    terms = np.empty(re.shape, dtype=complex)
    terms.real, terms.imag = re, im
    return value.real, dict(zip(keys, terms.ravel().tolist()))


def theorem_a_main(query: AsymptoticQuery) -> TermBreakdown:
    """The full main term of the moment asymptotic formula.

    The Mordell part is identically zero for T in {1, 3}.  T = 1 has no
    t != 0.  For T = 3 the gamma = 3 classes have a nonpositive gate, and
    for gamma = 1 the class varrho = 0 has gate exactly 0, while the
    classes varrho = +-1 pass the gate but are always empty: gamma = 1
    makes gamma_co = T, so rho_T(t gamma_co h) = 0 for every h.  Only gated
    multiples of gamma_co are summed, so T = 3 takes no Kloosterman partial
    sum and evaluates no Bessel integral.

    For T > 3 a k_cap past the Mordell part's range (96 T^3 k^2 <= 2^53)
    raises `ValueError` before any list of k is built, and the Mordell part
    comes first, so a k_cap past memory ends the call before any mu-part
    work.  It takes three passes: the partial Kloosterman sums of every k
    of a gamma from one `kloosterman_partials` call, whose int64 array pass
    runs over blocks of at most 2^13 (t, h, l) values and buckets each unit
    by t and varrho; the Bessel integrals of every (c, s = a + c) at the
    alphas of every (k, varrho) group, in one quadrature pass; then the
    terms, over (bucket, l) rows and (a, b, c) columns.  The mu part
    evaluates each Bessel order once, for every k at once, over k rows and
    (a, b, c) columns.  `_assemble` forms and sums the terms of both parts
    with the bits of a scalar Python loop.
    """
    T, r, n = query.T, query.r, query.n
    out = TermBreakdown(query=query)
    abc = kappa_h_support(r)
    half = (T - 1) // 2
    if T > 3:  # gamma = 1 reaches varrho = 0, so the partial sums run to within T of k_cap
        _check_range(T, query.cap)
    ts = np.array([t for t in range(-half, half + 1) if t])
    # each term is 2 pi K / k times these five floats, in this order, times
    # its integral: kappa_h, (kT)^(a-1/2), gamma^(c+1/2),
    # (2n - 1/12)^((a+c)/2 - 1/4) and gate^(3/4 - (a+c)/2)
    fixed = np.empty((len(abc), 5))
    fixed[:, 0] = [kappa_h(*key).to_float() for key in abc]
    fixed[:, 3] = [(2.0 * n - 1.0 / 12.0) ** ((a + c) / 2.0 - 0.25) for a, _, c in abc]
    groups = []  # (k, float gate, rho, alphas): one per (k, varrho) with a bucket
    keys = []  # (gamma, t, varrho, k, l, a, b, c) of each term, in summation order
    rows = []  # per k: each (bucket, l) row's sum, k, alpha index and factors
    size = 0  # the alphas of `groups`
    for gamma in (d for d in range(1, T + 1) if T % d == 0):
        gates = {rho: positivity_gate(T, gamma, rho) for rho in range(-half, half + 1)}
        gated = [rho for rho, gate in gates.items() if gate > 0]
        ks = [k for k in range(1, query.cap + 1) if gcd(T, k) == gamma]
        out.dropped_terms += (T - 1) * (T - len(gated)) * sum(k // gamma for k in ks) * len(abc)
        # rho_T(t gamma_co h) is a multiple of gamma_co = T / gamma
        reachable = [rho for rho in gated if rho % (T // gamma) == 0]
        if not reachable:
            continue
        floats = [float(gates[rho]) for rho in reachable]
        # the five floats per (varrho, (a, b, c)); (kT)^(a-1/2) is set per k
        table = np.repeat(fixed[None], len(reachable), axis=0)
        table[:, :, 2] = [gamma ** (c + 0.5) for _, _, c in abc]
        table[:, :, 4] = [[gate ** (0.75 - (a + c) / 2.0) for a, _, c in abc]
                          for gate in floats]
        for k, (counts, sums) in zip(ks, kloosterman_partials(T, ks, n, reachable)):
            K = k // gamma
            ti, ri = np.nonzero(counts)  # the filled buckets in the terms' (t, varrho) order
            if not len(ti):
                continue
            rj, tj = np.nonzero(counts.T)  # and in the groups' (varrho, t) order
            # one group per varrho; `place` is each bucket's place in this k's groups
            place = np.empty(counts.shape, dtype=int)
            place[tj, rj] = np.arange(len(tj))
            # float(alpha_shift(T, t, l, K)): int64 / int64 is correctly rounded
            alphas = (-2 * ts[tj, None] + (2 * np.arange(K) - K + 1) * T) / (2 * T * K)
            for j in sorted(set(rj.tolist())):
                groups.append((k, floats[j], reachable[j], alphas[rj == j].ravel()))
            table[:, :, 1] = [float(k * T) ** (a - 0.5) for a, _, _ in abc]
            # the terms' (bucket, l) rows, in (t, varrho, l) order
            bucket, ell = np.divmod(np.arange(len(ti) * K), K)
            ti, ri = ti[bucket], ri[bucket]
            rows.append((sums[ti, ri, ell], np.full(len(ell), float(k)),
                         size + place[ti, ri] * K + ell, table[ri]))
            keys += [(gamma, t, reachable[j], k, l, a, b, c)
                     for t, j, l in zip(ts[ti].tolist(), ri.tolist(), ell.tolist())
                     for a, b, c in abc]
            size += alphas.size

    # every (c, s = a + c) and (k, varrho) group from one quadrature pass
    pairs = list(dict.fromkeys((c, a + c) for a, _, c in abc))
    if rows:
        kv, kf, index, factors = (np.concatenate(part) for part in zip(*rows))
        integrals = np.array([list(chain.from_iterable(values)) for values in
                              bessel_integrals(T, n, pairs, groups)])
        ints = integrals[[pairs.index((c, a + c)) for a, _, c in abc], index[:, None]]
        out.mordell_part, out.mordell_contributions = _assemble(
            keys, kv, kf, np.moveaxis(factors, 2, 0), ints, "mordell part")
    if T <= 3:
        assert out.mordell_part == 0.0 and not out.mordell_contributions

    root = math.pi * math.sqrt(24.0 * n - 1.0) / 6.0
    support = kappa_support(r)
    orders = [Fraction(-3 + 2 * a + 4 * c, 2) for a, _, c in support]
    nonzero = [(k, kv) for k in range(1, query.cap + 1)
               if (kv := kloosterman_sum(k, n).value) != 0]
    ks = np.array([k for k, _ in nonzero], dtype=float)
    # I_order(root / k) for every k of `nonzero`, one call per order on a
    # (k x 1) array: each row is its own call, with its own Miller depth.
    bessels = {order: bessel_i(order, root / ks[:, None]) for order in dict.fromkeys(orders)}
    # 2 pi K_k(n) / k times kappa, (kT)^a as a complex times an int converts
    # it, and (24n - 1)^(-3/4 + a/2 + c), times I_order(root / k)
    factors = [np.array([kappa(*key).to_float() for key in support]),
               np.array([[float((k * T) ** a) for a, _, _ in support] for k, _ in nonzero]),
               np.array([(24.0 * n - 1.0) ** (-0.75 + a / 2.0 + c) for a, _, c in support])]
    out.mu_part, out.mu_contributions = _assemble(
        [(k, *key) for k, _ in nonzero for key in support],
        np.array([kv for _, kv in nonzero]), ks, factors,
        np.hstack([bessels[order] for order in orders]), "mu part")
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

