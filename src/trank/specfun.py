"""Special functions for the main-term assembly.

Three groups live here:

* exact rational data: Bernoulli numbers/polynomial values at 1/2 and the
  two expansion-coefficient families kappa(a, b, c), kappaH(a, b, c) whose
  rational parts and powers of pi are kept separate until the final float
  assembly;
* modified Bessel functions of half-integer order -3/2 ... 51/2 on the
  positive axis, the orders the main term uses (closed forms with a
  power-series small-x path, and a Miller-style downward recurrence; the
  tests' oracle is a 40-digit mpmath series);
* quadratures: the Mordell integral H, the cosh-Gaussian line integral
  script_h over the real axis, and the Bessel-weighted integral over
  [-1, 1] that multiplies the partial Kloosterman sums.  Its inputs are
  plain numbers: T, n, the (c, s = a + c) pairs and, per (k, varrho)
  group, k, the float gate beta, the integer rho of varrho = rho/T and the
  alphas.

Each quadrature is deterministic, at the one accuracy its docstring states.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

# ---------------------------------------------------------------------------
# Exact rational coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(j: int) -> Fraction:
    """B_j with the B_1 = -1/2 convention, by the defining recurrence."""
    if j < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if j == 0:
        return Fraction(1)
    acc = Fraction(0)
    for i in range(j):
        acc += Fraction(math.comb(j + 1, i)) * bernoulli_number(i)
    return -acc / (j + 1)


def bernoulli_half(j: int) -> Fraction:
    """B_j(1/2) = (2^(1-j) - 1) B_j, exactly."""
    if j < 0:
        raise ValueError("Bernoulli index must be >= 0")
    return (Fraction(2) ** (1 - j) - 1) * bernoulli_number(j)


class PiRational(NamedTuple):
    """An exact rational times an integer power of pi."""

    rational: Fraction
    pi_exponent: int

    def to_float(self) -> float:
        return float(self.rational) * math.pi**self.pi_exponent


def kappa(a: int, b: int, c: int) -> PiRational:
    """First coefficient family; zero outside nonnegative integer support.

    The value is rational * pi^(-a) with
    rational = (2(a+b+c))! / (a! (2b+1)! (2c)!) * (-1)^(a+c) / 2^(2(a+b))
               * B_{2c}(1/2).
    """
    if a < 0 or b < 0 or c < 0:
        return PiRational(Fraction(0), 0)
    rat = (
        Fraction(factorial(2 * (a + b + c)), factorial(a) * factorial(2 * b + 1) * factorial(2 * c))
        * Fraction((-1) ** (a + c), 2 ** (2 * (a + b)))
        * bernoulli_half(2 * c)
    )
    return PiRational(rat, -a)


def kappa_h(a: int, b: int, c: int) -> PiRational:
    """Second coefficient family (the Mordell-part weights); pi^(-a) kept
    separate as for `kappa`."""
    if a < 0 or b < 0 or c < 0:
        return PiRational(Fraction(0), 0)
    rat = Fraction(
        factorial(2 * a + (2 * b + 1) + c), factorial(a) * factorial(2 * b + 1) * factorial(c)
    ) * Fraction((-1) ** (a + c + 1), 2 ** (2 * a + 2 * b + 1))
    return PiRational(rat, -a)


def kappa_support(r: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) in N_0^3 with 2a + 2b + 2c = r (empty for odd r)."""
    if r % 2:
        return []
    half = r // 2
    return [(a, b, half - a - b) for a in range(half + 1) for b in range(half - a + 1)]

def kappa_h_support(r: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) in N_0^3 with 2a + (2b + 1) + c = r."""
    out = []
    for a in range(r // 2 + 1):
        for b in range((r - 2 * a - 1) // 2 + 1):
            c = r - 2 * a - (2 * b + 1)
            if c >= 0:
                out.append((a, b, c))
    return out


# ---------------------------------------------------------------------------
# Modified Bessel functions of half-integer order
# ---------------------------------------------------------------------------

def _as_half_integer(order) -> int:
    two = 2 * float(order)
    rounded = round(two)
    if abs(two - rounded) > 1e-12 or rounded % 2 == 0:
        raise ValueError(f"order {order} is not a half-integer")
    return int(rounded)


def bessel_i_series(order, x):
    """The power series sum_m (x/2)^(2m+nu) / (m! Gamma(m+nu+1)): the
    small-x path of `bessel_i`, below x = |order| for order <= 5/2, where
    the closed forms lose digits to cancellation.  Terms are generated by
    ratio recursion to avoid overflow."""
    two_nu = _as_half_integer(order)
    nu = two_nu / 2.0
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    half = xs / 2.0
    term = half**nu / math.gamma(nu + 1.0)
    acc = term.copy() if isinstance(term, np.ndarray) else term
    quarter = half * half
    for m in range(1, 600):
        term = term * quarter / (m * (m + nu))
        acc = acc + term
        if (np.abs(term) <= 1e-18 * np.maximum(np.abs(acc), 1e-300)).all():
            break
    else:
        raise ConvergenceError("Bessel power series did not converge")
    return acc if isinstance(x, np.ndarray) else float(acc)


def _bessel_closed(two_nu: int, x):
    pre = np.sqrt(2.0 / (np.pi * x))
    sh, ch = np.sinh(x), np.cosh(x)
    if two_nu == 1:
        return pre * sh
    if two_nu == -1:
        return pre * ch
    if two_nu == 3:
        return pre * (ch - sh / x)
    if two_nu == -3:
        return pre * (sh - ch / x)
    return pre * ((3.0 / (x * x) + 1.0) * sh - 3.0 * ch / x)  # two_nu == 5


def _bessel_miller(n: int, x, tops):
    """I_{n+1/2}(x) by downward recurrence normalized at I_{1/2}; row j of
    the 2-D x starts at order tops[j] + 1/2, and every element's arithmetic
    is that of a one-row call with its row's start."""
    starts = {top: tops == top for top in set(tops.tolist())}
    fp = np.zeros_like(x)
    fc = np.full_like(x, 1e-280)
    target = None
    for m in range(int(tops.max()), 0, -1):
        if m in starts:
            fp[starts[m]] = 0.0
            fc[starts[m]] = 1e-280
        # step from order m+1/2 to m-1/2
        fm = fp + ((2 * m + 1) / x) * fc
        fp, fc = fc, fm
        if m - 1 == n:
            target = fc
        big = np.abs(fc) > 1e260
        if big.any():
            scale = np.where(big, 1e-260, 1.0)
            fp = fp * scale
            fc = fc * scale
            if target is not None:
                target = target * scale
    closed = _bessel_closed(1, x)
    out = target * closed / fc
    wide = ~np.isfinite(out)
    if wide.any():
        # a row spanning a wide range starts every x at the depth of its
        # largest, so at a small x the product can pass double range
        # though the ratio target / fc is below 1
        out = np.where(wide, target / fc * closed, out)
    return out


def _bessel_positive(n: int, x):
    """I_{n+1/2}(x) by Miller's recurrence with start-depth doubling.

    The start order must clear both the target order and x itself: the
    wanted (minimal) solution only starts dominating the recurrence once
    the order exceeds the argument.  Each row (last axis) of x (a 1-D x is
    one row) starts at depth 24 + int(1.2 max(row)) and passes its own
    doubling test, so each row of the result is bit-identical to a call on
    that row alone.
    """
    rows = x.reshape(-1, x.shape[-1])
    depth = n + 24 + (1.2 * rows.max(axis=1)).astype(int)
    out = np.empty_like(rows)
    pending = np.arange(len(rows))
    prev = None
    for extra in (0, 40, 120):
        vals = _bessel_miller(n, rows[pending], depth[pending] + extra)
        # past double range, which `bessel_i` reports
        done = ~np.isfinite(vals).all(axis=1)
        if prev is not None:
            done |= np.all(np.abs(vals - prev) <= 1e-13 * np.maximum(np.abs(vals), 1e-300),
                           axis=1)
        out[pending[done]] = vals[done]
        pending, prev = pending[~done], vals[~done]
        if not len(pending):
            return out.reshape(x.shape)
    raise ConvergenceError("Miller recurrence failed to stabilize")


def bessel_i(order, x):
    """I_order(x) for half-integer -3/2 <= order <= 51/2 and x > 0.

    Closed sinh/cosh forms cover order <= 5/2 (switching to the power
    series below x = |order| where the closed forms lose digits to
    cancellation); larger orders use a normalized downward Miller
    recurrence.  These are the orders the main term evaluates:
    (2a + 4c - 3)/2 in the mu part and s - 1/2 in the Mordell part.
    Relative accuracy 1e-10 for x in [1e-3, 200] up to order 31/2, away
    from the zero of I_(-3/2) at x ~ 1.1997, and 1e-15 on (200, 700].
    Each row (last axis) of an array x is bit-identical to `bessel_i` on
    that row alone, and a scalar x runs as a one-element row.  An order
    outside the band, or a value past double range (x above about 710),
    raises `ValueError` rather than returning inf or nan.
    """
    two_nu = _as_half_integer(order)
    if not -3 <= two_nu <= 51:
        raise ValueError(f"order {two_nu}/2 outside supported band [-3/2, 51/2]")
    scalar = np.isscalar(x) or getattr(x, "ndim", 0) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if two_nu <= 5:
            # the series stops once every element's next term is at most
            # 1e-18 of its sum, below half an ulp, so each element has the
            # bits of its own call whatever else is in the array
            out = _bessel_closed(two_nu, xs)
            small = xs < abs(two_nu) / 2.0
            if small.any():
                out[small] = bessel_i_series(order, xs[small])
        else:
            out = _bessel_positive((two_nu - 1) // 2, xs)
    if not np.isfinite(out).all():
        raise ValueError(f"I_({two_nu}/2)(x) overflows double range")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Quadratures
# ---------------------------------------------------------------------------

def _trapezoid_real_line(f, decay: float, growth: float, strip: float, chirp: float,
                         slope: float, tol: float, extra_log: float = 0.0):
    """Truncated trapezoid of f over R, for f with a 1/cosh factor.

    On the real axis |f| is bounded by the envelope
    2 e^(extra_log - decay x^2 + growth |x|) (`growth` is negative when
    the non-Gaussian part decays).  f is analytic in the strip
    |Im x| < `strip`, whose edge is a pole of the 1/cosh factor, and on the
    line Im x = +-y it exceeds that envelope by at most
    e^(chirp y^2 + slope y) / sin(pi (strip - y)); for a Gaussian
    e^(-c x^2) the chirp is |c|^2 / Re c.

    The truncation point puts the envelope below e^(-50) relative to its
    value at x = 0.  The first step is the largest that the strip bound
    2M / (e^(2 pi a / h) - 1) <= tol allows (Trefethen and Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Review 2014,
    Thm 5.1), over a grid of a in (0, strip); M is the growth at
    |Im x| = a times 4 sqrt(pi / decay) e^(peak + extra_log), which bounds
    the envelope's integral.  The step is then halved until two successive
    refinements agree to `tol` (or to the roundoff floor of the node sums,
    whichever is larger: a cancelling integrand cannot do better in fixed
    precision).
    """
    if decay <= 0:
        raise ValueError("integrand lacks Gaussian decay on the real axis")
    peak = max(growth, 0.0) ** 2 / (4.0 * decay)
    if peak > 600.0:
        raise ValueError("integrand peak exceeds double-precision range")
    budget = 50.0 + extra_log
    cut = (growth + math.sqrt(growth * growth + 4.0 * decay * budget)) / (2.0 * decay)
    log_bound = math.log(8.0 / tol * math.sqrt(math.pi / decay)) + peak + extra_log
    step = max(2.0 * math.pi * a / (log_bound + chirp * a * a + slope * a
                                    - math.log(math.sin(math.pi * (strip - a))))
               for a in (strip * j / 16.0 for j in range(1, 16)))
    prev = None
    for _ in range(10):
        m = int(math.ceil(cut / step))
        if m > 2_000_000:
            raise ConvergenceError("trapezoid needs too many nodes")
        val = 0j
        magnitude = 0.0
        for start in range(-m, m + 1, 262_144):
            xs = np.arange(start, min(start + 262_144, m + 1), dtype=float) * step
            vals = f(xs)
            val += step * complex(np.sum(vals))
            magnitude += step * float(np.sum(np.abs(vals)))
        floor = 5e-15 * magnitude
        if prev is not None and abs(val - prev) <= max(tol * max(1.0, abs(val)), floor):
            return complex(val)
        prev = val
        step /= 2.0
    raise ConvergenceError("trapezoid refinement did not converge")


def mordell_h(w: complex, z: complex) -> complex:
    """Mordell integral H(w; z) = int_R e^(-pi i x^2 z - 2 pi w x) / cosh(pi x) dx.

    The Gaussian factor decays only when Im z < 0; the transformation-law
    call sites all arrive in that half-plane (as -i times a right-half-plane
    quantity).  Tolerance 1e-12, absolute, relative once |H| exceeds 1.

    Re w is first brought into [-1/2, 1/2] by Zwegers' identity
    h(v) + h(v + 1) = 2/sqrt(-i tau) e^(pi i (v + 1/2)^2 / tau) with
    tau = -z (Mock theta functions, 2002, Prop. 1.2), that is
    H(w) = 2/sqrt(i z) e^(-pi i (w -+ 1/2)^2 / z) - H(w -+ 1), upper sign
    for Re w > 1/2.  On that strip the integrand is bounded by
    2 e^(-decay x^2 - (pi - 2 pi |Re w|) |x|), so it peaks at x = 0 and
    the trapezoid truncates at that true envelope.  Its step comes from the
    strip |Im x| < 1/2, on whose lines Im x = +-y the chirp e^(-pi i x^2 z)
    grows by e^(pi y^2 |z|^2 / |Im z|) and e^(-2 pi w x) by
    e^(2 pi |Im w| y).
    """
    w = complex(w)
    z = complex(z)
    decay = math.pi * (-z.imag)
    if decay <= 0:
        raise ValueError("mordell_h needs Im z < 0 for a decaying integrand")
    if abs(w.real) > 1e4:
        raise ValueError("mordell_h needs |Re w| <= 1e4")
    closed = 0j
    sign = 1.0
    scale = 2.0 / cmath.sqrt(1j * z)
    while abs(w.real) > 0.5:
        half = 0.5 if w.real > 0 else -0.5
        try:
            term = scale * cmath.exp(-1j * math.pi * (w - half) ** 2 / z)
        except OverflowError:
            term = complex("inf")
        if not cmath.isfinite(term):
            raise ValueError("Mordell shift term overflows double range")
        closed += sign * term
        sign = -sign
        w -= 2.0 * half

    def f(x):
        return np.exp(-1j * math.pi * x * x * z - 2.0 * math.pi * w * x) / np.cosh(
            math.pi * x
        )

    growth = 2.0 * math.pi * abs(w.real) - math.pi
    return closed + sign * _trapezoid_real_line(
        f, decay, growth, strip=0.5, chirp=math.pi * abs(z) ** 2 / -z.imag,
        slope=2.0 * math.pi * abs(w.imag), tol=1e-12)


def script_h(c: int, T: int, alpha, gamma: int, varrho, k: int, z: complex) -> complex:
    """int_R x^c e^(-pi T x^2/(gamma^2 k z) + 2 pi alpha x)
    / cosh(pi (x + i rho)) dx.

    Needs Re(1/z) > 0 for decay and |rho| < 1/2 to keep the cosh zero-free
    on the contour.  Tolerance 1e-10, absolute, relative past magnitude 1.
    The polynomial factor is x^c, not (x + i rho)^c: the contour shift
    moves the rho-offset out of the power and into the cosh alone, as a
    Taylor-coefficient comparison of the expanded Mordell integral
    confirms (the shifted power fails it at every order with c > 0).
    """
    alpha = float(alpha)
    rho = float(varrho)
    z = complex(z)
    if c < 0:
        raise ValueError("c must be a nonnegative integer")
    if abs(rho) >= 0.5:
        raise ValueError("|varrho| must be < 1/2 (pole on the contour)")
    inv_z = 1.0 / z
    if inv_z.real <= 0:
        raise ValueError("script_h needs Re(1/z) > 0")
    rate = math.pi * T / (gamma * gamma * k)
    decay = rate * inv_z.real

    def f(x):
        xi = x + 1j * rho
        return x**c * np.exp(-rate * inv_z * x * x + 2.0 * math.pi * alpha * x) / np.cosh(
            math.pi * xi
        )

    # |cosh(pi (x + i rho))| >= cos(pi rho) cosh(pi x) >= cos(pi rho) e^(pi |x|) / 2
    growth = 2.0 * math.pi * abs(alpha) - math.pi
    extra = (c * math.log(2.0 + abs(alpha) / max(decay, 1e-12) + 1.0 / max(decay, 1e-12))
             - math.log(math.cos(math.pi * rho)))
    return _trapezoid_real_line(f, decay, growth, strip=0.5 - abs(rho),
                                chirp=rate * abs(inv_z) ** 2 / inv_z.real, slope=0.0,
                                tol=1e-10, extra_log=extra)


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple:
    """The 24-point Gauss-Legendre nodes and weights on [-1, 1], built on
    first use so that importing the package does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(24)


def bessel_integral(T: int, n: int, c: int, s: int, k: int, beta: float, rho: int,
                    alpha: float) -> complex:
    """The [-1, 1] integral of the asymptotic formula's Mordell part,

        int_(-1)^1 (lam x)^c e^(2 pi lam alpha x) (1 - x^2)^((1/2 - s)/2)
            I_(s - 1/2)((2 pi / k) sqrt(beta (24n - 1)/12) sqrt(1 - x^2))
            / cosh(pi (lam x + i rho / T)) dx,

    with lam = sqrt(beta / T) T / gcd(T, k): odd T >= 1, n >= 1, c >= 0,
    s >= 0, beta > 0 and 2|rho| < T, else `ValueError`.

    Gauss-Legendre panels with panel-count doubling: the integrand is
    analytic across x = +-1, so interior nodes suffice.  The doubling test
    is 1e-9 relative, or at the roundoff floor of the node-sum magnitude
    when the integrand cancels (odd symmetry).  The tests hold the groups
    that `theorem_a_main` builds to 1e-13 against mpmath, but for a group
    it never builds the doubling test is the only bound: at T = 23,
    n = 10^4, c = s = 5, k = 2, rho = 11 (a cosh pole about 0.016 from the
    contour), alpha = 0.35 and beta = the gate, the value is 6.4e-12 off.
    """
    return bessel_integrals(T, n, [(c, s)], [(k, beta, rho, [alpha])])[0][0][0]


# The most (alpha x panel x node) values that `bessel_integrals` holds in
# one block, so that its per-alpha arrays do not grow with the number of
# groups or alphas (at least one alpha per block)
_BLOCK_NODES = 1 << 13


def bessel_integrals(T: int, n: int, pairs, groups) -> list[list[list[complex]]]:
    """`bessel_integral` at each (c, s) of `pairs` and each alpha of each
    (k, beta, rho, alphas) group, as one list per pair of one list of
    values per group.

    Every pair shares one quadrature pass.  At each panel count the
    alpha-free factors of the groups with an alpha pending in some pair
    are built once: the cosh factor, (lam x)^c for each c, and for each s
    the endpoint factor and the Bessel factor, from one `bessel_i` call on
    a (group x panel x 24) array whose (group, panel) rows each keep their
    own Miller start.  The pending alphas are evaluated in blocks of at
    most `_BLOCK_NODES` values, with e^(2 pi lam alpha x) built once per
    block for every pair.  Each pair keeps its own pending alphas and its
    own doubling test, and each node's value is the product
    ((((e^(...) (lam x)^c) (1 - x^2)^e) I) / cosh) weight of a one-alpha
    call, so every value is bit-identical to a one-pair, one-alpha call.
    """
    if T < 1 or T % 2 == 0:
        raise ValueError("T must be odd and positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if any(c < 0 for c, _ in pairs):
        raise ValueError("c must be >= 0")
    if any(s < 0 for _, s in pairs):
        raise ValueError("s must be >= 0")
    if any(not beta > 0 for _, beta, _, _ in groups):
        raise ValueError("beta must be positive")
    if any(2 * abs(rho) >= T for _, _, rho, _ in groups):
        raise ValueError("2|rho| must be < T")
    if not groups:
        return [[] for _ in pairs]
    arg_scale = np.array([2.0 * math.pi * math.sqrt(beta * ((24 * n - 1) / 12)) / k
                          for k, beta, _, _ in groups])
    if (arg_scale > 700.0).any():
        raise ValueError("Bessel argument overflows double range")
    lam = np.array([math.sqrt(beta / T) * (T // gcd(T, k)) for k, beta, _, _ in groups])
    shift = np.array([1j * (rho / T) for _, _, rho, _ in groups])
    sizes = [len(alphas) for *_, alphas in groups]
    owner = np.repeat(np.arange(len(groups)), sizes)
    slopes = 2.0 * math.pi * lam[owner] * np.concatenate(
        [np.asarray(alphas, dtype=float) for *_, alphas in groups])
    nodes, weights = _gauss_legendre()
    out = np.empty((len(pairs), len(slopes)), dtype=complex)
    prev = np.empty_like(out)
    pending = np.ones(out.shape, dtype=bool)  # (pair, alpha)
    slot = np.empty(len(groups), dtype=int)  # group -> its row among the live groups
    panels = 2
    while pending.any():
        if panels > 512:  # nine doublings from 2
            raise ConvergenceError("panel doubling did not converge for bessel_integral")
        edges = np.linspace(-1.0, 1.0, panels + 1)
        a, b = edges[:-1], edges[1:]
        mid, rad = (a + b) / 2.0, (b - a) / 2.0
        x = mid[:, None] + rad[:, None] * nodes  # one row per panel
        one_minus = 1.0 - x * x
        # the alphas pending in some pair, ascending, so that each group's
        # alphas are contiguous, and the groups that own them
        ids = np.flatnonzero(pending.any(axis=0))
        owners = owner[ids]
        live = owners[np.flatnonzero(np.diff(owners, prepend=-1))]
        slot[live] = np.arange(len(live))
        active = [(p, c, s) for p, (c, s) in enumerate(pairs) if pending[p].any()]
        lam_x = lam[live, None, None] * x
        cosh = np.cosh(math.pi * (lam_x + shift[live, None, None]))
        pows = {c: lam_x**c for _, c, _ in active if c}
        ends = {s: one_minus ** ((0.5 - s) / 2.0) for _, _, s in active}
        root = np.sqrt(one_minus)
        bessels = {s: bessel_i(Fraction(2 * s - 1, 2), arg_scale[live, None, None] * root)
                   for s in ends}
        step = max(1, _BLOCK_NODES // x.size)
        for start in range(0, len(ids), step):
            block = ids[start:start + step]
            row = slot[owner[block]]
            exps = np.exp(slopes[block, None, None] * x)
            cosh_rows = cosh[row]
            pow_rows = {c: v[row] for c, v in pows.items()}
            bessel_rows = {s: v[row] for s, v in bessels.items()}
            for p, c, s in active:
                sel = pending[p, block]
                if not sel.any():
                    continue
                part = slice(None) if sel.all() else sel
                # ((((e^(...) (lam x)^c) (1 - x^2)^e) I) / cosh) weight,
                # each product in this order, on a new array
                vals = pow_rows[c][part] * exps[part] if c else exps[sel]
                vals *= ends[s]
                vals *= bessel_rows[s][part]
                vals = vals / cosh_rows[part]
                np.multiply(weights, vals, out=vals)
                # each panel's rad * row sum, added in panel order: cumsum is
                # sequential, and "+ 0.0" turns a -0.0 total into the +0.0
                # that a sum started from zero gives
                total = np.cumsum(rad * vals.sum(axis=2), axis=1)[:, -1] + 0.0
                where = block[sel]
                if panels > 2:
                    # sum |f|, the roundoff floor of a cancelling integrand,
                    # only for the alphas that fail the relative test
                    diff = np.abs(total - prev[p, where])
                    done = diff <= 1e-9 * np.abs(total)
                    if not done.all():
                        rest = np.flatnonzero(~done)
                        magnitude = np.cumsum(rad * np.abs(vals[rest]).sum(axis=2),
                                              axis=1)[:, -1]
                        done[rest] = diff[rest] <= 1e-14 * magnitude
                    out[p, where[done]] = total[done]
                    pending[p, where[done]] = False
                prev[p, where] = total
        panels *= 2
    bounds = np.cumsum([0] + sizes).tolist()
    return [[values[i:j] for i, j in zip(bounds, bounds[1:])] for values in out.tolist()]
